"""Which program functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules: ``linalg``, ``replab``, ``green``,
``presentation``, ``grammar`` and ``verify`` (``cli`` is covered by
``setup_s``).  Each wrapped function is patched in every module that looks
it up, so a call made through an imported name is traced as well.
"""

from __future__ import annotations

from d4green import cli, grammar, green, linalg, presentation, replab, verify
from d4green.linalg import RatMatrix

from tracing import Tracer

# RatMatrix methods called millions of times: counted and timed in
# aggregate, never given a span of their own.  None of them calls a
# wrapped function, which the leaf timer requires.
_LINALG_OTHER = (
    "__add__", "__sub__", "__neg__", "__eq__", "scale", "transpose", "copy",
    "is_zero", "column", "columns", "zeros", "identity", "diagonal",
    "from_rows", "from_columns",
)
_SUBSPACE_HELPERS = (
    "span_basis", "preimage_basis", "annihilator_basis", "quotient_maps",
    "restrict_to_invariant", "express_in_basis",
)

# The scaling curve of the oracle-large workload: O^s (x) O^-s for these dims.
SCALING_DIMS = (25, 49, 81, 121, 169, 225)


# Counting nonzeros costs about as much as a sparse matmul, so density is
# measured on every DENSITY_EVERY-th call only.
DENSITY_EVERY = 8


def _nnz(rows) -> int:
    return sum(map(bool, (x for row in rows for x in row)))


def install(tracer: Tracer) -> None:
    """Wrap every traced function; tracer.uninstall() undoes it."""
    t = tracer

    def count_entries(matrices):
        """matrices: (rows, row count, column count) of each input."""
        t.count("linalg.entries", sum(n * m for _, n, m in matrices))
        t.count("linalg.inputs")
        if t.counters["linalg.inputs"] % DENSITY_EVERY == 0:
            t.count("linalg.sampled_entries", sum(n * m for _, n, m in matrices))
            t.count("linalg.nonzero", sum(_nnz(rows) for rows, _, _ in matrices))

    def rref_before(args):
        data, cols = args
        count_entries([(data, len(data), cols)])

    def matmul_before(args):
        count_entries([(m.data, m.rows, m.cols) for m in args])

    t.patch([linalg], "_rref_inplace", t.span("linalg.rref", linalg._rref_inplace, before=rref_before))
    t.patch([RatMatrix], "__matmul__", t.span("linalg.matmul", RatMatrix.__matmul__, before=matmul_before))
    t.patch([RatMatrix], "apply", t.leaf("linalg.apply", RatMatrix.apply))
    t.patch([RatMatrix], "kron", t.span("linalg.kron", RatMatrix.kron))
    t.patch([RatMatrix], "det", t.span("linalg.det", RatMatrix.det))
    for name in _LINALG_OTHER:
        raw = RatMatrix.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(t.leaf("linalg.other", raw.__func__))
        else:
            wrapped = t.leaf("linalg.other", raw)
        t.patch([RatMatrix], name, wrapped)
    for name in _SUBSPACE_HELPERS:
        owners = [m for m in (linalg, replab) if hasattr(m, name)]
        t.patch(owners, name, t.span("linalg.subspace", getattr(linalg, name)))

    def tensor_after(rep):
        t.observe_max("replab.tensor.out_dim_max", rep.dim)

    def poly_eval(poly, x, _orig=replab._poly_eval):
        value = _orig(poly, x)
        t.count("replab.eigen.candidates")
        if value == 0:
            t.count("replab.eigen.roots")
        return value

    def kronecker_with_shift(*args, _orig=replab._kronecker_with_shift):
        t.count("replab.pencil.shift_attempts")
        return _orig(*args)

    for attr, name, kw in (
        ("build", "replab.build", {}),
        ("syzygy", "replab.syzygy", {}),
        ("tensor", "replab.tensor", {"after": tensor_after}),
        ("decompose", "replab.decompose", {}),
        ("_two_dim_labels", "replab.two_dim", {}),
        ("_one_dim_type_labels", "replab.radical_layers", {}),
        ("_ll2_labels", "replab.ll2", {}),
        ("_kronecker_blocks", "replab.pencil", {}),
        ("_rational_eigen_blocks", "replab.eigen", {}),
        ("_charpoly", "replab.charpoly", {}),
        ("braiding_check", "replab.braiding_check", {}),
    ):
        t.patch([replab], attr, t.span(name, getattr(replab, attr), **kw))
    t.patch([replab], "_poly_eval", poly_eval)
    t.patch([replab], "_kronecker_with_shift", kronecker_with_shift)

    t.patch([green], "mul", t.span("green.mul", green.mul))
    t.patch([green], "mul_labels", t.span("green.mul_labels", green.mul_labels))
    for attr in ("nf_mul", "to_green", "from_green"):
        owners = [m for m in (presentation, grammar, verify, cli) if hasattr(m, attr)]
        t.patch(owners, attr, t.span(f"presentation.{attr}", getattr(presentation, attr)))
    for attr, name in (
        ("parse_element", "grammar.parse"),
        ("parse_pres_element", "grammar.parse"),
        ("render_element", "grammar.render"),
        ("render_pres_element", "grammar.render"),
    ):
        owners = [m for m in (grammar, verify, cli) if hasattr(m, attr)]
        t.patch(owners, attr, t.span(name, getattr(grammar, attr)))
    for attr in ("run_table", "run_braiding", "run_presentation"):
        t.patch([verify], attr, t.span(f"verify.{attr}", getattr(verify, attr)))


def per_layer(total: dict) -> dict[str, float]:
    """Per-layer metrics from a merged tracer summary (see tracing.merge)."""
    selfs, leaf = total.get("self", {}), total.get("leaf", {})
    counters, maxima = total.get("counters", {}), total.get("maxima", {})

    def calls(name):
        return selfs.get(name, leaf.get(name, [0, 0.0]))[0]

    def self_s(name):
        return selfs.get(name, leaf.get(name, [0, 0.0]))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in ("linalg.rref", "linalg.matmul", "linalg.apply"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("linalg.kron", "linalg.det", "linalg.subspace", "linalg.other"):
        out[f"{name}.self_s"] = self_s(name)
    out["linalg.entries"] = counters.get("linalg.entries", 0)
    out["linalg.density"] = ratio(counters.get("linalg.nonzero", 0), counters.get("linalg.sampled_entries", 0))

    out["replab.build.calls"] = calls("replab.build")
    out["replab.build.self_s"] = self_s("replab.build")
    hits, misses = total.get("build_cache", (0, 0))
    out["replab.build.cache_hit_ratio"] = ratio(hits, hits + misses)
    out["replab.syzygy.self_s"] = self_s("replab.syzygy")
    out["replab.tensor.self_s"] = self_s("replab.tensor")
    out["replab.tensor.out_dim_max"] = maxima.get("replab.tensor.out_dim_max", 0)
    out["replab.decompose.calls"] = calls("replab.decompose")
    for name in ("decompose", "two_dim", "radical_layers", "ll2", "pencil", "eigen", "charpoly", "braiding_check"):
        out[f"replab.{name}.self_s"] = self_s(f"replab.{name}")
    out["replab.pencil.shift_attempts_per_call"] = ratio(
        counters.get("replab.pencil.shift_attempts", 0), calls("replab.pencil")
    )
    out["replab.eigen.candidates"] = counters.get("replab.eigen.candidates", 0)
    out["replab.eigen.roots_per_candidate"] = ratio(
        counters.get("replab.eigen.roots", 0), out["replab.eigen.candidates"]
    )

    out["green.mul.calls"] = calls("green.mul")
    out["green.mul.self_s"] = self_s("green.mul")
    out["green.mul_labels.self_s"] = self_s("green.mul_labels")
    out["presentation.nf_mul.calls"] = calls("presentation.nf_mul")
    for name in ("nf_mul", "to_green", "from_green"):
        out[f"presentation.{name}.self_s"] = self_s(f"presentation.{name}")
    out["grammar.parse.self_s"] = self_s("grammar.parse")
    out["grammar.render.self_s"] = self_s("grammar.render")

    walls = total.get("walls", {})
    for name in ("run_table", "run_braiding", "run_presentation"):
        out[f"verify.{name}.wall_s"] = walls.get(f"verify.{name}", 0.0)
    out["verify.worker_busy_ratio"] = total.get("worker_busy_ratio", 0.0)

    layer_s = sum(v[1] for k, v in selfs.items() if k != "op") + sum(
        v[1] for k, v in leaf.items() if k != "trace.bookkeeping"
    )
    # the rest of the op wall time is the tracer's own bookkeeping and the
    # benchmark's code around the calls (the "op" root span)
    out["trace.accounted_share"] = ratio(layer_s, total.get("op_s", 0.0))
    out["trace.bookkeeping_share"] = ratio(leaf.get("trace.bookkeeping", [0, 0.0])[1], total.get("op_s", 0.0))
    curve = total.get("scaling", {})
    for dim in SCALING_DIMS:
        out[f"scaling.decompose_s.dim{dim}"] = curve.get(str(dim), 0.0)
    return out
