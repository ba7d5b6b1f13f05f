"""Seeded inputs, ops and reference checks of the four workloads.

Each workload is a closed loop with one caller: the next op starts when
the previous one has returned.  An op is a call into the program on
inputs made here from the seed; its answer is checked right after it
returns, outside the timed region and with tracing paused, against a
reference the op itself does not use.  An op fails if it raises (tallied
by exception type) or if its answer differs from the reference
(tallied as ``WrongAnswer``).  Each op's wall time is also converted to
nominal seconds by the host-speed kernel of hostspeed.py.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import select
import statistics
import threading
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, Iterator

from d4green import grammar, green, presentation, replab, verify
from d4green.green import (
    ETA_INF,
    GreenElement,
    Label,
    LabelKind,
    band,
    eta,
    label_dimension,
    omega,
    projective,
    simple_one,
    simple_two,
)

from hostspeed import NOMINAL_S, EVERY_S, HostClock, kernel_s
from tracing import merge

WRONG = "WrongAnswer"

# The acceptance grid of criterion 1.
GRID_ETAS = (eta(0), eta(1), eta(-2), eta(Fraction(5, 7)), ETA_INF)
GRID_MAX_S = 4


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]  # True when the answer matches the reference
    dim: int = 0  # input dimension of an oracle op, 0 otherwise


@dataclass
class Tally:
    """What one run did."""

    attempted: int = 0
    measured_s: float = 0.0  # wall time inside ops (checks excluded)
    ok_s: list[float] = field(default_factory=list)  # wall duration of each op that succeeded
    nominal_s: float = 0.0  # measured_s in nominal seconds (hostspeed.py)
    ok_nominal: list[float] = field(default_factory=list)  # ok_s in nominal seconds
    kernel_samples: int = 0
    failures: Counter = field(default_factory=Counter)  # failed ops by type
    op_dims: dict[int, int] = field(default_factory=dict)  # op number -> input dim
    per_op: list[tuple[str, int, float, str | None]] = field(default_factory=list)  # name, dim, s, failure
    pool: dict = field(default_factory=dict)  # verify-jobs2 only: pool-side figures

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so every prefix samples the range evenly."""
    bits = max(1, (n - 1).bit_length())
    order = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [i for i in order if i < n]


def done(measured_s: float, block_s: float, seconds: float) -> bool:
    """Whether a run of whole blocks should stop: when another block like
    the last would end further from ``seconds`` than stopping now."""
    return measured_s + block_s / 2 >= seconds


def closed_loop(blocks: Iterator[list[Op]], seconds: float, tracer=None) -> Tally:
    """Run blocks of ops for about ``seconds`` of time inside ops.

    The clock is read between blocks, so a block always runs whole; the
    run ends at the block boundary nearest to ``seconds`` (see done).
    """
    tally = Tally()
    clock = HostClock()
    succeeded = []
    for block in blocks:
        block_s = -tally.measured_s
        for op in block:
            clock.tick()
            if tracer is not None:
                tracer.begin_op()
                tally.op_dims[tracer.ops] = op.dim
            t0 = perf_counter()
            try:
                out = op.call()
                err = None
            except Exception as exc:  # a failing op is tallied; the loop goes on
                err = type(exc).__name__
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            if err is None and not op.check(out):
                err = WRONG
            clock.record(dt)
            succeeded.append(err is None)
            tally.attempted += 1
            tally.measured_s += dt
            if err is None:
                tally.ok_s.append(dt)
            else:
                tally.failures[err] += 1
            tally.per_op.append((op.name, op.dim, dt, err))
        block_s += tally.measured_s
        if done(tally.measured_s, block_s, seconds):
            break
    nominal = clock.finish()
    tally.nominal_s = sum(nominal)
    tally.ok_nominal = [n for n, ok in zip(nominal, succeeded) if ok]
    tally.kernel_samples = len(clock.samples)
    return tally


# -- oracle-grid and oracle-large ----------------------------------------------


def _expected_labels(l1: Label, l2: Label) -> list[Label]:
    return sorted(l for l, c in green.mul_labels(l1, l2).terms() for _ in range(c))


def oracle_op(l1: Label, l2: Label | None = None) -> Op:
    """build -> tensor -> decompose, checked against the green table."""
    if l2 is None:
        return Op(
            str(l1),
            lambda: replab.decompose(replab.build(l1)),
            lambda out: out == [l1],
            label_dimension(l1),
        )
    return Op(
        f"{l1} x {l2}",
        lambda: replab.decompose(replab.tensor(replab.build(l1), replab.build(l2))),
        lambda out: out == _expected_labels(l1, l2),
        label_dimension(l1) * label_dimension(l2),
    )


def grid_strata(size: int = 3) -> list[list[tuple[Label, Label]]]:
    """The grid's unordered pairs, ordered by input dimension and table case,
    cut into groups of ``size``; decompose time varies little within a group."""
    labels = verify.grid_labels(GRID_MAX_S, GRID_ETAS)
    pairs = list(itertools.combinations_with_replacement(labels, 2))
    pairs.sort(
        key=lambda p: (
            label_dimension(p[0]) * label_dimension(p[1]),
            int(green.case_name(*p)[1:]),
            p[0].sort_key(),
            p[1].sort_key(),
        )
    )
    return [pairs[i : i + size] for i in range(0, len(pairs), size)]


def oracle_grid(seed: int) -> Iterator[list[Op]]:
    """One seeded pair from each stratum, strata in spread order, repeated."""
    rng = random.Random(seed)
    strata = grid_strata()
    order = spread_order(len(strata))
    while True:
        for k in order:
            yield [oracle_op(*rng.choice(strata[k]))]


LARGE_ETA = eta(Fraction(210, 221))


def large_ops() -> list[Op]:
    """Eleven cases that succeed.  Three of them are M_4 bands of about the
    same cost, the middle of the list by cost, so the median op of a run is
    taken from six or more like samples, not from one case or a gap."""
    ops = [oracle_op(omega(s, 0), omega(-s, 0)) for s in (2, 3, 4, 5, 6, 7)]
    ops += [oracle_op(band(4, r, e)) for r, e in ((0, LARGE_ETA), (1, LARGE_ETA), (0, eta(Fraction(221, 210))))]
    ops.append(oracle_op(band(5, 0, LARGE_ETA)))
    ops.append(oracle_op(band(3, 0, LARGE_ETA), band(3, 0, LARGE_ETA)))
    # decompose raises a false "rationality gap" here: the eigenvalue search
    # stops trial division at 10^6, so the root 1000003 * 1000033 is never tried
    ops.append(oracle_op(band(2, 0, eta(1000003 * 1000033))))
    return ops


def oracle_large(seed: int) -> Iterator[list[Op]]:
    """The fixed case list as one block; the seed does not change it.

    A block takes 11-16 s on a 2-vCPU Xeon VM, so a run of 25 s is two
    whole passes (three when the host is fast).
    """
    del seed
    while True:
        yield large_ops()


# -- symbolic ------------------------------------------------------------------

SYM_ETAS = (eta(0), eta(1), eta(-2), eta(Fraction(5, 7)), ETA_INF, LARGE_ETA, eta(1000003))
SYM_MAX_S = 50
# Word exponents lie on a fixed log-spaced grid from 1 to SYM_MAX_EXP (a
# systematic log-uniform sample), so every seed has the same cost mix; the
# seed draws everything else.  Powers of y or z above about 9000 (x above
# about 7100) print integers of more than 4300 digits, and y^m*z^n recurses
# about min(m, n) frames deep, so both known failures occur on this grid.
SYM_MAX_EXP = 12000
SYM_LEVELS = 8
SYM_SHAPES = 6  # the word shapes of _word


# Input text is written here, not by the program's renderer, so that the
# parse and render checks compare against an independent spelling.


def _eta_text(e) -> str:
    if e.is_infinite:
        return "oo"
    v = e.value
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _label_text(label: Label) -> str:
    K, r, s = LabelKind, label.r, label.s
    body = {
        K.SIMPLE_ONE: lambda: f"V({r})",
        K.SIMPLE_TWO: lambda: f"V(2,{r})",
        K.PROJECTIVE: lambda: f"P({r})",
        K.SYZYGY: lambda: f"O^{s}V({r})",
        K.COSYZYGY: lambda: f"O^-{s}V({r})",
        K.BAND: lambda: f"M_{s}({r},{_eta_text(label.eta)})",
    }[label.kind]()
    return f"[{body}]"


def element_text(terms: list[tuple[Label, int]]) -> str:
    parts = []
    for i, (label, c) in enumerate(terms):
        body = _label_text(label) if abs(c) == 1 else f"{abs(c)}*{_label_text(label)}"
        sign = ("-" if c < 0 else "") if i == 0 else ("- " if c < 0 else "+ ")
        parts.append(sign + body)
    return " ".join(parts)


def _random_label(rng: random.Random, kind: int, s: int) -> Label:
    r = rng.randrange(2)
    if kind < 3:
        return (simple_one, simple_two, projective)[kind](r)
    if kind == 5:
        return band(s, r, rng.choice(SYM_ETAS))
    return omega(s if kind == 3 else -s, r)


def _random_terms(rng: random.Random, k: int) -> list[tuple[Label, int]]:
    """The k-th element of a block.  Its number of terms and their kinds
    and sizes s are fixed by k (a systematic sample, like the exponents),
    so every seed has the same cost mix; the seed draws the rest."""
    terms = []
    for t in range(1 + k % 3):
        label = _random_label(rng, (k + 5 * t) % 6, 1 + (17 * k + 29 * t) % SYM_MAX_S)
        terms.append((label, rng.choice((-1, 1)) * rng.randint(1, 9)))
    return terms


_GENERATORS = {  # text and label of each presentation generator
    "g": ("g", simple_one(1)),
    "x": ("x", simple_two(0)),
    "y": ("y", omega(1, 0)),
    "z": ("z", omega(-1, 0)),
}


def _word(rng: random.Random, shape: int, a: int) -> list[tuple[str, Label, int]]:
    """Factors (text, label, exponent) of one word of the given shape.

    ``a`` is the leading exponent and ``b`` a random share of it; y^a*z^b
    is the RecursionError shape once b passes ~990.
    """
    b = max(1, int(a * rng.uniform(0.5, 1.0)))
    x, y, z = (_GENERATORS[k] for k in "xyz")
    if shape == 0:
        return [(*x, a)]
    if shape == 1:
        return [(*y, a)]
    if shape == 2:
        return [(*z, a)]
    if shape == 3:
        return [(*y, a), (*z, b)]
    if shape == 4:
        return [(*_GENERATORS["g"], 1), (*x, 1), (*y, a)]
    label = band(rng.randint(1, SYM_MAX_S), 0, rng.choice(SYM_ETAS))
    return [(f"X_{{{label.s},{_eta_text(label.eta)}}}", label, 1), (*z, a)]


def word_text(factors) -> str:
    return "*".join(text if e == 1 else f"{text}^{e}" for text, _, e in factors)


def _green_power(base: GreenElement, e: int) -> GreenElement:
    acc = GreenElement.unit()
    while e:
        if e & 1:
            acc = green.mul(acc, base)
        e >>= 1
        if e:
            base = green.mul(base, base)
    return acc


def word_value(factors) -> GreenElement:
    """The word evaluated in the label model, by squaring: the reference."""
    acc = GreenElement.unit()
    for _, label, e in factors:
        acc = green.mul(acc, _green_power(GreenElement.from_label(label), e))
    return acc


def multiply_op(rng: random.Random, k: int) -> Op:
    """parse -> green.mul -> render; the reference goes through nf_mul."""
    ta, tb = _random_terms(rng, 2 * k), _random_terms(rng, 2 * k + 1)
    sa, sb = element_text(ta), element_text(tb)

    def check(out):
        p = presentation.nf_mul(presentation.from_green(GreenElement(ta)), presentation.from_green(GreenElement(tb)))
        return grammar.parse_element(out) == presentation.to_green(p)

    return Op(
        f"multiply {sa} | {sb}",
        lambda: grammar.render_element(green.mul(grammar.parse_element(sa), grammar.parse_element(sb))),
        check,
    )


def from_modules_op(rng: random.Random, k: int) -> Op:
    terms = _random_terms(rng, k)
    text = element_text(terms)
    return Op(
        f"from-modules {text}",
        lambda: grammar.render_pres_element(presentation.from_green(grammar.parse_element(text))),
        lambda out: presentation.to_green(grammar.parse_pres_element(out)) == GreenElement(terms),
    )


def word_op(kind: str, rng: random.Random, shape: int, a: int) -> Op:
    """normal-form or to-modules of a word, checked against word_value."""
    factors = _word(rng, shape, a)
    w = word_text(factors)
    if kind == "normal-form":
        return Op(
            f"normal-form {w}",
            lambda: grammar.render_pres_element(grammar.parse_pres_element(w)),
            lambda out: out == grammar.render_pres_element(presentation.from_green(word_value(factors))),
        )
    return Op(
        f"to-modules {w}",
        lambda: grammar.render_element(presentation.to_green(grammar.parse_pres_element(w))),
        lambda out: grammar.parse_element(out) == word_value(factors),
    )


def symbolic(seed: int) -> Iterator[list[Op]]:
    """A calculator session in identical blocks that run whole.  A block
    holds one word op per (exponent, shape) cell, each followed by a
    multiply or from-modules op; the word ops alternate between
    normal-form and to-modules."""
    rng = random.Random(seed)
    exps = [round(SYM_MAX_EXP ** (k / (SYM_LEVELS - 1))) for k in range(SYM_LEVELS)]
    cells = [(a, shape) for a in exps for shape in range(SYM_SHAPES)]
    while True:
        block = []
        for j, (a, shape) in enumerate(cells):
            turn = (j + j // SYM_SHAPES) % 2
            block.append(word_op(("normal-form", "to-modules")[turn], rng, shape, a))
            block.append((multiply_op, from_modules_op)[turn](rng, j))
        yield block


# -- verify-jobs2 ----------------------------------------------------------------

VERIFY_MAX_S = 2
VERIFY_JOBS = 2


class _PoolChannel:
    """Where pool workers report each check: a pipe inherited through fork."""

    fd: int | None = None
    tracer = None
    originals: dict = {}
    kernel: tuple[int, float, float] = (0, 0.0, 0.0)  # pid, perf_counter and result of the last sample


def table_pair_op(pair):
    return _pool_op("table", pair)


def braiding_pair_op(pair):
    return _pool_op("braiding", pair)


def _failure_type(scope: str, out) -> str | None:
    failure = out[1] if scope == "table" else out
    if failure is None:
        return None
    # "<case>: <pair>: <Type>: <msg>" / "<pair>: <Type>: <msg>" for exceptions
    parts = failure.split(": ")
    head = parts[2] if scope == "table" else parts[1]
    if head.startswith("oracle ") or head.startswith("braiding map"):
        return WRONG
    return head


def _worker_kernel_s() -> float:
    """The host-speed kernel in a pool worker, sampled every EVERY_S seconds
    and used for the checks that follow it.

    Sampled inside the workers, it also sees the slowdown when the two
    workers share one core."""
    pid, at, k = _PoolChannel.kernel
    now = perf_counter()
    if pid != os.getpid() or now - at >= EVERY_S:
        if pid != os.getpid():
            kernel_s()  # warm-up in a fresh worker, not kept
        k = kernel_s()
        _PoolChannel.kernel = (os.getpid(), now, k)
    return k


def _pool_op(scope: str, pair):
    k = _worker_kernel_s()
    tracer = _PoolChannel.tracer
    if tracer is not None:
        tracer.reset()
        tracer.begin_op()
    t0 = perf_counter()
    out = _PoolChannel.originals[scope](pair)
    msg = {"s": perf_counter() - t0, "k": k, "err": _failure_type(scope, out)}
    if tracer is not None:
        tracer.end_op()
        msg["trace"] = tracer.summary()
        msg["pid"] = os.getpid()
        msg["cache"] = list(replab._build_cached.cache_info()[:2])
    line = json.dumps(msg, separators=(",", ":")).encode() + b"\n"
    # two workers share the pipe; writes up to PIPE_BUF bytes are atomic
    if len(line) > select.PIPE_BUF:
        raise RuntimeError(f"pool message of {len(line)} bytes exceeds PIPE_BUF")
    os.write(_PoolChannel.fd, line)
    return out


def _drain(fd: int, chunks: list) -> None:
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        chunks.append(chunk)


def _child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def verify_jobs2(seed: int, seconds: float, tracer=None) -> Tally:
    """verify.run_scope("all") with two pool workers, whole passes for about
    ``seconds``; an op is one check.  Pool checks are timed in the workers;
    the presentation checks run inline and are not timed.  The run's
    nominal time uses the median kernel sample of the workers."""
    labels = len(verify.grid_labels(VERIFY_MAX_S, GRID_ETAS))
    pool_checks = labels * (labels + 1)  # table and braiding: n(n+1)/2 pairs each
    tally = Tally()
    read_fd, write_fd = os.pipe()
    chunks: list[bytes] = []
    reader = threading.Thread(target=_drain, args=(read_fd, chunks), daemon=True)
    reader.start()
    _PoolChannel.fd, _PoolChannel.tracer = write_fd, tracer
    _PoolChannel.originals = {"table": verify._check_table_pair, "braiding": verify._check_braiding_pair}
    verify._check_table_pair, verify._check_braiding_pair = table_pair_op, braiding_pair_op
    cpu0 = _child_cpu_s()
    passes = 0
    try:
        while True:
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            reports = verify.run_scope(
                "all", max_s=VERIFY_MAX_S, etas=GRID_ETAS, seed=seed, jobs=VERIFY_JOBS
            )
            pass_s = perf_counter() - t0
            tally.measured_s += pass_s
            if tracer is not None:
                tracer.end_op()
            passes += 1
            for report in reports:
                tally.attempted += report.checks
                if report.scope == "presentation" and report.failures:
                    tally.failures[WRONG] += len(report.failures)
            if done(tally.measured_s, pass_s, seconds):
                break
    finally:
        verify._check_table_pair = _PoolChannel.originals["table"]
        verify._check_braiding_pair = _PoolChannel.originals["braiding"]
        os.close(write_fd)
        reader.join(timeout=60)
        os.close(read_fd)
    if reader.is_alive():
        raise RuntimeError("pool message reader did not finish")
    messages = [json.loads(line) for line in b"".join(chunks).splitlines()]
    if len(messages) != passes * pool_checks:
        raise RuntimeError(f"{len(messages)} pool checks reported, {passes * pool_checks} expected")
    merged: dict = {}
    caches: dict[int, list[int]] = {}
    for msg in messages:
        if msg["err"] is None:
            tally.ok_s.append(msg["s"])
            tally.ok_nominal.append(msg["s"] * NOMINAL_S / msg["k"])
        else:
            tally.failures[msg["err"]] += 1
        if "trace" in msg:
            merge(merged, msg["trace"])
            caches[msg["pid"]] = msg["cache"]
    kernels = [msg["k"] for msg in messages]
    tally.kernel_samples = len(set(kernels))
    tally.nominal_s = tally.measured_s * NOMINAL_S / statistics.median(kernels)
    tally.pool = {
        "jobs": VERIFY_JOBS,
        "child_cpu_s": _child_cpu_s() - cpu0,
        "child_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": merged,
        "build_cache": [sum(c[0] for c in caches.values()), sum(c[1] for c in caches.values())],
    }
    return tally


def run(workload: str, seed: int, seconds: float, tracer=None) -> Tally:
    if workload == "verify-jobs2":
        return verify_jobs2(seed, seconds, tracer)
    blocks = {"oracle-grid": oracle_grid, "oracle-large": oracle_large, "symbolic": symbolic}[workload]
    return closed_loop(blocks(seed), seconds, tracer)
