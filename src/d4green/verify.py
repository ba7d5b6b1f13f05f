"""Grid verification suites.

Three scopes, mirroring the three models of the ring:

* ``table``: for every unordered pair of grid labels, the matrix oracle
  (build, tensor, decompose) must reproduce the symbolic multiplication
  table exactly, case by case.
* ``presentation``: sequence recurrence, normal-form round trips, the
  multiplicativity of the isomorphism onto the label model, vanishing of
  every defining relation, and confluence spot checks.
* ``braiding``: the universal braiding element must witness the symmetry
  of the tensor product on every grid pair.

Each run returns a :class:`Report`; the CLI renders it and maps the
outcome to the exit code.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
from collections import Counter
from dataclasses import dataclass, field

from . import green
from . import replab
from .grammar import render_element
from .green import ETA_INF, GreenElement, Label, band, eta, omega, projective, simple_one, simple_two
from .presentation import (
    PresElement,
    a_seq,
    from_green,
    mono_band,
    mono_one,
    mono_x,
    mono_x2,
    mono_y,
    mono_z,
    nf_mul,
    to_green,
)

DEFAULT_ETAS = (eta(0), eta(1), ETA_INF)


@dataclass
class Report:
    scope: str
    header: str
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    checks: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        out = [f"[{self.scope}] {self.header}"]
        out.extend(f"  {line}" for line in self.lines)
        for failure in self.failures:
            out.append(f"  FAIL {failure}")
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"[{self.scope}] {verdict}: {self.checks} checks, {len(self.failures)} failures")
        return "\n".join(out)


def grid_labels(max_s: int, etas) -> list[Label]:
    """All labels with parameter at most max_s over the given eta set."""
    if max_s < 1:
        raise ValueError("max_s must be at least 1")
    labels = []
    for r in (0, 1):
        labels.extend([simple_one(r), simple_two(r), projective(r)])
    for s in range(1, max_s + 1):
        for r in (0, 1):
            labels.extend([omega(s, r), omega(-s, r)])
            labels.extend(band(s, r, e) for e in etas)
    return labels


def _expected_multiset(l1: Label, l2: Label) -> list[Label]:
    expanded = []
    for label, coeff in green.mul_labels(l1, l2).terms():
        if coeff < 0:
            raise ValueError(f"table entry with negative coefficient for {l1} x {l2}")
        expanded.extend([label] * coeff)
    expanded.sort()
    return expanded


def _check_table_pair(pair: tuple[Label, Label]) -> tuple[str, str | None]:
    """Returns (case name, failure detail or None)."""
    l1, l2 = pair
    case = green.case_name(l1, l2)
    try:
        expected = _expected_multiset(l1, l2)
        product = replab.tensor(replab.build(l1), replab.build(l2))
        actual = replab.decompose(product)
    except Exception as exc:  # surfaced verbatim in the report
        return case, f"{case}: {l1} x {l2}: {type(exc).__name__}: {exc}"
    if actual != expected:
        got = render_element(_multiset_to_element(actual))
        want = render_element(_multiset_to_element(expected))
        return case, f"{case}: {l1} x {l2}: oracle {got} != table {want}"
    return case, None


def _multiset_to_element(labels: list[Label]) -> GreenElement:
    counts = Counter(labels)
    return GreenElement(counts.items())


def run_table(max_s: int = 2, etas=DEFAULT_ETAS, seed: int = 0, jobs: int = 1) -> Report:
    """Oracle-vs-table equivalence over all unordered grid pairs."""
    labels = grid_labels(max_s, etas)
    pairs = list(itertools.combinations_with_replacement(labels, 2))
    header = (
        f"max_s={max_s} etas={','.join(str(e) for e in etas) or '-'} "
        f"seed={seed} jobs={jobs} pairs={len(pairs)}"
    )
    report = Report("table", header, checks=len(pairs))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_check_table_pair, pairs, chunksize=16)
    else:
        results = [_check_table_pair(p) for p in pairs]
    stats: Counter = Counter()
    fails: Counter = Counter()
    for case, failure in results:
        stats[case] += 1
        if failure is not None:
            fails[case] += 1
            report.failures.append(failure)
    for case in sorted(stats, key=lambda c: int(c[1:])):
        status = "ok" if not fails[case] else f"{fails[case]} FAILED"
        report.lines.append(f"{case:<4} {stats[case]:>5} pairs  {status}")
    return report


# -- presentation scope ----------------------------------------------------


def _grid_monomials(max_n: int, etas):
    monos = [mono_one(), mono_one(1), mono_x(), mono_x(1), mono_x2(), mono_x2(1)]
    for n in range(1, max_n + 1):
        for g in (0, 1):
            monos.append(mono_y(n, g))
            monos.append(mono_z(n, g))
            monos.extend(mono_band(n, e, g) for e in etas)
    return monos


def _relation_images(mul_n: int, etas) -> list[tuple[str, str, GreenElement]]:
    """Every defining relation of the quotient presentation, evaluated in
    the label model through the generator images; all must be zero.

    Returns (family, instance, value) triples; the family names the
    relation schema, the instance pins its parameters.
    """
    one = GreenElement.unit()
    g = GreenElement.from_label(simple_one(1))
    x = GreenElement.from_label(simple_two(0))
    y = GreenElement.from_label(omega(1, 0))
    z = GreenElement.from_label(omega(-1, 0))

    def m(*els):
        acc = one
        for e in els:
            acc = green.mul(acc, e)
        return acc

    rels: list[tuple[str, str, GreenElement]] = [
        ("g^2 - 1", "", m(g, g) - one),
        ("x^3 - 2x(1+g)", "", m(x, x, x) - (m(x, one + g)).scaled(2)),
        ("x(y - 1 - 2g)", "", m(x, y - one - g.scaled(2))),
        ("x(y - z)", "", m(x, y - z)),
        ("yz - 1 - 2x^2", "", m(y, z) - one - m(x, x).scaled(2)),
    ]
    for n in range(1, mul_n + 1):
        for e in etas:
            at = f"n={n}, eta={e}"
            xn = GreenElement.from_label(band(n, 0, e))
            rels.append(("xX - n(1+g)x", at, m(x, xn) - m(one + g, x).scaled(n)))
            rels.append(("yX - ngx^2 - gX", at, m(y, xn) - m(g, x, x).scaled(n) - m(g, xn)))
            rels.append(("zX - nx^2 - gX", at, m(z, xn) - m(x, x).scaled(n) - m(g, xn)))
    for n in range(1, mul_n + 1):
        for t in range(n, mul_n + 1):
            for e1 in etas:
                xn = GreenElement.from_label(band(n, 0, e1))
                xt = GreenElement.from_label(band(t, 0, e1))
                rels.append(
                    (
                        "X_nX_t - n(t-1)gx^2 - X - gX (same eta)",
                        f"n={n}, t={t}, eta={e1}",
                        m(xn, xt) - m(g, x, x).scaled(n * (t - 1)) - xn - m(g, xn),
                    )
                )
                for e2 in etas:
                    if e1 == e2:
                        continue
                    xs = GreenElement.from_label(band(t, 0, e2))
                    rels.append(
                        (
                            "X_nX_s - nsgx^2 (distinct eta)",
                            f"n={n}, s={t}, {e1} != {e2}",
                            m(xn, xs) - m(g, x, x).scaled(n * t),
                        )
                    )
    return rels


def run_presentation(
    max_s: int = 2,
    etas=DEFAULT_ETAS,
    seed: int = 0,
    jobs: int = 1,
    round_n: int | None = None,
    mul_n: int | None = None,
) -> Report:
    """Recurrence, round trips, multiplicativity, relations, confluence."""
    del jobs  # single-threaded; the checks are cheap
    round_n = round_n if round_n is not None else max(12, max_s)
    mul_n = mul_n if mul_n is not None else max(2, min(max_s, 6))
    etas = tuple(etas) or DEFAULT_ETAS
    header = f"round_n={round_n} mul_n={mul_n} etas={','.join(str(e) for e in etas)} seed={seed}"
    report = Report("presentation", header)

    for n in range(1, 51):
        report.checks += 1
        if 3 * a_seq(n) - n * (n - 1) // 2 != a_seq(n + 1) - n:
            report.failures.append(f"recurrence fails at n={n}")
    report.lines.append("recurrence      n=1..50")

    monos = _grid_monomials(round_n, etas)
    for m in monos:
        report.checks += 1
        p = PresElement.from_monomial(m)
        if from_green(to_green(p)) != p:
            report.failures.append(f"round trip fails on monomial {m}")
    labels = grid_labels(round_n, etas)
    for label in labels:
        report.checks += 1
        e = GreenElement.from_label(label)
        if to_green(from_green(e)) != e:
            report.failures.append(f"round trip fails on label {label}")
    report.lines.append(f"round trips     {len(monos)} monomials, {len(labels)} labels (n<={round_n})")

    mul_monos = _grid_monomials(mul_n, etas)
    pairs = list(itertools.combinations_with_replacement(mul_monos, 2))
    for m1, m2 in pairs:
        report.checks += 1
        p1, p2 = PresElement.from_monomial(m1), PresElement.from_monomial(m2)
        if to_green(nf_mul(p1, p2)) != green.mul(to_green(p1), to_green(p2)):
            report.failures.append(f"multiplicativity fails on {m1} * {m2}")
    report.lines.append(f"homomorphism    {len(pairs)} monomial pairs (n<={mul_n})")

    rels = _relation_images(mul_n, etas)
    by_family: dict[str, list[str]] = {}
    for family, instance, value in rels:
        report.checks += 1
        bad = by_family.setdefault(family, [])
        if value:
            bad.append(instance)
            report.failures.append(
                f"relation {family} [{instance}] maps to {render_element(value)}"
            )
    for family, _, _ in rels:
        if family in by_family:
            bad = by_family.pop(family)
            count = sum(1 for f, _, _ in rels if f == family)
            status = "ok" if not bad else f"{len(bad)} FAILED"
            report.lines.append(f"relation {family:<40} {count:>3} instances  {status}")

    rng = random.Random(seed)
    triples = [tuple(rng.choice(mul_monos) for _ in range(3)) for _ in range(200)]
    for m1, m2, m3 in triples:
        report.checks += 2
        p1, p2, p3 = (PresElement.from_monomial(m) for m in (m1, m2, m3))
        if nf_mul(p1, p2) != nf_mul(p2, p1):
            report.failures.append(f"commutativity fails on {m1} * {m2}")
        if nf_mul(nf_mul(p1, p2), p3) != nf_mul(p1, nf_mul(p2, p3)):
            report.failures.append(f"associativity fails on ({m1}, {m2}, {m3})")
    report.lines.append(f"confluence      {len(triples)} sampled triples")
    return report


def run_braiding(max_s: int = 2, etas=DEFAULT_ETAS, seed: int = 0, jobs: int = 1) -> Report:
    """flip . R is an invertible intertwiner on every grid pair."""
    labels = grid_labels(max_s, etas)
    pairs = list(itertools.combinations_with_replacement(labels, 2))
    header = (
        f"max_s={max_s} etas={','.join(str(e) for e in etas) or '-'} "
        f"seed={seed} jobs={jobs} pairs={len(pairs)}"
    )
    report = Report("braiding", header, checks=len(pairs))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_check_braiding_pair, pairs, chunksize=16)
    else:
        results = [_check_braiding_pair(p) for p in pairs]
    for failure in results:
        if failure is not None:
            report.failures.append(failure)
    report.lines.append(f"braided pairs   {len(pairs)}")
    return report


def _check_braiding_pair(pair: tuple[Label, Label]) -> str | None:
    l1, l2 = pair
    try:
        ok = replab.braiding_check(replab.build(l1), replab.build(l2))
    except Exception as exc:
        return f"{l1} x {l2}: {type(exc).__name__}: {exc}"
    if not ok:
        return f"{l1} x {l2}: braiding map is not an invertible intertwiner"
    return None


def run_scope(scope: str, max_s: int, etas, seed: int, jobs: int) -> list[Report]:
    runners = {
        "table": run_table,
        "presentation": run_presentation,
        "braiding": run_braiding,
    }
    if scope == "all":
        return [runners[name](max_s=max_s, etas=etas, seed=seed, jobs=jobs) for name in ("table", "presentation", "braiding")]
    return [runners[scope](max_s=max_s, etas=etas, seed=seed, jobs=jobs)]
