"""Acceptance suite: one test per criterion, each at exact tolerance.

Every check below is an identity of integers or rationals; there are no
tolerances anywhere.  The heavy criterion is the first one, which runs
the full oracle-vs-table grid (s, t up to 4, five band parameters, all
nineteen product cases)."""

import itertools
import os
import random

import pytest

from d4green.green import (
    ETA_INF,
    GreenElement,
    composition_factors,
    dimension,
    dual,
    dual_label,
    eta,
    grothendieck_image,
    label_dimension,
    mul,
    mul_labels,
    omega,
    projective,
    simple_one,
    simple_two,
)
from d4green.presentation import PresElement, a_seq, from_green, mono_x, mono_y, mono_z, nf_mul
from d4green.replab import build, check_relations, decompose, is_isomorphic, tensor
from d4green.replab import dual as dual_rep
from d4green.verify import grid_labels, run_braiding, run_presentation, run_table

FULL_ETAS = (eta(0), eta(1), eta(-2), eta('5/7'), ETA_INF)
FULL_GRID = grid_labels(4, FULL_ETAS)
JOBS = min(4, os.cpu_count() or 1)


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed{suffix}"


def test_criterion_1_table_oracle_equivalence():
    rep = run_table(max_s=4, etas=FULL_ETAS, seed=0, jobs=JOBS)
    cases = sum(1 for line in rep.lines)
    report(
        "1 table-oracle equivalence",
        rep.passed and cases == 19,
        f"{rep.checks} pairs, {cases} cases, {len(rep.failures)} failures",
    )


@pytest.mark.slow
def test_table_oracle_equivalence_up_to_s8():
    rep = run_table(max_s=8, etas=FULL_ETAS, seed=0, jobs=JOBS)
    report(
        "s <= 8 table-oracle equivalence",
        rep.passed and rep.checks == 7021 and len(rep.lines) == 19,
        f"{rep.checks} pairs, {len(rep.lines)} cases, {len(rep.failures)} failures",
    )


def test_criterion_2_named_identities():
    ok = is_isomorphic(tensor(build(simple_two(0)), build(simple_two(0))), build(projective(1)))
    y = PresElement.from_monomial(mono_y(1))
    z = PresElement.from_monomial(mono_z(1))
    x = PresElement.from_monomial(mono_x())
    one = PresElement.unit()
    x2 = nf_mul(x, x)
    gx = from_green(GreenElement.from_label(simple_two(1)))
    ok &= nf_mul(y, z) == one + x2.scaled(2)
    ok &= nf_mul(x, x2) == x.scaled(2) + gx.scaled(2)
    got = decompose(tensor(build(omega(1, 0)), build(omega(-1, 0))))
    ok &= got == sorted([simple_one(0), projective(1), projective(1)])
    report("2 named identities", ok)


def test_criterion_3_presentation_isomorphism():
    rep = run_presentation(round_n=12, mul_n=6, etas=(eta(0), eta(1), ETA_INF), seed=0)
    report("3 presentation isomorphism", rep.passed, f"{rep.checks} checks")


def test_criterion_4_sequence_recurrence():
    ok = [a_seq(n) for n in (1, 2, 3)] == [0, 1, 4]
    for n in range(1, 51):
        ok &= 3 * a_seq(n) - n * (n - 1) // 2 == a_seq(n + 1) - n
    report("4 sequence recurrence", ok, "n = 1..50")


def test_criterion_5_duality_suite():
    ok = True
    for label in FULL_GRID:
        e = GreenElement.from_label(label)
        ok &= dual(dual(e)) == e
        ok &= decompose(dual_rep(build(label))) == [dual_label(label)]
    rng = random.Random(5)
    for _ in range(50):
        l1, l2 = rng.choice(FULL_GRID), rng.choice(FULL_GRID)
        e1, e2 = GreenElement.from_label(l1), GreenElement.from_label(l2)
        ok &= dual(mul(e1, e2)) == mul(dual(e1), dual(e2))
    report("5 duality suite", ok, f"{len(FULL_GRID)} labels")


def test_criterion_6_braiding():
    rep = run_braiding(max_s=2, etas=FULL_ETAS, seed=0, jobs=JOBS)
    report("6 braiding", rep.passed, f"{rep.checks} pairs")


def test_criterion_7_structural_invariants():
    ok = True
    for label in FULL_GRID:
        ok &= check_relations(build(label))
    pairs = list(itertools.combinations_with_replacement(FULL_GRID, 2))
    simples = [simple_one(0), simple_one(1), simple_two(0), simple_two(1)]
    for l1, l2 in pairs:
        product = mul_labels(l1, l2)
        ok &= dimension(product) == label_dimension(l1) * label_dimension(l2)
        ok &= mul_labels(l2, l1) == product
        u, v = composition_factors(l1), composition_factors(l2)
        g0 = [0, 0, 0, 0]
        for i, ci in enumerate(u):
            for j, cj in enumerate(v):
                if ci and cj:
                    for k, f in enumerate(grothendieck_image(mul_labels(simples[i], simples[j]))):
                        g0[k] += ci * cj * f
        ok &= grothendieck_image(product) == tuple(g0)
    rng = random.Random(7)
    for _ in range(300):
        e1, e2, e3 = (GreenElement.from_label(rng.choice(FULL_GRID)) for _ in range(3))
        ok &= mul(mul(e1, e2), e3) == mul(e1, mul(e2, e3))
    report("7 structural invariants", ok, f"{len(pairs)} pairs")
