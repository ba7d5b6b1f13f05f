import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d4green import replab
from d4green.green import (
    ETA_INF,
    GreenElement,
    band,
    dual_label,
    eta,
    mul_labels,
    omega,
    projective,
    simple_one,
    simple_two,
)
from d4green.linalg import RatMatrix
from d4green.verify import DEFAULT_ETAS, grid_labels
from d4green.replab import (
    DecompositionError,
    Representation,
    braiding_check,
    build,
    check_relations,
    cosyzygy,
    decompose,
    direct_sum,
    dual,
    hom_space,
    is_isomorphic,
    loewy_length,
    projective_cover_map,
    radical_basis,
    recover_eta,
    socle_basis,
    syzygy,
    tensor,
)


def expand(element: GreenElement):
    return sorted(l for l, c in element.terms() for _ in range(c))


# -- builders -----------------------------------------------------------------


def test_simple_two_standard_matrices():
    rep = build(simple_two(0))
    assert rep.a == RatMatrix.from_rows([[0, 0], [1, 0]])
    assert rep.d == RatMatrix.from_rows([[0, 2], [0, 0]])
    assert rep.b == RatMatrix.diagonal([1, -1])
    assert rep.c == RatMatrix.diagonal([-1, 1])


def test_simple_one_standard_matrices():
    rep = build(simple_one(0))
    assert rep.a.is_zero() and rep.d.is_zero()
    assert rep.b == RatMatrix.identity(1) == rep.c


def test_band_matrices_match_standard_basis():
    rep = build(band(2, 0, 3))
    v = Fraction(3)
    # a sends v_{1,i} to v_{2,i}; d sends v_{1,1} to -eta v_{2,1} and
    # v_{1,2} to -v_{2,1} - eta v_{2,2}
    assert rep.a == RatMatrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert rep.d == RatMatrix.from_rows(
        [[0, 0, 0, 0], [0, 0, 0, 0], [-v, -1, 0, 0], [0, -v, 0, 0]]
    )
    assert rep.b == RatMatrix.diagonal([-1, -1, 1, 1])


def test_infinite_band_kills_first_top_vector():
    rep = build(band(3, 1, ETA_INF))
    first = [Fraction(1)] + [Fraction(0)] * 5
    assert rep.a.apply(first) == [Fraction(0)] * 6
    assert any(rep.d.apply(first))


@pytest.mark.parametrize(
    "label",
    [simple_one(1), simple_two(1), projective(0), omega(2, 1), omega(-3, 0), band(3, 0, '5/7'), band(2, 1, ETA_INF)],
)
def test_builders_satisfy_relations(label):
    assert check_relations(build(label))


def test_check_relations_rejects_bad_rep():
    rep = build(simple_two(0))
    broken = Representation(RatMatrix.identity(2), rep.b, rep.c, rep.d)
    assert not check_relations(broken)


def test_tensor_satisfies_relations():
    assert check_relations(tensor(build(simple_two(0)), build(simple_two(0))))


# -- monoidal structure ----------------------------------------------------------


def test_tensor_matches_coproduct_formula():
    # tensor adds 1 (x) a into the diagonal blocks of a (x) b in place; the
    # reference forms both Kronecker products and adds them densely
    labels = grid_labels(2, DEFAULT_ETAS)
    for m, n in itertools.product(map(build, labels), repeat=2):
        ident = RatMatrix.identity(m.dim)
        assert tensor(m, n) == Representation(
            m.a.kron(n.b) + ident.kron(n.a),
            m.b.kron(n.b),
            m.c.kron(n.c),
            m.d.kron(n.c) + ident.kron(n.d),
        )


def test_tensor_simple_two_square_is_projective():
    assert is_isomorphic(tensor(build(simple_two(0)), build(simple_two(0))), build(projective(1)))


def test_tensor_with_unit():
    for label in (projective(0), band(2, 1, 0), omega(2, 0)):
        assert is_isomorphic(tensor(build(simple_one(0)), build(label)), build(label))


def test_tensor_distinct_bands():
    got = tensor(build(band(1, 0, 0)), build(band(1, 0, ETA_INF)))
    assert is_isomorphic(got, build(projective(0)))


def test_dual_examples():
    assert is_isomorphic(dual(build(simple_two(0))), build(simple_two(1)))
    assert is_isomorphic(dual(build(simple_one(0))), build(simple_one(0)))
    assert is_isomorphic(dual(build(band(1, 0, eta('5/7')))), build(band(1, 1, eta('5/7'))))
    assert check_relations(dual(build(projective(0))))


@pytest.mark.parametrize("label", [omega(2, 0), band(2, 0, -2), projective(1), simple_two(0)])
def test_double_dual(label):
    rep = build(label)
    assert is_isomorphic(dual(dual(rep)), rep)


def test_direct_sum():
    empty = direct_sum([])
    assert empty.dim == 0
    two = direct_sum([build(simple_one(0)), build(simple_one(1))])
    assert two.b == RatMatrix.diagonal([1, -1])
    doubled = direct_sum([build(projective(0)), build(projective(0))])
    assert decompose(doubled) == [projective(0), projective(0)]


# -- hom spaces -------------------------------------------------------------------


def test_hom_space_dimensions():
    assert hom_space(build(simple_one(0)), build(simple_one(1))).dim == 0
    assert hom_space(build(simple_one(0)), build(simple_one(0))).dim == 1
    # End(P(0)) is two-dimensional: identity plus the top-to-socle map
    assert hom_space(build(projective(0)), build(projective(0))).dim == 2


def test_hom_space_basis_intertwines():
    m, n = build(omega(1, 0)), build(projective(1))
    hom = hom_space(m, n)
    for f in hom.basis:
        for xm, xn in zip(m.generators(), n.generators()):
            assert f @ xm == xn @ f


def test_is_isomorphic_examples():
    assert is_isomorphic(build(projective(0)), build(projective(0)))
    assert not is_isomorphic(build(simple_one(0)), build(simple_one(1)))
    lhs = tensor(build(omega(1, 0)), build(omega(1, 0)))
    rhs = direct_sum([build(omega(2, 0)), build(projective(0))])
    assert is_isomorphic(lhs, rhs, seed=11)
    assert not is_isomorphic(build(omega(1, 0)), build(omega(-1, 0)))


# -- radical series -----------------------------------------------------------------


def test_loewy_and_socle():
    p = build(projective(0))
    assert loewy_length(p) == 3
    assert len(socle_basis(p)) == 1
    assert loewy_length(build(simple_two(1))) == 1
    m = build(band(2, 0, 1))
    assert len(radical_basis(m)) == 2
    assert len(socle_basis(m)) == 2
    assert loewy_length(build(simple_one(0))) == 1
    assert loewy_length(direct_sum([])) == 0


def test_radical_of_projective_simple_is_zero():
    # the two-dimensional simples are killed by the radical even though
    # a and d act nontrivially on them
    t = build(simple_two(0))
    assert radical_basis(t) == []
    assert len(socle_basis(t)) == 2


def test_syzygy_parity_facts():
    for r in (0, 1):
        for s in (1, 2, 3):
            rep = build(omega(s, r))
            soc = socle_basis(rep)
            jm = radical_basis(rep)
            assert len(soc) == s
            assert rep.dim - len(jm) == s + 1
            sign = (-1) ** r if s % 2 else (-1) ** (r + 1)
            smat = RatMatrix.from_columns(soc, rows=rep.dim)
            assert rep.b @ smat == smat.scale(sign)


# -- covers and syzygies --------------------------------------------------------------


def test_projective_cover_of_simple():
    cover, phi = projective_cover_map(build(simple_one(0)))
    assert cover.dim == 4
    assert phi.rank() == 1
    assert decompose(cover) == [projective(0)]


def test_projective_cover_of_projective():
    cover, phi = projective_cover_map(build(projective(1)))
    assert cover.dim == 4
    assert phi.is_invertible()


def test_projective_cover_of_syzygy():
    cover, _ = projective_cover_map(build(omega(1, 0)))
    assert decompose(cover) == [projective(1), projective(1)]


def test_projective_cover_with_two_dim_top():
    rep = direct_sum([build(simple_two(0)), build(simple_one(1))])
    cover, phi = projective_cover_map(rep)
    assert decompose(cover) == sorted([simple_two(0), projective(1)])
    assert phi.rank() == rep.dim


def test_syzygy_anchors():
    assert is_isomorphic(syzygy(build(simple_one(0))), build(omega(1, 0)))
    assert syzygy(build(projective(0))).dim == 0
    assert syzygy(build(simple_two(1))).dim == 0
    assert is_isomorphic(cosyzygy(build(band(2, 1, eta(2)))), build(band(2, 0, eta(2))))
    for s in (1, 2):
        for r in (0, 1):
            assert is_isomorphic(syzygy(build(omega(s, r))), build(omega(s + 1, r)))


@pytest.mark.parametrize("label", [simple_one(0), omega(1, 1), omega(-2, 0), band(2, 0, '5/7')])
def test_cosyzygy_inverts_syzygy(label):
    rep = build(label)
    assert is_isomorphic(cosyzygy(syzygy(rep)), rep)


# -- eta recovery ------------------------------------------------------------------


def test_recover_eta():
    assert recover_eta(build(band(1, 0, eta('5/7')))) == eta('5/7')
    assert recover_eta(build(band(3, 1, ETA_INF))) == ETA_INF
    assert recover_eta(build(band(2, 0, eta(-2)))) == eta(-2)
    assert recover_eta(build(band(4, 1, eta('1/3')))) == eta('1/3')


def test_recover_eta_full_grid():
    for s in range(1, 5):
        for r in (0, 1):
            for e in (eta(0), eta(1), eta(-2), eta('5/7'), ETA_INF):
                assert recover_eta(build(band(s, r, e))) == e


def test_recover_eta_rejects_non_band():
    with pytest.raises(ValueError):
        recover_eta(build(projective(0)))
    with pytest.raises(ValueError):
        recover_eta(build(omega(1, 0)))


# -- decomposition -----------------------------------------------------------------


def test_decompose_examples():
    assert decompose(tensor(build(simple_two(0)), build(simple_two(0)))) == [projective(1)]
    assert decompose(direct_sum([build(simple_one(0))] * 2)) == [simple_one(0)] * 2
    e = eta('5/7')
    got = decompose(tensor(build(band(1, 0, e)), build(band(1, 0, e))))
    assert got == sorted([band(1, 0, e), band(1, 1, e)])
    assert decompose(direct_sum([])) == []


@pytest.mark.parametrize(
    "l1,l2",
    [
        (omega(1, 0), omega(1, 0)),
        (omega(2, 1), omega(-1, 0)),
        (omega(3, 0), omega(-3, 1)),
        (band(2, 0, '5/7'), band(4, 0, '5/7')),
        (band(3, 1, ETA_INF), omega(2, 0)),
        (simple_two(1), band(2, 0, -2)),
        (projective(0), omega(3, 1)),
    ],
)
def test_decompose_matches_table(l1, l2):
    got = decompose(tensor(build(l1), build(l2)))
    assert got == expand(mul_labels(l1, l2))


def test_decompose_dual_labels():
    for label in (omega(2, 0), omega(-1, 1), band(3, 0, eta('1/2')), simple_two(0), projective(1)):
        assert decompose(dual(build(label))) == [dual_label(label)]


def test_decompose_mixed_sum():
    pieces = [omega(1, 0), band(2, 0, eta(7)), simple_two(1), projective(0), simple_one(1)]
    rep = direct_sum([build(l) for l in pieces])
    assert decompose(rep) == sorted(pieces)


def _conjugate(rep, rng):
    n = rep.dim
    while True:
        p = RatMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        )
        if p.is_invertible():
            break
    pinv = p.inverse()
    return Representation(*(p @ x @ pinv for x in rep.generators()))


def test_decompose_is_basis_independent():
    import random

    rng = random.Random(3)
    pieces = [
        band(2, 0, '1/2'),
        band(3, 0, '1/2'),
        band(1, 1, '1/2'),
        omega(2, 1),
        omega(-1, 0),
        projective(0),
        simple_two(1),
        simple_one(0),
        band(2, 0, ETA_INF),
    ]
    rep = direct_sum([build(l) for l in pieces])
    # an upper unitriangular basis change keeps the diagonals of b and c
    n = rep.dim
    shear = RatMatrix.from_rows([[int(i <= j) for j in range(n)] for i in range(n)])
    sheared = Representation(*(shear @ x @ shear.inverse() for x in rep.generators()))
    for conj in (_conjugate(rep, rng), sheared):
        assert decompose(conj) == sorted(pieces)


def test_decompose_rejects_b_c_that_are_not_commuting_involutions():
    rep = build(simple_two(0))
    none_found = r"dimensions \{\(1, 1\): 0, \(-1, -1\): 0, \(1, -1\): 0, \(-1, 1\): 0\} sum to 0, not n = 2"
    with pytest.raises(DecompositionError, match=none_found):
        decompose(Representation(rep.a, RatMatrix.identity(2).scale(2), rep.c, rep.d))
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])  # an involution that does not commute with b
    with pytest.raises(DecompositionError, match=none_found):
        decompose(Representation(rep.a, rep.b, swap, rep.d))


def test_decompose_rejects_generators_that_keep_a_weight():
    import random

    rep = build(band(2, 0, '1/2'))
    keep = RatMatrix.zeros(4, 4)
    keep.data[0][0] = Fraction(1)  # maps weight (-1,-1) into itself
    for name, broken in (
        ("a", Representation(rep.a + keep, rep.b, rep.c, rep.d)),
        ("d", Representation(rep.a, rep.b, rep.c, rep.d + keep)),
    ):
        leaves = rf"^{name} does not send .*: it sends part of weight \(-1, -1\) outside weight \(1, 1\)$"
        for module in (broken, _conjugate(broken, random.Random(9))):
            with pytest.raises(DecompositionError, match=leaves):
                decompose(module)


def test_weight_read_off_matches_joint_eigenbasis_rewrite():
    labels = grid_labels(2, DEFAULT_ETAS)
    reps = [build(l) for l in grid_labels(3, DEFAULT_ETAS)]
    reps += [tensor(build(l1), build(l2)) for l1, l2 in itertools.product(labels, repeat=2)]
    for rep in reps:
        plus, minus, basis = replab._weight_split(rep)
        rewritten, pmat = replab._joint_eigenbasis(rep)
        r_plus, r_minus, r_basis = replab._weight_split(rewritten)
        assert (r_plus, r_minus) == (plus, minus)
        assert [pmat @ m for m in r_basis] == basis


def test_standard_models_never_reach_the_joint_eigenbasis(monkeypatch):
    def rewrite(rep):
        raise AssertionError("a standard model reached the joint eigenbasis rewrite")

    monkeypatch.setattr(replab, "_joint_eigenbasis", rewrite)
    replab._build_cached.cache_clear()
    l1, l2 = omega(3, 0), omega(-3, 0)
    assert decompose(tensor(build(l1), build(l2))) == expand(mul_labels(l1, l2))


def test_module_structure_is_basis_independent():
    import random

    rng = random.Random(11)
    pieces = [projective(0), omega(2, 1), omega(-1, 0), band(2, 0, '1/2'), simple_two(1), simple_one(1)]
    for rep in [build(l) for l in pieces] + [direct_sum([build(l) for l in pieces])]:
        conj = _conjugate(rep, rng)
        assert len(radical_basis(conj)) == len(radical_basis(rep))
        assert len(socle_basis(conj)) == len(socle_basis(rep))
        assert loewy_length(conj) == loewy_length(rep)
        cover, phi = projective_cover_map(conj)
        std_cover, std_phi = projective_cover_map(rep)
        assert decompose(cover) == decompose(std_cover)
        assert phi.rank() == std_phi.rank() == rep.dim


def test_recover_eta_is_basis_independent():
    import random

    rng = random.Random(13)
    for s, r, e in ((1, 0, eta('5/7')), (2, 1, ETA_INF), (3, 0, eta(-2)), (2, 0, eta(0))):
        assert recover_eta(_conjugate(build(band(s, r, e)), rng)) == e


def test_decompose_with_adversarial_band_parameters():
    # every small integer pencil shift collides with one of these
    # parameters, so the shift search has to iterate
    import random

    pieces = [
        band(1, 0, ETA_INF),
        band(1, 0, 1),
        band(1, 0, '1/2'),
        band(1, 0, '1/3'),
        band(1, 0, -1),
        band(2, 1, ETA_INF),
    ]
    rep = _conjugate(direct_sum([build(l) for l in pieces]), random.Random(5))
    assert decompose(rep) == sorted(pieces)


def test_decompose_triple_tensor():
    from d4green.green import mul

    ls = [simple_two(0), omega(1, 0), band(2, 0, '5/7')]
    rep = tensor(build(ls[0]), tensor(build(ls[1]), build(ls[2])))
    sym = mul(
        mul(GreenElement.from_label(ls[0]), GreenElement.from_label(ls[1])),
        GreenElement.from_label(ls[2]),
    )
    assert decompose(rep) == expand(sym)


def test_decompose_random_direct_sums():
    import random

    from conftest import ETA_POOL

    rng = random.Random(17)
    pool = []
    for r in (0, 1):
        pool += [simple_one(r), simple_two(r), projective(r)]
        for s in (1, 2, 3):
            pool += [omega(s, r), omega(-s, r)] + [band(s, r, e) for e in ETA_POOL]
    for _ in range(15):
        pieces = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        rep = direct_sum([build(l) for l in pieces])
        assert decompose(rep) == sorted(pieces)


HUGE_ETA = eta(1000003 * 1000033)
PRIMES_ABOVE_A_MILLION = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121)


@pytest.mark.parametrize(
    "label", [band(2, 0, HUGE_ETA), band(8, 0, eta('210/221'))], ids=["huge", "eightfold"]
)
def test_decompose_band_with_large_parameter(label):
    # an eigenvalue with prime factors above 10^6; an eight-fold eigenvalue
    assert decompose(build(label)) == [label]


def test_decompose_band_pairs_with_large_parameters():
    # equal parameters give repeated eigenvalues: the square-free step
    etas = (eta('210/221'), eta('221/210'), HUGE_ETA)
    bands = [band(s, r, e) for s in (1, 2, 3) for r in (0, 1) for e in etas]
    for l1, l2 in itertools.product(bands, repeat=2):
        assert decompose(tensor(build(l1), build(l2))) == expand(mul_labels(l1, l2)), (l1, l2)


_big = st.lists(st.sampled_from(PRIMES_ABOVE_A_MILLION), min_size=1, max_size=3).map(prod)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 1), _big, _big, st.sampled_from([1, -1]))
def test_decompose_band_with_composite_parameter(s, r, p, q, sign):
    label = band(s, r, Fraction(sign * p, q))
    assert decompose(build(label)) == [label]


def _companion_module(coeffs):
    """Radical-square-zero module whose pencil from top to socle is
    (identity, -companion(x^n + ... + coeffs[0])): its generalised
    eigenvalues are the roots of that polynomial."""
    n = len(coeffs)
    weights = RatMatrix.diagonal([1] * n + [-1] * n)
    a, d = RatMatrix.zeros(2 * n, 2 * n), RatMatrix.zeros(2 * n, 2 * n)
    for i in range(n):
        a.data[n + i][i] = Fraction(1)
        d.data[n + i][n - 1] = Fraction(coeffs[i])
        if i:
            d.data[n + i][i - 1] = Fraction(-1)
    return Representation(a, weights, weights, d)


@pytest.mark.parametrize(
    "coeffs,covered",
    [
        ((-2, 0), "cover 0 of the 2 dimensions"),  # x^2 - 2
        ((6, -2, -3), "cover 1 of the 3 dimensions"),  # (x - 3)(x^2 - 2)
    ],
    ids=["no-rational-root", "one-rational-root"],
)
def test_decompose_rejects_irrational_band_parameter(coeffs, covered):
    rep = _companion_module(coeffs)
    assert check_relations(rep)
    with pytest.raises(DecompositionError, match=f"rationality gap.*{covered}"):
        decompose(rep)


def test_decompose_names_the_pencil_no_shift_separates(monkeypatch):
    def bad_shift(alpha, delta, c):
        raise replab._BadShift

    monkeypatch.setattr(replab, "_kronecker_with_shift", bad_shift)
    with pytest.raises(DecompositionError, match=r"2 x 2 pencil: 9 shifts tried"):
        decompose(build(band(2, 1, '5/7')))


def test_decompose_rejects_non_module():
    bad = Representation(
        RatMatrix.identity(2),
        RatMatrix.identity(2),
        RatMatrix.identity(2),
        RatMatrix.identity(2),
    )
    with pytest.raises(DecompositionError):
        decompose(bad)


# -- braiding -----------------------------------------------------------------------


def test_braiding_examples():
    assert braiding_check(build(simple_one(0)), build(projective(1)))
    assert braiding_check(build(simple_two(0)), build(simple_two(1)))
    assert braiding_check(build(omega(1, 0)), build(band(1, 0, eta(2))))
    assert braiding_check(build(band(2, 0, '5/7')), build(omega(-1, 1)))
