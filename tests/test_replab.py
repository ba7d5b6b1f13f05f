import ast
import itertools
import re
from collections import Counter
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ETA_POOL, rat_matrices
from d4green import green, linalg, replab
from d4green.green import (
    ETA_INF,
    GreenElement,
    LabelKind,
    band,
    dual_label,
    eta,
    label_dimension,
    mul_labels,
    omega,
    projective,
    simple_one,
    simple_two,
)
from d4green.linalg import _ZERO, RatMatrix, span_basis
from d4green.verify import DEFAULT_ETAS, grid_labels
from d4green.replab import (
    DecompositionError,
    Representation,
    braiding_check,
    build,
    check_relations,
    decompose,
    direct_sum,
    dual,
    hom_space,
    is_isomorphic,
    loewy_length,
    projective_cover_map,
    radical_basis,
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


# F is faithful: the regular representation is 2 V(2, 0) + 2 V(2, 1) + P(0) + P(1),
# so every summand of it is a summand of F.  Then D(H4) acts faithfully on F and
# D(H4) (x) D(H4) on F (x) F, and an identity in either holds on every module
# once it holds on F or on F (x) F.
FAITHFUL = (projective(0), projective(1), simple_two(0), simple_two(1))


def faithful_module() -> Representation:
    return direct_sum([build(l) for l in FAITHFUL])


def test_coproduct_is_an_algebra_map():
    # Delta of each defining relation vanishes in D(H4) (x) D(H4) iff it does on F (x) F
    f = faithful_module()
    assert f.dim == 12
    assert check_relations(tensor(f, f))


def test_antipode_makes_the_dual_a_module():
    # S reverses products; the relations hold on F* iff S is an anti-algebra map
    assert check_relations(dual(faithful_module()))


def test_r_matrix_braids_the_faithful_module():
    # flip . R intertwines M (x) N and N (x) M for all modules iff it does for F (x) F
    f = faithful_module()
    assert braiding_check(f, f)


def regular_module() -> Representation:
    """D(H4) acting on itself by left multiplication, on the PBW basis a^i b^j c^k d^l, i, j, k, l in {0, 1}."""
    index = {word: t for t, word in enumerate(itertools.product((0, 1), repeat=4))}
    a, b, c, d = ({} for _ in range(4))  # {(row, column): coefficient}

    def add(gen, word, col, x):
        key = (index[word], col)
        gen[key] = gen.get(key, 0) + x

    for (i, j, k, l), col in index.items():
        # a^2 = 0; ba = -ab, b^2 = 1; ca = -ac, cb = bc, c^2 = 1
        if i == 0:
            add(a, (1, j, k, l), col, 1)
        add(b, (i, 1 - j, k, l), col, (-1) ** i)
        add(c, (i, j, 1 - k, l), col, (-1) ** i)
        # d b^j c^k = (-1)^(j + k) b^j c^k d, d^2 = 0, and da = 1 - bc - ad
        sign = (-1) ** (j + k)
        if i == 1:
            add(d, (0, j, k, l), col, 1)
            add(d, (0, 1 - j, 1 - k, l), col, -1)
        if l == 0:
            add(d, (i, j, k, 1), col, -sign if i else sign)
    return Representation(*(RatMatrix.from_entries(16, 16, gen) for gen in (a, b, c, d)))


def test_regular_representation_decomposes():
    # each indecomposable projective comes as often as the dimension of its simple top
    reg = regular_module()
    assert check_relations(reg) and check_relations(dual(reg))
    # b is a signed permutation, so the weight split takes joint kernels
    assert reg._weights().pmat is not None
    expected = [simple_two(0), simple_two(0), simple_two(1), simple_two(1), projective(0), projective(1)]
    assert decompose(reg) == sorted(expected)


# -- monoidal structure ----------------------------------------------------------


def _kron_formula(m, n):
    """The reference for tensor: Delta(a) = a (x) b + 1 (x) a and Delta(d) = d (x) c + 1 (x) d, formed densely."""
    ident = RatMatrix.identity(m.dim)
    return m.a.kron(n.b) + ident.kron(n.a), m.b.kron(n.b), m.c.kron(n.c), m.d.kron(n.c) + ident.kron(n.d)


def test_tensor_matches_coproduct_formula():
    labels = grid_labels(2, DEFAULT_ETAS)
    for m, n in itertools.product(map(build, labels), repeat=2):
        assert tensor(m, n) == Representation(*_kron_formula(m, n))


def test_tensor_grading_matches_the_split_of_the_dense_product():
    # a product's matrices, a view of its grading, are the Kronecker formula,
    # and the blocks it writes from its factors' blocks are the ones
    # _weight_split cuts from that formula, in the same order
    for l1, l2 in itertools.combinations_with_replacement(grid_labels(3, ETA_POOL), 2):
        m, n = build(l1), build(l2)
        product, dense = tensor(m, n), _kron_formula(m, n)
        assert product.generators() == dense
        grading, split = product._weights(), replab._weight_split(Representation(*dense))
        assert (grading.a, grading.d, grading.basis()) == (split.a, split.d, split.basis())


def _dense_dual(m):
    """The reference for dual: the antipode's matrices ((ba)^T, b^T, c^T, (cd)^T)."""
    return (m.b @ m.a).transpose(), m.b.transpose(), m.c.transpose(), (m.c @ m.d).transpose()


def _dense_sum(reps):
    """The reference for direct_sum: each generator block diagonal, the diagonal picked by position."""
    return tuple(
        RatMatrix.block([[r.generators()[k] if j == i else None for j in range(len(reps))] for i, r in enumerate(reps)])
        for k in range(4)
    )


def test_dual_and_direct_sum_match_their_dense_formulas():
    import random

    reps = [build(l) for l in grid_labels(3, ETA_POOL)]
    # a module in a random basis takes the pmat path of the view
    conj = _conjugate(direct_sum([build(l) for l in (omega(1, 0), projective(1), simple_two(0))]), random.Random(7))
    for rep in reps + [direct_sum(reps[:8]), conj]:
        assert dual(rep).generators() == _dense_dual(rep)
    assert dual(conj)._weights().pmat is not None
    for pieces in (reps[:8], [conj, build(omega(-1, 0)), conj], []):
        assert direct_sum(pieces).generators() == _dense_sum(pieces)


def test_reading_a_made_module_of_a_non_module_raises():
    # a keeps weight (1, 1): the grading of each made module raises the split's error
    bad = Representation(RatMatrix.from_rows([[0, 1], [1, 0]]), RatMatrix.identity(2), RatMatrix.identity(2),
                         RatMatrix.zeros(2, 2))
    for made in (tensor(bad, build(omega(1, 0))), dual(bad), direct_sum([bad])):
        with pytest.raises(DecompositionError, match="a does not send each"):
            made.a


def test_representation_is_immutable():
    rep = tensor(build(omega(1, 0)), build(simple_two(0)))
    for name in ("a", "dim", "_grading"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(rep, name, None)


def test_representation_survives_copy_and_pickle():
    import copy
    import pickle
    import random

    conj = _conjugate(build(omega(1, 0)), random.Random(2))
    for rep in (
        build(band(2, 0, '5/7')),
        tensor(build(omega(1, 0)), build(simple_two(0))),
        dual(build(omega(2, 1))),
        direct_sum([build(projective(0)), build(simple_two(1)), build(projective(0))]),
        tensor(conj, build(band(1, 1, ETA_INF))),
        syzygy(conj),
    ):
        for clone in (copy.copy(rep), copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
            assert clone == rep and decompose(clone) == decompose(rep)


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
    assert is_isomorphic(empty, empty)
    assert projective_cover_map(empty) == (empty, RatMatrix.zeros(0, 0))
    two = direct_sum([build(simple_one(0)), build(simple_one(1))])
    assert two.b == RatMatrix.diagonal([1, -1])
    doubled = direct_sum([build(projective(0)), build(projective(0))])
    assert decompose(doubled) == [projective(0), projective(0)]


def test_direct_sum_reads_a_generator_once():
    labels = [projective(0), simple_one(1)]
    made = direct_sum(build(l) for l in labels)
    assert made == direct_sum([build(l) for l in labels])
    assert made.a.rows == made.dim == 5
    assert decompose(made) == sorted(labels)


# -- hom spaces -------------------------------------------------------------------


def test_hom_space_dimensions():
    assert len(hom_space(build(simple_one(0)), build(simple_one(1)))) == 0
    assert len(hom_space(build(simple_one(0)), build(simple_one(0)))) == 1
    # End(P(0)) is two-dimensional: identity plus the top-to-socle map
    assert len(hom_space(build(projective(0)), build(projective(0)))) == 2


def test_hom_space_basis_intertwines():
    m, n = build(omega(1, 0)), build(projective(1))
    for f in hom_space(m, n):
        for xm, xn in zip(m.generators(), n.generators()):
            assert f @ xm == xn @ f


def _dense_hom_space(m, n):
    # the reference: the kernel of F x_M = x_N F stacked over all four generators, in dim M dim N unknowns
    nm, nn = m.dim, n.dim
    i_m, i_n = RatMatrix.identity(nm), RatMatrix.identity(nn)
    stacked = RatMatrix.block(
        [[i_m.kron(xn) - xm.transpose().kron(i_n)] for xm, xn in zip(m.generators(), n.generators())]
    )
    # column-major unvec: entry (i, j) of F sits at index j*nn + i
    return [
        RatMatrix.from_columns([vec[j * nn : (j + 1) * nn] for j in range(nm)], rows=nn)
        for vec in stacked.kernel_basis().columns()
    ]


def _hom_span(maps, m, n):
    # the reduced echelon basis of the span of the maps, each read column by column as one vector
    return span_basis(RatMatrix.from_columns([[x for col in f.columns() for x in col] for f in maps], rows=m.dim * n.dim))


def _assert_hom_matches_the_dense_formula(m, n):
    hom = hom_space(m, n)
    for f in hom:
        assert (f.rows, f.cols) == (n.dim, m.dim)
        assert all(f @ xm == xn @ f for xm, xn in zip(m.generators(), n.generators()))
    assert _hom_span(hom, m, n) == _hom_span(_dense_hom_space(m, n), m, n)


def test_hom_space_matches_the_dense_formula_on_the_grid():
    for l1, l2 in itertools.product(grid_labels(2, ETA_POOL), repeat=2):
        _assert_hom_matches_the_dense_formula(build(l1), build(l2))


def test_hom_space_matches_the_dense_formula_on_products_and_conjugates():
    import random

    rng = random.Random(5)
    product = tensor(build(omega(4, 0)), build(omega(-4, 0)))
    for label in (omega(4, 1), band(3, 0, '5/7')):
        _assert_hom_matches_the_dense_formula(build(label), product)
    pile = direct_sum([build(l) for l in (omega(1, 0), simple_two(1), band(1, 0, '5/7'))])
    for m, n in (
        (_conjugate(build(omega(1, 0)), rng), build(projective(1))),
        (build(projective(0)), _conjugate(build(projective(0)), rng)),
        (_conjugate(build(band(2, 0, '5/7')), rng), _conjugate(build(band(2, 0, '5/7')), rng)),
        (_conjugate(pile, rng), tensor(build(omega(1, 0)), _conjugate(build(simple_two(0)), rng))),
    ):
        _assert_hom_matches_the_dense_formula(m, n)
        _assert_hom_matches_the_dense_formula(n, m)


def test_hom_space_and_is_isomorphic_reject_a_non_module():
    # a keeps weight (1, 1); the dense system found one "intertwiner" of it
    bad = Representation(RatMatrix.from_rows([[0, 1], [1, 0]]), RatMatrix.identity(2), RatMatrix.identity(2),
                         RatMatrix.zeros(2, 2))
    module = build(simple_two(0))
    for call in (lambda: hom_space(bad, module), lambda: hom_space(module, bad), lambda: is_isomorphic(bad, module),
                 lambda: is_isomorphic(bad, bad)):
        with pytest.raises(DecompositionError, match="a does not send each"):
            call()


def test_is_isomorphic_on_a_conjugated_direct_sum():
    import random

    pieces = [omega(2, 0), band(2, 1, eta(2)), projective(0), simple_two(1)]
    rep = direct_sum([build(l) for l in pieces])
    assert rep.dim == 15
    conj = _conjugate(rep, random.Random(11))
    assert is_isomorphic(conj, rep) and is_isomorphic(rep, conj)
    for flip in range(len(pieces)):
        flipped = [l._replace(r=l.r ^ 1) if k == flip else l for k, l in enumerate(pieces)]
        assert not is_isomorphic(conj, direct_sum([build(l) for l in flipped]))


def test_hom_from_the_unit_into_a_product_is_hom_from_the_dual():
    # rigidity: Hom(V(0), M (x) N) = Hom(N*, M), and N* is the standard model of dual_label(N)
    def h(x, y):
        return len(hom_space(x, y))

    unit = build(simple_one(0))
    for l1, l2 in itertools.combinations_with_replacement(grid_labels(2, ETA_POOL), 2):
        m, n = build(l1), build(l2)
        assert h(unit, tensor(m, n)) == h(dual(n), m) == h(build(dual_label(l2)), m), (l1, l2)


def test_is_isomorphic_examples():
    assert is_isomorphic(build(projective(0)), build(projective(0)))
    assert not is_isomorphic(build(simple_one(0)), build(simple_one(1)))
    lhs = tensor(build(omega(1, 0)), build(omega(1, 0)))
    rhs = direct_sum([build(omega(2, 0)), build(projective(0))])
    assert is_isomorphic(lhs, rhs)
    assert not is_isomorphic(build(omega(1, 0)), build(omega(-1, 0)))
    assert not is_isomorphic(build(simple_one(0)), build(simple_two(0)))


def test_is_isomorphic_repeated_summands():
    def rep(*labels):
        return direct_sum([build(label) for label in labels])

    m1 = band(1, 0, eta(1))
    for label in (simple_one(0), projective(0)):
        assert is_isomorphic(rep(label, label), rep(label, label))
    assert is_isomorphic(rep(m1, m1, simple_one(0)), rep(simple_one(0), m1, m1))


def test_is_isomorphic_rank_certificate_comes_first(monkeypatch):
    def no_search(self):
        raise AssertionError("searched for an invertible intertwiner")

    monkeypatch.setattr(RatMatrix, "is_invertible", no_search)
    o1, o_1, v1 = build(omega(1, 0)), build(omega(-1, 0)), build(simple_one(1))
    assert not is_isomorphic(o1, o_1)
    assert not is_isomorphic(direct_sum([o1, v1]), direct_sum([o_1, v1]))


def test_is_isomorphic_raises_without_a_certificate(monkeypatch):
    # E11 and E21 jointly span both columns, yet every combination is singular
    basis = [RatMatrix.from_rows([[1, 0], [0, 0]]), RatMatrix.from_rows([[0, 0], [1, 0]])]
    monkeypatch.setattr(replab, "hom_space", lambda m, n: basis)
    with pytest.raises(RuntimeError, match="inconclusive"):
        is_isomorphic(build(simple_two(0)), build(simple_two(1)))


# -- radical series -----------------------------------------------------------------


def test_loewy_and_socle():
    p = build(projective(0))
    assert loewy_length(p) == 3
    assert socle_basis(p).cols == 1
    assert loewy_length(build(simple_two(1))) == 1
    m = build(band(2, 0, 1))
    assert radical_basis(m).cols == 2
    assert socle_basis(m).cols == 2
    assert loewy_length(build(simple_one(0))) == 1
    assert loewy_length(direct_sum([])) == 0


def test_radical_of_projective_simple_is_zero():
    # the two-dimensional simples are killed by the radical even though
    # a and d act nontrivially on them
    t = build(simple_two(0))
    assert radical_basis(t) == RatMatrix.zeros(2, 0)
    assert socle_basis(t).cols == 2


def test_loewy_length_rejects_a_non_module_whose_radical_series_stalls():
    # a swaps the two weights of the bc = +1 part, so JM = M and no power of J
    # would kill M; a^2 = 1 here, and the grading's check says so first
    b = RatMatrix.diagonal([1, -1])
    rep = Representation(RatMatrix.from_rows([[0, 1], [1, 0]]), b, b.copy(), RatMatrix.zeros(2, 2))
    with pytest.raises(DecompositionError, match=r"^a\^2 = 0 fails on side 0 of the bc = \+1 part$"):
        loewy_length(rep)


def _iterated_loewy_length(rep):
    """The reference for loewy_length: the radical series J^(k+1) M = J (J^k M), taken until it vanishes."""
    if rep.dim == 0:
        return 0
    plus = rep._weights().plus
    layer, k = replab._radical(plus), 1
    while any(side.cols for side in layer):
        layer = [span_basis(RatMatrix.block([[x[1 - p] @ layer[1 - p] for x in plus]])) for p in (0, 1)]
        k += 1
    return k


def test_loewy_length_matches_the_iterated_radical_series():
    import random

    rng = random.Random(19)
    labels = grid_labels(3, ETA_POOL)
    reps = [build(l) for l in labels] + [direct_sum([])]
    pairs = itertools.combinations_with_replacement(grid_labels(2, ETA_POOL), 2)
    reps += [tensor(build(l1), build(l2)) for l1, l2 in pairs]
    reps += [_conjugate(build(rng.choice(labels)), rng) for _ in range(30)]
    lengths = [loewy_length(rep) for rep in reps]
    assert lengths == [_iterated_loewy_length(rep) for rep in reps]
    assert set(lengths) == {0, 1, 2, 3}


def test_syzygy_parity_facts():
    for r in (0, 1):
        for s in range(-3, 4):
            rep = build(omega(s, r))
            soc = socle_basis(rep)
            jm = radical_basis(rep)
            assert soc.cols == abs(s) + (s <= 0)
            assert rep.dim - jm.cols == abs(s) + (s >= 0)
            sign = (-1) ** ((s + r + (s > 0)) % 2)
            assert rep.b @ soc == soc.scale(sign)


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
    assert is_isomorphic(dual(syzygy(dual(build(band(2, 1, eta(2)))))), build(band(2, 0, eta(2))))
    for s in (1, 2):
        for r in (0, 1):
            assert is_isomorphic(syzygy(build(omega(s, r))), build(omega(s + 1, r)))


@pytest.mark.parametrize("label", [simple_one(0), omega(1, 1), omega(-2, 0), band(2, 0, '5/7')])
def test_cosyzygy_inverts_syzygy(label):
    rep = build(label)
    assert is_isomorphic(dual(syzygy(dual(syzygy(rep)))), rep)


def _omega_label(label, k):
    """Omega^k of a non-projective label, k = 1 or -1: O^s V(r) -> O^(s+k) V(r), M_s(r, eta) -> M_s(r+1, eta)."""
    if label.kind is LabelKind.BAND:
        return band(label.s, label.r + 1, label.eta)
    return omega((-label.s if label.kind is LabelKind.COSYZYGY else label.s) + k, label.r)


def _non_projective(labels):
    return [l for l in labels if l.kind not in (LabelKind.SIMPLE_TWO, LabelKind.PROJECTIVE)]


def test_syzygy_of_each_string_is_the_next_string():
    # syzygy reaches O^(s+1) V(r) as the kernel of its cover's blocks, weight
    # by weight; build writes the same module down as a zigzag
    for s in range(-3, 4):
        for r in (0, 1):
            assert is_isomorphic(syzygy(build(omega(s, r))), build(omega(s + 1, r)))


def test_syzygy_and_cosyzygy_shift_every_label():
    labels = _non_projective(grid_labels(3, (eta(0), eta('5/7'), ETA_INF)))
    assert len(labels) == 32
    for label in labels:
        assert decompose(syzygy(build(label))) == [_omega_label(label, 1)]
        assert decompose(dual(syzygy(dual(build(label))))) == [_omega_label(label, -1)]


def _dense_projective_cover_map(rep):
    """The cover map from the dense columns (u, au, du, adu) and (w, aw) in rep's own basis: the reference."""
    n = rep.dim
    grading = rep._weights()
    plus, minus, basis = grading.plus, grading.minus, grading.basis()
    pieces, columns = [], []
    for p, side in enumerate(replab._radical(plus)):
        _, top = linalg.quotient_maps(side)
        au, du = (x[p].take(range(plus.dims[1 - p]), top) for x in plus)
        images = (
            basis[p].take(range(n), top),
            basis[1 - p] @ au,
            basis[1 - p] @ du,
            basis[p] @ (plus.a[1 - p] @ du),
        )
        for j in range(len(top)):
            pieces.append(build(projective(p)))
            columns.extend(m.column(j) for m in images)
    for r in (0, 1):
        w = minus.d[r].kernel_basis()
        images = (basis[2 + r] @ w, basis[3 - r] @ (minus.a[r] @ w))
        for j in range(w.cols):
            pieces.append(build(simple_two(r)))
            columns.extend(m.column(j) for m in images)
    cover = direct_sum(pieces)
    phi = RatMatrix.from_columns(columns, rows=n)
    assert all(phi @ xc == xm @ phi for xc, xm in zip(cover.generators(), rep.generators()))
    assert phi.rank() == n
    return cover, phi


def _dense_syzygy(rep):
    """The kernel of the dense cover map, with the cover's dense generators restricted to it: the reference."""
    cover, phi = _dense_projective_cover_map(rep)
    kernel = phi.kernel_basis()
    return Representation(*(linalg.restrict_to_invariant(x, kernel) for x in cover.generators()))


def test_cover_and_syzygy_match_the_dense_reference():
    import random

    rng = random.Random(17)
    reps = [build(l) for l in grid_labels(2, DEFAULT_ETAS)]
    pieces = [omega(2, 1), simple_two(0), band(1, 0, '5/7'), projective(1), simple_one(0)]
    reps += [_conjugate(build(l), rng) for l in pieces] + [_conjugate(direct_sum([build(l) for l in pieces]), rng)]
    reps += [tensor(_conjugate(build(omega(1, 0)), rng), build(omega(-1, 1)))]
    for rep in reps:
        cover, phi = projective_cover_map(rep)
        assert (cover, phi) == _dense_projective_cover_map(rep)
        assert is_isomorphic(syzygy(rep), _dense_syzygy(rep))


def test_cover_raises_on_a_cover_that_is_not_a_module_map(monkeypatch):
    # a cover whose a blocks are doubled keeps its weights, but phi no longer intertwines a
    import random

    real = replab.direct_sum

    def doubled(reps):
        g = real(reps)._weights()
        return replab._made(sum(map(len, g.groups)), replab._Grading, [x.scale(2) for x in g.a], g.d, g.groups, None)

    monkeypatch.setattr(replab, "direct_sum", doubled)
    for rep in (build(omega(1, 0)), _conjugate(build(band(1, 1, '5/7')), random.Random(3))):
        for made in (projective_cover_map, syzygy):
            with pytest.raises(DecompositionError, match="^projective cover map is not a module map$"):
                made(rep)


def test_cover_raises_on_a_cover_that_misses_part_of_the_top(monkeypatch):
    # dropping one top vector leaves a module map from the smaller cover, onto less than the module
    def short(sub):
        proj, free = linalg.quotient_maps(sub)
        return proj, free[:-1]

    monkeypatch.setattr(replab, "quotient_maps", short)
    for rep in (build(omega(1, 0)), direct_sum([build(simple_one(0)), build(simple_two(1))])):
        for made in (projective_cover_map, syzygy):
            with pytest.raises(DecompositionError, match="^projective cover map is not surjective$"):
                made(rep)


def test_table_tensors_with_omega_one_shift_every_label():
    # up to projective summands, O^1 V(0) (x) L is Omega(L) and O^-1 V(0) (x) L is
    # Omega^-1(L); the table side only, so C16 and C17 are checked without decompose
    def stable(element):
        return _non_projective(expand(element))

    labels = _non_projective(grid_labels(4, ETA_POOL))
    assert len(labels) == 58
    for label in labels:
        assert stable(mul_labels(omega(1, 0), label)) == [_omega_label(label, 1)]
        assert stable(mul_labels(omega(-1, 0), label)) == [_omega_label(label, -1)]


# -- band parameters ---------------------------------------------------------------


def test_decompose_band_parameter():
    for label in (band(1, 0, eta('5/7')), band(3, 1, ETA_INF), band(2, 0, eta(-2)), band(4, 1, eta('1/3'))):
        assert decompose(build(label)) == [label]


def test_decompose_band_parameter_full_grid():
    for s in range(1, 5):
        for r in (0, 1):
            for e in (eta(0), eta(1), eta(-2), eta('5/7'), ETA_INF):
                assert decompose(build(band(s, r, e))) == [band(s, r, e)]


@given(rat_matrices(max_dim=5, square=True))
@settings(max_examples=60)
def test_charpoly_matches_determinants(mat):
    # _charpoly takes integer matrices: scale by the lcm L of the denominators.
    # m + 1 values of det(xI - L mat) fix a polynomial of degree m
    scale = lcm(*(x.denominator for x in mat.entries().values()))
    lmat = mat.scale(scale)
    poly = replab._charpoly(lmat)
    m = mat.rows
    assert len(poly) == m + 1 and poly[-1] == 1
    assert all(type(c) is int for c in poly)
    for x in range(m + 1):
        value = 0
        for c in reversed(poly):
            value = value * x + c
        assert value == (RatMatrix.identity(m).scale(x) - lmat).det()


def _jordan_sum(blocks):
    """The direct sum of Jordan blocks (size, eigenvalue), as a dict of entries, and its dimension."""
    entries, m = {}, 0
    for size, lam in blocks:
        entries.update({(m + i, m + i): lam for i in range(size)})
        entries.update({(m + i, m + i + 1): 1 for i in range(size - 1)})
        m += size
    return entries, m


EIGEN_POOL = [Fraction(x) for x in (0, 1, -1, "210/221", "-210/221", "221/210", 1000003 * 1000033)]


@st.composite
def conjugated_jordan_sums(draw):
    """A direct sum of Jordan blocks of sizes 1-3, at most 6 rows, in a random unimodular integer basis."""
    blocks = []
    for size, lam in draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(EIGEN_POOL)), min_size=1)):
        if sum(s for s, _ in blocks) + size > 6:
            break
        blocks.append((size, lam))
    entries, m = _jordan_sum(blocks)
    p = RatMatrix.identity(m)
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if i != j:
            # add t times row j to row i: an elementary integer matrix of determinant 1
            p = RatMatrix.from_entries(m, m, {(k, k): 1 for k in range(m)} | {(i, j): draw(st.integers(-2, 2))}) @ p
    return p @ RatMatrix.from_entries(m, m, entries) @ p.solve_matrix(RatMatrix.identity(m)), blocks


@given(conjugated_jordan_sums())
@settings(max_examples=60, deadline=None)
def test_rational_eigen_blocks_recover_the_jordan_data(case):
    phi, blocks = case
    expected = {}
    for size, lam in blocks:
        expected.setdefault(lam, []).append(size)
    assert replab._rational_eigen_blocks(phi) == [(lam, sorted(sizes)) for lam, sizes in sorted(expected.items())]


@pytest.mark.parametrize("rational", [[], [(1, Fraction(5, 7))], [(2, Fraction(210, 221))]], ids=["alone", "5/7", "jordan"])
@pytest.mark.parametrize("companion", [{(0, 1): 2, (1, 0): 1}, {(0, 1): -1, (1, 0): 1}], ids=["x^2-2", "x^2+1"])
def test_rational_eigen_blocks_reject_an_irrational_companion(companion, rational):
    entries, m = _jordan_sum(rational)
    phi = RatMatrix.from_entries(m + 2, m + 2, entries | {(m + i, m + j): x for (i, j), x in companion.items()})
    with pytest.raises(DecompositionError, match=f"rationality gap.*cover {m} of the {m + 2} dimensions"):
        replab._rational_eigen_blocks(phi)


@given(st.lists(st.integers(-10**6, 10**12), unique=True, max_size=5), st.booleans())
@settings(max_examples=100, deadline=None)
def test_integer_roots_are_exactly_the_integer_roots(roots, with_unit_circle):
    assume(roots or with_unit_circle)
    poly = [1]
    for r in roots:
        poly = [x - r * y for x, y in zip([0] + poly, poly + [0])]
    if with_unit_circle:
        poly = [x + y for x, y in zip([0, 0] + poly, poly + [0, 0])]
    assert sorted(replab._integer_roots(poly)) == sorted(roots)


def _euclid_squarefree(poly):
    """p / gcd(p, p') by Euclid over Q, made monic: the reference for _squarefree."""

    def divmod_q(num, den):
        rem, quo = [Fraction(c) for c in num], [Fraction(0)] * (len(num) - len(den) + 1)
        for shift in reversed(range(len(quo))):
            q = quo[shift] = rem[shift + len(den) - 1] / den[-1]
            for i, c in enumerate(den):
                rem[shift + i] -= q * c
        rem = rem[: len(den) - 1]
        while rem and not rem[-1]:
            rem.pop()
        return quo, rem

    a, b = poly, [i * c for i, c in enumerate(poly)][1:]
    while b:
        a, b = b, divmod_q(a, b)[1]
    free = divmod_q(poly, a)[0]
    return [c / free[-1] for c in free]


@given(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 4)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 5), st.integers(1, 3)), max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_squarefree_matches_euclid_over_q(linear, quadratic):
    # monic integer p with repeated linear factors (x - r)^k and quadratic ones (x^2 + bx + c)^k
    poly = [1]
    for r, k in linear:
        for _ in range(k):
            poly = [x - r * y for x, y in zip([0] + poly, poly + [0])]
    for b, c, k in quadratic:
        for _ in range(k):
            poly = [x + b * y + c * z for x, y, z in zip([0, 0] + poly, [0] + poly + [0], poly + [0, 0])]
    free = replab._squarefree(poly)
    assert all(type(c) is int for c in free) and free[-1] == 1
    assert free == _euclid_squarefree(poly)


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
    pinv = p.solve_matrix(RatMatrix.identity(n))
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
        projective(1),
        simple_two(1),
        simple_one(0),
        band(2, 0, ETA_INF),
    ]
    rep = direct_sum([build(l) for l in pieces])
    # an upper unitriangular basis change keeps the diagonals of b and c
    n = rep.dim
    shear = RatMatrix.from_rows([[int(i <= j) for j in range(n)] for i in range(n)])
    sheared = Representation(*(shear @ x @ shear.solve_matrix(RatMatrix.identity(n)) for x in rep.generators()))
    for conj in (_conjugate(rep, rng), sheared):
        assert decompose(conj) == sorted(pieces)


def test_recover_eta_is_basis_independent():
    # the band parameter eta that decompose reads off the pencil does not
    # depend on the basis the band is given in
    import random

    rng = random.Random(13)
    for s, r, e in ((1, 0, eta('5/7')), (2, 1, ETA_INF), (3, 0, eta(-2)), (2, 0, eta(0))):
        [label] = decompose(_conjugate(build(band(s, r, e)), rng))
        assert label == band(s, r, e)
        assert label.eta == e


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


def _split_with_basis(rep):
    """The two parts of _weight_split and the matrix of each weight's basis vectors."""
    grading = replab._weight_split(rep)
    return grading.plus, grading.minus, grading.basis()


def _joint_eigenbasis(rep):
    """rep rewritten as P^-1 x P in the basis P of joint eigenvectors of b and c, listed by weight, and P.

    The reference for _weight_split: raises its DecompositionError when the
    joint kernels do not fill the module.
    """
    n = rep.dim
    spaces = [
        RatMatrix.block([[rep.b.shift(-beta)], [rep.c.shift(-gamma)]]).kernel_basis() for beta, gamma in replab._WEIGHTS
    ]
    dims = [space.cols for space in spaces]
    if sum(dims) != n:
        raise DecompositionError(
            "b and c are not commuting involutions; defining relations fail: (b, c) weight-space "
            f"dimensions {dict(zip(replab._WEIGHTS, dims))} sum to {sum(dims)}, not n = {n}"
        )
    pmat = RatMatrix.block([spaces])
    pinv = pmat.solve_matrix(RatMatrix.identity(n))
    b, c = (RatMatrix.diagonal([w[k] for w, dim in zip(replab._WEIGHTS, dims) for _ in range(dim)]) for k in (0, 1))
    return Representation(pinv @ rep.a @ pmat, b, c, pinv @ rep.d @ pmat), pmat


def test_weight_read_off_matches_joint_eigenbasis_rewrite():
    labels = grid_labels(2, DEFAULT_ETAS)
    reps = [build(l) for l in grid_labels(3, DEFAULT_ETAS)]
    reps += [tensor(build(l1), build(l2)) for l1, l2 in itertools.product(labels, repeat=2)]
    for rep in reps:
        plus, minus, basis = _split_with_basis(rep)
        rewritten, pmat = _joint_eigenbasis(rep)
        r_plus, r_minus, r_basis = _split_with_basis(rewritten)
        assert (r_plus, r_minus) == (plus, minus)
        assert [pmat @ m for m in r_basis] == basis


def _dense_weight_split(rep):
    """The weight split by a dense scan of every entry: the reference for _weight_split."""
    n = rep.dim
    nonzeros = lambda data: [[(j, x) for j, x in enumerate(row) if x is not _ZERO and x] for row in data]
    groups = [[i for i in range(n) if (rep.b.data[i][i], rep.c.data[i][i]) == w] for w in replab._WEIGHTS]
    off_diagonal = any(j != i for m in (rep.b, rep.c) for i, row in enumerate(nonzeros(m.data)) for j, _ in row)
    if off_diagonal or sum(map(len, groups)) != n:
        rewritten, pmat = _joint_eigenbasis(rep)
        plus, minus, basis = _dense_weight_split(rewritten)
        return plus, minus, [pmat @ m for m in basis]
    weight = {i: w for w, group in enumerate(groups) for i in group}
    blocks = []
    for name, rows in (("a", rep.a.data), ("d", rep.d.data)):
        kept = [weight[j] for i, row in enumerate(nonzeros(rows)) for j, _ in row if weight[i] != weight[j] ^ 1]
        if kept:
            raise DecompositionError(
                f"{name} does not send each (b, c) weight to its negative: "
                f"it sends part of weight {replab._WEIGHTS[min(kept)]} outside weight {replab._WEIGHTS[min(kept) ^ 1]}"
            )
        blocks.append([
            RatMatrix(len(groups[w ^ 1]), len(cols), [[rows[i][j] for j in cols] for i in groups[w ^ 1]])
            for w, cols in enumerate(groups)
        ])
    a, d = blocks
    basis = [RatMatrix.zeros(n, len(group)) for group in groups]
    for m, group in zip(basis, groups):
        for j, i in enumerate(group):
            m.data[i][j] = Fraction(1)
    return replab._Graded((a[0], a[1]), (d[0], d[1])), replab._Graded((a[2], a[3]), (d[2], d[3])), basis


@st.composite
def weight_diagonal_modules(draw):
    """b, c diagonal in the weights, a and d between paired weights, then perturbed.

    The perturbations: up to two a/d entries set at random places (most of
    them keep a weight or move it to a third one), zeros that are fresh
    Fraction(0) objects rather than the shared zero, and a random change of
    basis, which sends the module down the split's joint-kernel route.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    weight = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    entry = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
    a, d = (
        [[draw(entry) if weight[i] == weight[j] ^ 1 else 0 for j in range(n)] for i in range(n)] for _ in "ad"
    )
    for rows in draw(st.lists(st.sampled_from([a, d]), max_size=2)):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from([1, -3]))
    b = RatMatrix.diagonal([replab._WEIGHTS[w][0] for w in weight])
    c = RatMatrix.diagonal([replab._WEIGHTS[w][1] for w in weight])
    rep = Representation(RatMatrix.from_rows(a), b, c, RatMatrix.from_rows(d))
    if draw(st.booleans()):
        fresh = lambda m: RatMatrix(m.rows, m.cols, [[x if x else Fraction(0) for x in row] for row in m.data])
        rep = Representation(*map(fresh, rep.generators()))
    if draw(st.booleans()):
        import random

        rep = _conjugate(rep, random.Random(draw(st.integers(0, 2**16))))
    return rep


def _split_or_error(split, rep):
    try:
        return split(rep)
    except DecompositionError as exc:
        return str(exc)


@given(weight_diagonal_modules())
@settings(max_examples=150, deadline=None)
def test_weight_split_matches_the_dense_scan(rep):
    assert _split_or_error(_split_with_basis, rep) == _split_or_error(_dense_weight_split, rep)


def test_made_modules_are_graded_without_a_split(monkeypatch):
    # every standard model, its dual, a direct sum, a product and a syzygy (and
    # a cosyzygy) is made from gradings in its own basis: none is split, and
    # none gets a pmat
    def split(rep):
        raise AssertionError("a made module was split")

    monkeypatch.setattr(replab, "_weight_split", split)
    replab._build_cached.cache_clear()
    try:
        reps = [build(l) for l in grid_labels(3, DEFAULT_ETAS)]
        reps += [dual(rep) for rep in reps] + [direct_sum(reps[:6])]
        labels = grid_labels(2, DEFAULT_ETAS)
        reps += [tensor(build(l1), build(l2)) for l1, l2 in itertools.product(labels, repeat=2)]
        for label in _non_projective(grid_labels(3, DEFAULT_ETAS)):
            reps += [syzygy(build(label)), dual(syzygy(dual(build(label))))]
        assert all(rep._weights().pmat is None for rep in reps)
    finally:
        replab._build_cached.cache_clear()


def test_src_never_gives_matrices_to_a_representation():
    # every module that src/ makes, a syzygy included, is made from a grading;
    # only a caller gives a Representation its matrices
    callers = [
        (path.name, top.name)
        for path in sorted(Path(replab.__file__).parent.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Representation"
    ]
    assert callers == []


def test_replab_never_touches_the_row_layout_of_linalg():
    # replab builds, stacks and cuts matrices through RatMatrix methods, so
    # the row layout and the zero rule can change inside linalg alone
    tree = ast.parse(Path(replab.__file__).read_text())
    data = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "data"]
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert data == [], f"replab reads .data on lines {data}"
    assert private == [], f"replab imports private names {private} from linalg"


def test_linalg_functions_never_touch_the_row_layout():
    # outside RatMatrix's methods only the elimination core, which takes raw
    # row lists, knows the layout; the subspace helpers compose methods
    tree = ast.parse(Path(linalg.__file__).read_text())
    readers = sorted(
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        and any(isinstance(node, ast.Attribute) and node.attr == "data" for node in ast.walk(func))
    )
    assert readers == [], f"module-level functions of linalg read .data: {readers}"


@pytest.mark.parametrize("path", sorted(Path(replab.__file__).parent.glob("*.py")), ids=lambda path: path.name)
def test_package_imports_no_unused_name(path):
    # no linter runs on the package, so a name a deletion leaves imported is caught here
    tree = ast.parse(path.read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = [name for name in imported if name not in read | exported]
    assert unused == [], f"{path.name} imports {unused} and never reads them"


def test_package_defines_no_unread_private_name():
    # a private helper that a deletion leaves without a reader is caught here
    trees = [ast.parse(path.read_text()) for path in Path(replab.__file__).parent.glob("*.py")]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }

    def module_level(tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from (t.id for t in ast.walk(node) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store))

    private = {name for tree in trees for name in module_level(tree) if name.startswith("_") and not name.startswith("__")}
    unread = sorted(private - read)
    assert private and unread == [], f"private names defined and never read: {unread}"


# Definitions in src/ that nothing in src/ reads, and why each stays.
READ_FROM_OUTSIDE_SRC = {
    "check_relations": "documented API (README)",
    "is_isomorphic": "documented API (README)",
    "radical_basis": "documented API (README)",
    "socle_basis": "documented API (README)",
    "loewy_length": "documented API (README)",
    "syzygy": "documented API (README); bench/layers.py wraps it",
    "projective_cover_map": "documented API (README): the cover map in the module's own basis",
    "restrict_to_invariant": "bench/layers.py wraps it",
    "RatMatrix.apply": "bench/layers.py wraps it",
    "RatMatrix.copy": "bench/layers.py wraps it",
    "RatMatrix.det": "bench/layers.py wraps it",
    "express_in_basis": "bench/layers.py wraps it",
    "BasisTuple._make": "namedtuple's _replace calls it",
    "__all__": "read by 'from d4green import *'",
    "__version__": "package metadata",
}


def test_package_defines_no_unread_name():
    # every module-level function, class and assigned name, and every method
    # but the dunders, is read somewhere in src/ or listed above with its reason
    trees = [ast.parse(path.read_text()) for path in Path(replab.__file__).parent.glob("*.py")]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    defined = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        if isinstance(node, ast.ClassDef):
            methods = (m.name for m in node.body if isinstance(m, ast.FunctionDef))
            defined += (f"{node.name}.{name}" for name in methods if not re.fullmatch(r"__\w+__", name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += (t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    unread = sorted(name for name in defined if name.split(".")[-1] not in read)
    assert unread == sorted(READ_FROM_OUTSIDE_SRC)


def test_build_runs_no_elimination(monkeypatch):
    # every label's model is written down: no kernel, rank or syzygy behind it
    def eliminate(*args):
        raise AssertionError("build ran an elimination")

    monkeypatch.setattr(linalg, "_rref_inplace", eliminate)
    monkeypatch.setattr(replab, "syzygy", eliminate)
    replab._build_cached.cache_clear()
    try:
        reps = [build(label) for label in grid_labels(8, ETA_POOL)]
    finally:
        replab._build_cached.cache_clear()
    assert len(reps) == 118
    assert all(map(check_relations, reps))


def test_projectives_split_off_before_the_pencil(monkeypatch):
    seen = []
    ll2 = replab._ll2_labels

    def spy(part):
        seen.append(part.dims)
        return ll2(part)

    monkeypatch.setattr(replab, "_ll2_labels", spy)
    for s in range(2, 8):
        l1, l2 = omega(s, 0), omega(-s, 0)
        assert decompose(tensor(build(l1), build(l2))) == expand(mul_labels(l1, l2))
    # s(s + 1) P(1) + V(0): the projectives fill side 1, so the V(0) left on side 0 never reaches the pencil
    assert seen == []
    l1, l2 = omega(3, 0), omega(-2, 0)
    assert decompose(tensor(build(l1), build(l2))) == expand(mul_labels(l1, l2))
    # 8 P(0) + O^1 V(0): the quotient keeps both sides, so only its three dimensions reach the pencil
    assert seen == [(1, 2)]


def _full_span_core(part, quotient_maps=linalg.quotient_maps):
    """The quotient of a bc = +1 part by its projectives as it was first taken: one elimination of the
    whole span per side, with no vector peeled off first; the part itself when it has no projectives.
    With quotient_maps=_peeled it is the peeled quotient, the span's vectors in the same order."""
    sq = [part.a[1 - p] @ part.d[p] for p in (0, 1)]
    tops = [() if m.is_zero() else m.rref()[1] for m in sq]
    if not any(tops):
        return part
    span = []
    for p, n in enumerate(part.dims):
        units = RatMatrix.from_entries(n, len(tops[p]), {(t, j): 1 for j, t in enumerate(tops[p])})
        own = [units, sq[p].take(range(n), tops[p])]
        span.append(RatMatrix.block([own + [x[1 - p].take(range(n), tops[1 - p]) for x in part]]))
    proj, free = zip(*map(quotient_maps, span))
    return replab._Graded(*(tuple(proj[1 - p] @ x[p].take(range(x[p].rows), free[p]) for p in (0, 1)) for x in part))


def _assert_core_is_the_full_span_quotient(rep, monkeypatch):
    """The core that reaches the pencil has the same a and d blocks, shapes included, as _full_span_core."""
    part = rep._weights().plus
    cores = []
    monkeypatch.setattr(replab, "_ll2_labels", lambda core: cores.append(core) or [])
    replab._one_dim_type_labels(part)
    reference = _full_span_core(part)
    for core in cores:  # none when the projectives fill a side
        for mine, theirs in zip(core.a + core.d, reference.a + reference.d):
            assert (mine.rows, mine.cols) == (theirs.rows, theirs.cols) and mine == theirs


def test_peeled_core_matches_the_full_span_quotient(monkeypatch):
    import random

    labels = grid_labels(3, ETA_POOL)
    for l1, l2 in itertools.combinations_with_replacement(labels, 2):
        _assert_core_is_the_full_span_quotient(tensor(build(l1), build(l2)), monkeypatch)
    rng = random.Random(5)
    pieces = [projective(0), projective(1), omega(2, 1), omega(-1, 0), band(2, 0, '1/2'), simple_one(1)]
    for chosen in (pieces, pieces[:3], [projective(0), omega(3, 0), omega(-3, 0)]):
        _assert_core_is_the_full_span_quotient(_conjugate(direct_sum([build(l) for l in chosen]), rng), monkeypatch)
    big = tensor(_conjugate(build(omega(1, 0)), rng), build(omega(-2, 1)))
    _assert_core_is_the_full_span_quotient(big, monkeypatch)


def _peeled(sub):
    """_peeled_quotient_maps on the columns of sub, read as {coordinate: entry} dicts."""
    cols = [{} for _ in range(sub.cols)]
    for (i, j), x in sub.entries().items():
        cols[j][i] = x
    return replab._peeled_quotient_maps(sub.rows, cols)


def test_peeling_hands_only_the_cycle_to_the_elimination(monkeypatch):
    # e0 + e1, e1 + e2, e0 + e2 have no coordinate of their own, so peeling e3 stops there: the three go
    # to the elimination on coordinates 0, 1, 2 and 4, and e3 + e5 loses e3, so coordinate 5 is peeled too
    cols = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {3: 1}, {3: 2, 5: -1}]
    sub = RatMatrix.from_entries(6, len(cols), {(i, j): x for j, col in enumerate(cols) for i, x in col.items()})
    seen = []
    monkeypatch.setattr(replab, "quotient_maps", lambda m: seen.append(m) or linalg.quotient_maps(m))
    proj, free = _peeled(sub)
    assert (proj, free) == linalg.quotient_maps(sub)
    assert seen == [RatMatrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 0]])]
    assert free == [4] and proj == RatMatrix.from_entries(1, 6, {(0, 4): 1})
    # a chain without a cycle: the peeled coordinates 3 and 5 are 0 in proj, the kept ones are not
    cols = [{0: 1, 1: 1}, {1: 1, 2: 1}, {3: 1}, {3: 2, 5: -1}]
    sub = RatMatrix.from_entries(6, len(cols), {(i, j): x for j, col in enumerate(cols) for i, x in col.items()})
    proj, free = _peeled(sub)
    assert (proj, free) == linalg.quotient_maps(sub)
    assert free == [2, 4] and proj == RatMatrix.from_entries(2, 6, {(0, 0): 1, (0, 1): -1, (0, 2): 1, (1, 4): 1})


@st.composite
def sparse_spans(draw):
    """Column sets with few nonzeros each, so that peeling meets singletons, chains and cycles."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)), st.sampled_from([1, -1, 2]))
    entries = draw(st.lists(entry, max_size=2 * cols)) if rows and cols else []
    return RatMatrix.from_entries(rows, cols, {(i, j): x for i, j, x in entries})


@given(sparse_spans())
@settings(max_examples=300, deadline=None)
def test_peeled_quotient_maps_is_quotient_maps(sub):
    assert _peeled(sub) == linalg.quotient_maps(sub)


def _pencil_labels(part):
    """The labels of a bc = +1 part as they were taken before the stop at a filled side: the projectives,
    then the pencil on the peeled quotient by them, even when that quotient has an empty side."""
    sq = [part.a[1 - p] @ part.d[p] for p in (0, 1)]
    tops = [() if m.is_zero() else m.rref()[1] for m in sq]
    projectives = [projective(0)] * len(tops[0]) + [projective(1)] * len(tops[1])
    if part.dims == (2 * len(projectives),) * 2:
        return projectives
    return replab._ll2_labels(_full_span_core(part, _peeled)) + projectives


def _stop_matches_the_pencil(rep):
    """Whether the bc = +1 part of rep stops before the pencil; where it does, its labels are the pencil's."""
    part = rep._weights().plus
    cores = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(replab, "_ll2_labels", lambda core: cores.append(core) or [])
        labels = replab._one_dim_type_labels(part)
    if cores:
        return False
    assert sorted(labels) == sorted(_pencil_labels(part))
    return True


def test_the_stop_at_a_filled_side_gives_the_pencils_labels():
    import random

    pairs = list(itertools.combinations_with_replacement(grid_labels(4, ETA_POOL), 2))
    assert sum(_stop_matches_the_pencil(tensor(build(l1), build(l2))) for l1, l2 in pairs) == 901
    rng = random.Random(11)
    for s in (1, 2, 3):
        assert _stop_matches_the_pencil(_conjugate(tensor(build(omega(s, 0)), build(omega(-s, 0))), rng))
    assert _stop_matches_the_pencil(tensor(_conjugate(build(omega(3, 1)), rng), build(omega(-3, 0))))
    # what is left lies on side 1 (V(1)) or on side 0 (V(0)), as the table says
    for l1, l2, left in [
        *((omega(s, 1), omega(-s, 0), simple_one(1)) for s in (1, 2, 3)),
        *((omega(-s, 0), omega(s, 0), simple_one(0)) for s in (1, 2, 3)),
        (simple_one(0), simple_one(1), simple_one(1)),
    ]:
        rep = tensor(build(l1), build(l2))
        assert _stop_matches_the_pencil(rep), (l1, l2)
        labels = decompose(rep)
        assert labels == expand(mul_labels(l1, l2)) and left in labels


def test_a_product_of_projectives_never_reaches_the_pencil(monkeypatch):
    calls = []
    ll2 = replab._ll2_labels

    def spy(part):
        calls.append(part.dims)
        return ll2(part)

    monkeypatch.setattr(replab, "_ll2_labels", spy)
    labels = grid_labels(2, ETA_POOL)
    projectives = {LabelKind.SIMPLE_TWO, LabelKind.PROJECTIVE}
    one_sided = 0
    for l1, l2 in itertools.combinations_with_replacement(labels, 2):
        calls.clear()
        expected = expand(mul_labels(l1, l2))
        assert decompose(tensor(build(l1), build(l2))) == expected
        # what the projectives leave has an empty side when it is no summand or copies of one V(r)
        rest = {l for l in expected if l.kind not in projectives}
        if rest <= {simple_one(0)} or rest <= {simple_one(1)}:
            one_sided += 1
            assert calls == [], (l1, l2)
        else:
            assert len(calls) == 1, (l1, l2)
    # the 290 wholly projective pairs (a P(r) or V(2, r) factor, or two bands at distinct η),
    # and 11 that leave copies of one V(r), such as O^s V(r) ⊗ O^-s V(r') and V(r) ⊗ V(r')
    assert one_sided == 301


def test_decompose_rejects_nonzero_radical_square_without_projectives():
    rep = build(projective(0))
    a = rep.a.copy()
    a.data[3][2] = Fraction(0)  # now ad = 0 but da != 0, so da + ad = 1 - bc fails
    with pytest.raises(DecompositionError, match=r"^da \+ ad = 0 fails on side 0 of the bc = \+1 part$"):
        decompose(Representation(a, rep.b, rep.c, rep.d))


# In P(0) (top v0, a v0 = v1, d v0 = v2, socle v3) the span of v0..v3 stops
# being a submodule when a sends v1, of weight (-1, -1), into a V(0), or d
# sends the socle into a V(1).  Either breaks a relation, which the grading's
# check names: a^2 v0 = a v1 on side 0, or d^2 v1 = -d v3 on side 1.  (a on
# the socle would make the J^2 map of side 1 nonzero too, so the span would
# gain that image and stay closed; the next test covers that case.)
@pytest.mark.parametrize("other, name, row, col", [(simple_one(0), "a", 4, 1), (simple_one(1), "d", 4, 3)])
def test_decompose_rejects_a_projective_span_that_is_not_a_submodule(other, name, row, col):
    rep = direct_sum([build(projective(0)), build(other)])
    gens = {"a": rep.a.copy(), "b": rep.b, "c": rep.c, "d": rep.d.copy()}
    gens[name].data[row][col] = Fraction(1)
    side = {"a": 0, "d": 1}[name]
    not_kept = rf"^{name}\^2 = 0 fails on side {side} of the bc = \+1 part$"
    with pytest.raises(DecompositionError, match=not_kept):
        decompose(Representation(**gens))


def test_decompose_rejects_projective_spans_that_overlap():
    # a sends the socle of P(0) into V(1), so the J^2 map of side 1 would count
    # a P(1) too, and the two spans would share P(0)'s; a^2 v2 = a v3 is not 0
    rep = direct_sum([build(projective(0)), build(simple_one(1))])
    a = rep.a.copy()
    a.data[4][3] = Fraction(1)
    overlap = r"^a\^2 = 0 fails on side 1 of the bc = \+1 part$"
    with pytest.raises(DecompositionError, match=overlap):
        decompose(Representation(a, rep.b, rep.c, rep.d))


def test_oracle_never_consults_the_table(monkeypatch):
    labels = grid_labels(2, (eta(0), eta(1), eta(-2), eta('5/7'), ETA_INF))
    pairs = list(itertools.combinations_with_replacement(labels, 2))
    expected = [expand(mul_labels(l1, l2)) for l1, l2 in pairs]

    def table(*args):
        raise AssertionError("the oracle consulted the table")

    for name in ("mul", "mul_labels", "case_name"):
        monkeypatch.setattr(green, name, table)
    assert not {"mul", "mul_labels", "case_name"} & vars(replab).keys()
    replab._build_cached.cache_clear()
    assert [decompose(tensor(build(l1), build(l2))) for l1, l2 in pairs] == expected


def test_decompose_coerces_no_vector_list(monkeypatch):
    # every subspace stays a matrix from the weight split to the pencil
    labels = grid_labels(3, (eta(0), eta(1), eta(-2), eta('5/7'), ETA_INF))
    pairs = list(itertools.combinations_with_replacement(labels, 2))
    products = [tensor(build(l1), build(l2)) for l1, l2 in pairs]
    expected = [expand(mul_labels(l1, l2)) for l1, l2 in pairs]

    def coerce(v):
        raise AssertionError("decompose coerced a vector list")

    monkeypatch.setattr(linalg, "_fr_list", coerce)
    assert [decompose(rep) for rep in products] == expected


def test_decompose_of_a_tensor_product_forms_no_dense_product(monkeypatch):
    # the grading comes from the factors' blocks, so neither a Kronecker
    # product nor the view of a module's matrices is formed
    pairs = list(itertools.product(grid_labels(2, ETA_POOL), repeat=2))
    expected = [expand(mul_labels(l1, l2)) for l1, l2 in pairs]

    def dense(*args):
        raise AssertionError("decompose formed a dense matrix")

    monkeypatch.setattr(RatMatrix, "kron", dense)
    monkeypatch.setattr(replab._Grading, "matrices", dense)
    assert [decompose(tensor(build(l1), build(l2))) for l1, l2 in pairs] == expected


def test_decompose_of_a_tensor_product_with_a_factor_in_another_basis():
    # a factor outside a weight basis is read in its weight basis, and the
    # product in the Kronecker product of the factors' weight bases
    import random

    rng = random.Random(5)
    for l1 in (omega(2, 0), omega(-1, 1), band(2, 1, '5/7'), projective(0), simple_two(1)):
        conj = _conjugate(build(l1), rng)
        for l2 in grid_labels(1, ETA_POOL):
            for rep in (tensor(conj, build(l2)), tensor(build(l2), conj)):
                assert decompose(rep) == expand(mul_labels(l1, l2))
                assert rep._weights().pmat is not None
                # the cover's columns are read through that basis, and it raises
                # unless they make a surjective module map
                projective_cover_map(rep)
    # a factor whose own split raises: the product raises the factor's error
    bad = build(band(2, 0, '1/2'))
    keep = RatMatrix.from_entries(4, 4, {(0, 0): 1})
    bad = Representation(bad.a + keep, bad.b, bad.c, bad.d)
    own = r"^a does not send each \(b, c\) weight to its negative: it sends part of weight \(-1, -1\) outside"
    for rep in (bad, tensor(bad, build(omega(1, 0))), tensor(build(simple_two(0)), bad)):
        with pytest.raises(DecompositionError, match=own):
            decompose(rep)


def test_module_structure_is_basis_independent():
    import random

    rng = random.Random(11)
    pieces = [projective(0), omega(2, 1), omega(-1, 0), band(2, 0, '1/2'), simple_two(1), simple_one(1)]
    for rep in [build(l) for l in pieces] + [direct_sum([build(l) for l in pieces])]:
        conj = _conjugate(rep, rng)
        assert radical_basis(conj).cols == radical_basis(rep).cols
        assert socle_basis(conj).cols == socle_basis(rep).cols
        assert loewy_length(conj) == loewy_length(rep)
        cover, phi = projective_cover_map(conj)
        std_cover, std_phi = projective_cover_map(rep)
        assert decompose(cover) == decompose(std_cover)
        assert phi.rank() == std_phi.rank() == rep.dim
        assert decompose(syzygy(conj)) == decompose(syzygy(rep))


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


def test_pencil_shifts_are_tried_in_order_and_only_until_one_separates(monkeypatch):
    tried, good = [], [2]

    def bad_until_good(alpha, delta, c):
        tried.append(c)
        if c not in good:
            raise replab._BadShift
        return {}, {}, []

    monkeypatch.setattr(replab, "_kronecker_with_shift", bad_until_good)
    alpha = RatMatrix.identity(2)
    assert replab._kronecker_blocks(alpha, alpha) == ({}, {}, [])
    assert tried == [0, 1, -1, 2] and all(type(c) is Fraction for c in tried)
    tried.clear(), good.clear()
    with pytest.raises(DecompositionError, match="2 x 2 pencil: 9 shifts tried"):
        replab._kronecker_blocks(alpha, alpha)
    assert tried == [0, 1, -1, 2, -2, 3, -3, 4, -4]


def test_a_retried_pencil_shift_keeps_the_shared_zero(monkeypatch):
    alpha = RatMatrix.from_entries(3, 2, {(0, 0): 1, (1, 1): 1})
    delta = RatMatrix.from_entries(3, 2, {(1, 0): 1, (2, 1): 1})
    shifted = []
    chain_counts = replab._chain_counts

    def spy(a1, delta):
        shifted.append(a1)
        return chain_counts(a1, delta)

    monkeypatch.setattr(replab, "_chain_counts", spy)
    replab._kronecker_with_shift(alpha, delta, Fraction(1))
    assert shifted[0] == alpha + delta
    zeros = [x for row in shifted[0].data for x in row if not x]
    assert len(zeros) == 2 and all(x is _ZERO for x in zeros)


def test_empty_pencils_never_reach_the_shift_loop(monkeypatch):
    shapes = []
    with_shift = replab._kronecker_with_shift

    def spy(alpha, delta, c):
        shapes.append((alpha.rows, alpha.cols))
        return with_shift(alpha, delta, c)

    monkeypatch.setattr(replab, "_kronecker_with_shift", spy)
    pairs = list(itertools.combinations_with_replacement(grid_labels(2, ETA_POOL), 2))
    assert [decompose(tensor(build(l1), build(l2))) for l1, l2 in pairs] == [
        expand(mul_labels(l1, l2)) for l1, l2 in pairs
    ]
    assert shapes and shapes.count((0, 0)) == 0


@st.composite
def kronecker_pencils(draw):
    """A pencil (alpha, delta) given as Kronecker blocks in random bases, with its blocks.

    Blocks: L_eps (eps + 1 tops onto eps socle vectors, eps >= 0), its
    transpose L_u^T (u >= 0; u = 0 is a socle vector outside every image),
    and Jordan blocks (size, lam), with alpha = I and delta = lam I + N, or
    alpha = N and delta = I for lam = None, the infinite point.
    """
    import random

    ups = draw(st.lists(st.integers(0, 2), max_size=2))
    downs = draw(st.lists(st.integers(0, 2), max_size=2))
    lams = [Fraction(x) for x in (0, 1, -1, 2, -2, 3, "1/2", "-1/2", "1/3", "5/7")] + [None]
    jordans = draw(st.lists(st.tuples(st.integers(1, 2), st.sampled_from(lams)), max_size=3))
    alpha, delta = {}, {}
    rows = cols = 0
    for eps in ups:
        alpha.update({(rows + i, cols + i): 1 for i in range(eps)})
        delta.update({(rows + i, cols + i + 1): 1 for i in range(eps)})
        rows, cols = rows + eps, cols + eps + 1
    for u in downs:
        alpha.update({(rows + i, cols + i): 1 for i in range(u)})
        delta.update({(rows + i + 1, cols + i): 1 for i in range(u)})
        rows, cols = rows + u + 1, cols + u
    for m, lam in jordans:
        ones, nilpotent = ({(rows + i, cols + i + k): 1 for i in range(m - k)} for k in (0, 1))
        if lam is None:
            alpha.update(nilpotent)
            delta.update(ones)
        else:
            alpha.update(ones)
            delta.update({**dict.fromkeys(ones, lam), **nilpotent})
        rows, cols = rows + m, cols + m
    rng = random.Random(draw(st.integers(0, 2**16)))

    def basis(n):
        while True:
            p = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if p.is_invertible():
                return p

    p, q = basis(rows), basis(cols)
    pencil = [p @ RatMatrix.from_entries(rows, cols, x) @ q for x in (alpha, delta)]
    return pencil, ups, downs, jordans


@given(kronecker_pencils())
@settings(max_examples=60, deadline=None)
def test_pencil_shift_is_bad_exactly_when_it_hits_a_band_eigenvalue(pencil):
    (alpha, delta), ups, downs, jordans = pencil
    key = lambda band: (band[0], band[1].sort_key())
    bands = sorted(((m, ETA_INF if lam is None else eta(-lam)) for m, lam in jordans), key=key)
    for c in map(Fraction, (0, 1, -1, 2, -2, 3, -3)):
        if any(c == 0 if lam is None else 1 + c * lam == 0 for _, lam in jordans):
            with pytest.raises(replab._BadShift):
                replab._kronecker_with_shift(alpha, delta, c)
        else:
            up, down, found = replab._kronecker_with_shift(alpha, delta, c)
            assert (up, down) == (Counter(ups), Counter(downs))
            assert sorted(found, key=key) == bands


def _raise(*args):
    raise AssertionError("called on an empty piece")


def test_a_regular_pencil_needs_no_subspace_helper(monkeypatch):
    for name in ("quotient_maps", "annihilator_basis", "span_basis", "preimage_basis"):
        monkeypatch.setattr(replab, name, _raise)
    delta = RatMatrix.from_entries(3, 3, _jordan_sum([(3, Fraction(5, 7))])[0])
    assert replab._kronecker_with_shift(RatMatrix.identity(3), delta, Fraction(0)) == ({}, {}, [(3, eta("-5/7"))])


def test_an_empty_bc_minus_one_part_needs_no_product(monkeypatch):
    part = build(projective(0))._weights().minus
    assert part.dims == (0, 0)
    monkeypatch.setattr(RatMatrix, "__matmul__", _raise)
    assert replab._two_dim_labels(part) == []


def test_a_band_part_needs_no_quotient(monkeypatch):
    # a band has no projective summand, so its bc = +1 part is its own quotient
    part = build(band(4, 0, eta("210/221")))._weights().plus
    monkeypatch.setattr(replab, "_ll2_labels", lambda core: [])
    monkeypatch.setattr(replab, "quotient_maps", _raise)
    assert replab._one_dim_type_labels(part) == []


@given(st.lists(st.integers(0, 30), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_block_counts_telescope(tail):
    # the pencil checks only the second sum: the first holds for any chain of kernels
    dims = [0, *tail]
    counts = replab._block_counts(dims)
    assert sum((s + 1) * c for s, c in enumerate(counts)) == dims[-1]
    assert sum(s * c for s, c in enumerate(counts)) == dims[-1] - dims[1]


def test_decompose_rejects_non_module():
    bad = Representation(
        RatMatrix.identity(2),
        RatMatrix.identity(2),
        RatMatrix.identity(2),
        RatMatrix.identity(2),
    )
    with pytest.raises(DecompositionError):
        decompose(bad)


@pytest.mark.parametrize(
    "a, d, relation",
    [
        ([[0, 0], [1, 0]], [[0, 1], [0, 0]], r"da \+ ad = 2"),  # da + ad = I, not 1 - bc = 2I
        ([[0, 1], [1, 0]], [[0, 0], [0, 0]], r"a\^2 = 0"),
        ([[0, 0], [0, 0]], [[0, 1], [1, 0]], r"d\^2 = 0"),
    ],
)
def test_decompose_rejects_a_bc_minus_one_part_that_breaks_its_relations(a, d, relation):
    # weights (1,-1) and (-1,1): the whole module is the bc = -1 part
    rep = Representation(
        RatMatrix.from_rows(a), RatMatrix.diagonal([1, -1]), RatMatrix.diagonal([-1, 1]), RatMatrix.from_rows(d)
    )
    assert not check_relations(rep)
    with pytest.raises(DecompositionError, match=rf"^{relation} fails on side 0 of the bc = -1 part$"):
        decompose(rep)


def test_decompose_rejects_a_bc_plus_one_part_that_breaks_its_relations():
    # weights (1,1) and (-1,-1): the whole module is the bc = +1 part; ad = E_32, not -da
    b = RatMatrix.diagonal([1, 1, -1, -1])
    a = RatMatrix.from_entries(4, 4, {(0, 2): 1, (3, 1): -1})
    d = RatMatrix.from_entries(4, 4, {(1, 2): -1})
    rep = Representation(a, b, b, d)
    assert not check_relations(rep)
    with pytest.raises(DecompositionError, match=r"da \+ ad = 0 fails on side 1 of the bc = \+1 part"):
        decompose(rep)


PILE_PIECES = [
    *(l for r in (0, 1) for l in (simple_two(r), projective(r), omega(1, r), omega(-1, r))),
    *(band(1, r, e) for r in (0, 1) for e in ETA_POOL),
]


@st.composite
def perturbed_piles(draw):
    """Direct sums of V(2, r), P(r), O^±1 V(r) and M_1(r, η), with up to two a
    or d entries between paired weights reset, in a random basis or not.

    The weights stay paired, so the weight split holds and only a^2 = 0,
    d^2 = 0 and da + ad = 1 - bc can fail, on either part.  A reset may also
    keep a module: an entry set to its own value, or M_1(r, η) moved to
    another η.  Draws the module and the labels of its pieces, or None in
    place of the labels once an entry is reset.
    """
    pieces = draw(st.lists(st.sampled_from(PILE_PIECES), min_size=1, max_size=4))
    rep = direct_sum([build(l) for l in pieces])
    a, b, c, d = (m.copy() for m in rep.generators())
    weights = [(b.data[i][i], c.data[i][i]) for i in range(rep.dim)]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, rep.dim - 1))
        beta, gamma = weights[j]
        paired = [i for i, w in enumerate(weights) if w == (-beta, -gamma)]
        if paired:
            i = draw(st.sampled_from(paired))
            draw(st.sampled_from([a, d])).data[i][j] = Fraction(draw(st.sampled_from([-1, 0, 1, 2])))
            pieces = None
    rep = Representation(a, b, c, d)
    if draw(st.booleans()):
        import random

        rep = _conjugate(rep, random.Random(draw(st.integers(0, 2**16))))
    return rep, pieces


# the messages of a relation error and of a weight-split error
BROKEN_MODULE = r"fails on side [01] of the bc = [+-]1 part$|does not send each \(b, c\) weight|not commuting involutions"


@given(perturbed_piles())
@settings(max_examples=150, deadline=None)
def test_decompose_labels_a_pile_iff_it_is_a_module(pile):
    # a module gets labels of its dimension or a rationality gap; anything
    # else gets the error of the relation or the weight split that fails.
    # A pile left as built gets the labels of its pieces.
    rep, pieces = pile
    module = check_relations(rep)
    try:
        labels = decompose(rep)
    except DecompositionError as exc:
        assert pieces is None, str(exc)
        assert re.search("rationality gap" if module else BROKEN_MODULE, str(exc)), str(exc)
    else:
        assert module
        assert sum(map(label_dimension, labels)) == rep.dim
        assert pieces is None or labels == sorted(pieces)


@given(perturbed_piles())
@settings(max_examples=60, deadline=None)
def test_peeled_core_matches_the_full_span_quotient_on_piles(pile):
    rep, _ = pile
    try:
        rep._weights()
    except DecompositionError:
        assume(False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_core_is_the_full_span_quotient(rep, monkeypatch)


@given(perturbed_piles())
@settings(max_examples=60, deadline=None)
def test_the_stop_at_a_filled_side_gives_the_pencils_labels_on_piles(pile):
    rep, _ = pile
    try:
        rep._weights()
    except DecompositionError:
        assume(False)
    _stop_matches_the_pencil(rep)


def test_relations_are_checked_once_where_a_module_enters(monkeypatch):
    calls = []
    check = replab._check_graded

    def spy(grading):
        calls.append(grading)
        return check(grading)

    # the factors are checked when the cache is warmed; their products never are
    labels = grid_labels(2, ETA_POOL)
    for label in labels:
        decompose(build(label))
    rep = Representation(*direct_sum([build(projective(0)), build(band(2, 1, '5/7'))]).generators())
    monkeypatch.setattr(replab, "_check_graded", spy)
    for l1, l2 in itertools.combinations_with_replacement(labels, 2):
        assert decompose(tensor(build(l1), build(l2))) == expand(mul_labels(l1, l2))
    assert calls == []
    # a module given by its matrices is checked when its grading is made, and only then
    assert decompose(rep) == decompose(rep) == sorted([projective(0), band(2, 1, '5/7')])
    assert len(calls) == 1


# -- braiding -----------------------------------------------------------------------


def test_braiding_examples():
    assert braiding_check(build(simple_one(0)), build(projective(1)))
    assert braiding_check(build(simple_two(0)), build(simple_two(1)))
    assert braiding_check(build(omega(1, 0)), build(band(1, 0, eta(2))))
    assert braiding_check(build(band(2, 0, '5/7')), build(omega(-1, 1)))


@pytest.mark.parametrize(
    "l1, l2",
    [(simple_two(0), simple_two(1)), (omega(1, 0), omega(-1, 0)), (projective(0), simple_two(0))],
)
def test_braiding_check_rejects_the_flip_alone(monkeypatch, l1, l2):
    m, n = build(l1), build(l2)
    monkeypatch.setattr(replab, "r_matrix_action", lambda m, n: RatMatrix.identity(m.dim * n.dim))
    assert not braiding_check(m, n)


def test_braiding_check_rejects_a_singular_flip(monkeypatch):
    m, n = build(simple_two(0)), build(omega(1, 0))
    monkeypatch.setattr(replab, "r_matrix_action", lambda m, n: RatMatrix.zeros(m.dim * n.dim, m.dim * n.dim))
    assert not braiding_check(m, n)
