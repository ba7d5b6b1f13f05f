import ast
import itertools
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    mul_labels,
    omega,
    projective,
    simple_one,
    simple_two,
)
from d4green.linalg import _ZERO, RatMatrix
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
    assert is_isomorphic(empty, empty)
    assert projective_cover_map(empty) == (empty, RatMatrix.zeros(0, 0))
    two = direct_sum([build(simple_one(0)), build(simple_one(1))])
    assert two.b == RatMatrix.diagonal([1, -1])
    doubled = direct_sum([build(projective(0)), build(projective(0))])
    assert decompose(doubled) == [projective(0), projective(0)]


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
        for s in range(-3, 4):
            rep = build(omega(s, r))
            soc = socle_basis(rep)
            jm = radical_basis(rep)
            assert len(soc) == abs(s) + (s <= 0)
            assert rep.dim - len(jm) == abs(s) + (s >= 0)
            sign = (-1) ** ((s + r + (s > 0)) % 2)
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
    # syzygy reaches O^(s+1) V(r) through covers, kernels and restrictions in
    # linalg; build writes the same module down as a zigzag
    for s in range(-3, 4):
        for r in (0, 1):
            assert is_isomorphic(syzygy(build(omega(s, r))), build(omega(s + 1, r)))


def test_syzygy_and_cosyzygy_shift_every_label():
    labels = _non_projective(grid_labels(3, (eta(0), eta('5/7'), ETA_INF)))
    assert len(labels) == 32
    for label in labels:
        assert decompose(syzygy(build(label))) == [_omega_label(label, 1)]
        assert decompose(dual(syzygy(dual(build(label))))) == [_omega_label(label, -1)]


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
    # m + 1 values of det(xI - mat) fix a polynomial of degree m
    poly = replab._charpoly(mat)
    m = mat.rows
    assert len(poly) == m + 1 and poly[-1] == 1
    for x in range(m + 1):
        value = Fraction(0)
        for c in reversed(poly):
            value = value * x + c
        assert value == (RatMatrix.identity(m).scale(x) - mat).det()


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
        projective(1),
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


def _dense_weight_split(rep):
    """The weight split by a dense scan of every entry: the reference for _weight_split."""
    n = rep.dim
    nonzeros = lambda data: [[(j, x) for j, x in enumerate(row) if x is not _ZERO and x] for row in data]
    groups = [[i for i in range(n) if (rep.b.data[i][i], rep.c.data[i][i]) == w] for w in replab._WEIGHTS]
    off_diagonal = any(j != i for m in (rep.b, rep.c) for i, row in enumerate(nonzeros(m.data)) for j, _ in row)
    if off_diagonal or sum(map(len, groups)) != n:
        rewritten, pmat = replab._joint_eigenbasis(rep)
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
    basis, which sends the module through the joint eigenbasis rewrite.
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
    assert _split_or_error(replab._weight_split, rep) == _split_or_error(_dense_weight_split, rep)


def test_standard_models_never_reach_the_joint_eigenbasis(monkeypatch):
    def rewrite(rep):
        raise AssertionError("a standard model reached the joint eigenbasis rewrite")

    monkeypatch.setattr(replab, "_joint_eigenbasis", rewrite)
    replab._build_cached.cache_clear()
    l1, l2 = omega(3, 0), omega(-3, 0)
    assert decompose(tensor(build(l1), build(l2))) == expand(mul_labels(l1, l2))


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
    l1, l2 = omega(3, 0), omega(-3, 0)
    assert decompose(tensor(build(l1), build(l2))) == expand(mul_labels(l1, l2))
    # 12 P(1) + V(0): only the one dimension of V(0) reaches the pencil
    assert seen == [(1, 0)]


def test_decompose_rejects_nonzero_radical_square_without_projectives():
    rep = build(projective(0))
    a = rep.a.copy()
    a.data[3][2] = Fraction(0)  # now ad = 0 but da != 0, so da + ad = 1 - bc fails
    nonzero = r"^radical square is nonzero on the quotient by the 0 P\(0\) and 0 P\(1\) summands, of dimensions \(2, 2\)$"
    with pytest.raises(DecompositionError, match=nonzero):
        decompose(Representation(a, rep.b, rep.c, rep.d))


# In P(0) (top v0, a v0 = v1, d v0 = v2, socle v3) the span of v0..v3 stops
# being a submodule when a sends v1, of weight (-1, -1), into a V(0), or d
# sends the socle into a V(1).  (a on the socle would make the J^2 map of
# side 1 nonzero too, so the span would gain that image and stay closed;
# the next test covers that case.)
@pytest.mark.parametrize("other, name, row, col", [(simple_one(0), "a", 4, 1), (simple_one(1), "d", 4, 3)])
def test_decompose_rejects_a_projective_span_that_is_not_a_submodule(other, name, row, col):
    rep = direct_sum([build(projective(0)), build(other)])
    gens = {"a": rep.a.copy(), "b": rep.b, "c": rep.c, "d": rep.d.copy()}
    gens[name].data[row][col] = Fraction(1)
    not_kept = rf"^{name} does not keep the span of the 1 P\(0\) and 0 P\(1\) summands$"
    with pytest.raises(DecompositionError, match=not_kept):
        decompose(Representation(**gens))


def test_decompose_rejects_projective_spans_that_overlap():
    # a sends the socle of P(0) into V(1), so the J^2 map of side 1 counts a
    # P(1) too, and the two spans share P(0)'s: 5 dimensions, not 8
    rep = direct_sum([build(projective(0)), build(simple_one(1))])
    a = rep.a.copy()
    a.data[4][3] = Fraction(1)
    overlap = r"^the 1 P\(0\) and 1 P\(1\) summands span dimensions \(2, 3\), not 2 \* 2 on each side$"
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


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="the bc = +1 part does not check a^2 = 0, d^2 = 0 and da + ad = 0 (ROADMAP item 2)",
)
def test_decompose_rejects_a_bc_plus_one_part_that_breaks_its_relations():
    # weights (1,1) and (-1,-1): the whole module is the bc = +1 part; ad = E_32, not -da
    b = RatMatrix.diagonal([1, 1, -1, -1])
    a = RatMatrix.from_entries(4, 4, {(0, 2): 1, (3, 1): -1})
    d = RatMatrix.from_entries(4, 4, {(1, 2): -1})
    rep = Representation(a, b, b, d)
    assert not check_relations(rep)
    with pytest.raises(DecompositionError):
        decompose(rep)


@st.composite
def perturbed_two_dim_piles(draw):
    """Direct sums of V(2, 0) and V(2, 1), with up to two a or d entries between
    the two weights reset, in a random basis or not."""
    rep = direct_sum([build(simple_two(r)) for r in draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=4))])
    a, b, c, d = (m.copy() for m in rep.generators())
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rep.dim - 1)), draw(st.integers(0, rep.dim - 1))
        if b.data[i][i] != b.data[j][j]:
            draw(st.sampled_from([a, d])).data[i][j] = Fraction(draw(st.sampled_from([-1, 0, 1, 2])))
    rep = Representation(a, b, c, d)
    if draw(st.booleans()):
        import random

        rep = _conjugate(rep, random.Random(draw(st.integers(0, 2**16))))
    return rep


@given(perturbed_two_dim_piles())
@settings(max_examples=150, deadline=None)
def test_a_bc_minus_one_module_is_labelled_iff_it_is_a_module(rep):
    try:
        labels = decompose(rep)
    except DecompositionError:
        labels = None
    assert (labels is not None) == check_relations(rep)
    assert labels is None or set(labels) <= {simple_two(0), simple_two(1)}


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
