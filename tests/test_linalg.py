from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rat_matrices
from d4green.linalg import (
    _ZERO,
    RatMatrix,
    annihilator_basis,
    express_in_basis,
    preimage_basis,
    quotient_maps,
    restrict_to_invariant,
    span_basis,
)


def test_rref_identity():
    m = RatMatrix.identity(3)
    red, pivots, rank = m.rref()
    assert red == m
    assert pivots == (0, 1, 2)
    assert rank == 3


def test_rref_zero():
    red, pivots, rank = RatMatrix.zeros(2, 2).rref()
    assert red.is_zero()
    assert pivots == ()
    assert rank == 0


def test_rref_proportional_rows():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert RatMatrix.identity(2).kernel_basis() == RatMatrix.zeros(2, 0)


def test_kernel_zero_full():
    assert RatMatrix.zeros(2, 3).kernel_basis() == RatMatrix.identity(3)


def test_kernel_line():
    (v,) = RatMatrix.from_rows([[1, 1]]).kernel_basis().columns()
    assert v[0] == -v[1] != 0


def test_solve_identity():
    b = [Fraction(3), Fraction(-1)]
    assert RatMatrix.identity(2).solve_matrix(RatMatrix.from_columns([b])).column(0) == b


def test_solve_inconsistent():
    assert RatMatrix.from_rows([[1, 0], [1, 0]]).solve_matrix(RatMatrix.from_columns([[1, 2]])) is None


def test_solve_scalar():
    assert RatMatrix.from_rows([[2]]).solve_matrix(RatMatrix.from_columns([[1]])).column(0) == [Fraction(1, 2)]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError, match="right-hand side row mismatch"):
        RatMatrix.identity(2).solve_matrix(RatMatrix.from_columns([[1, 2, 3]]))


def test_kron_identities():
    assert RatMatrix.identity(2).kron(RatMatrix.identity(3)) == RatMatrix.identity(6)
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert a.kron(RatMatrix.zeros(2, 2)).is_zero()
    n = RatMatrix.from_rows([[0, 1], [0, 0]])
    assert n.kron(RatMatrix.from_rows([[2]])) == RatMatrix.from_rows([[0, 2], [0, 0]])


def test_inverse_examples():
    assert RatMatrix.identity(3).is_invertible()
    assert not RatMatrix.zeros(1, 1).is_invertible()
    # an inverse is a solve against the identity, and a singular matrix has none
    m = RatMatrix.from_rows([[1, 1], [0, 1]])
    assert m.solve_matrix(RatMatrix.identity(2)) == RatMatrix.from_rows([[1, -1], [0, 1]])
    assert RatMatrix.from_rows([[1, 1], [1, 1]]).solve_matrix(RatMatrix.identity(2)) is None


def test_det():
    assert RatMatrix.from_rows([[2, 1], [1, 1]]).det() == 1
    assert RatMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    assert RatMatrix.from_rows([[0, 1], [1, 0]]).det() == -1


@given(rat_matrices(square=True))
@settings(max_examples=60)
def test_inverse_roundtrip(m):
    if m.is_invertible():
        assert m @ m.solve_matrix(RatMatrix.identity(m.rows)) == RatMatrix.identity(m.rows)


@given(rat_matrices())
@settings(max_examples=60)
def test_rank_nullity(m):
    assert m.rank() + m.kernel_basis().cols == m.cols


@given(rat_matrices())
@settings(max_examples=60)
def test_rref_idempotent(m):
    red, _, _ = m.rref()
    red2, _, _ = red.rref()
    assert red == red2


@given(rat_matrices(max_dim=3), rat_matrices(max_dim=3))
@settings(max_examples=40)
def test_kron_multiplicative(a, b):
    c = RatMatrix.identity(a.cols)
    d = RatMatrix.identity(b.cols)
    assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ValueError, match="ragged columns"):
        RatMatrix.from_columns([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged columns"):
        RatMatrix.from_columns([[1, 2, 3], [4, 5, 6]], rows=2)
    with pytest.raises(ValueError, match="ragged columns"):
        RatMatrix.from_columns([[1], [2]], rows=2)
    assert RatMatrix.from_columns([], rows=2) == RatMatrix(2, 0, [[], []])
    assert RatMatrix.from_columns([[1, 2], [3, 4]]) == RatMatrix.from_rows([[1, 3], [2, 4]])
    one = RatMatrix.identity(1)
    with pytest.raises(ValueError, match="ragged block grid"):
        RatMatrix.block([[one, None], [one]])
    with pytest.raises(ValueError, match="differ in size"):
        RatMatrix.block([[one, RatMatrix.identity(2)]])
    with pytest.raises(ValueError, match="differ in size"):
        RatMatrix.block([[one], [RatMatrix.zeros(1, 2)]])
    for key in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="outside a 2x2 matrix"):
            RatMatrix.from_entries(2, 2, {key: 1})
    for rows, cols in (([2], [0]), ([0], [-1])):
        with pytest.raises(ValueError, match="index outside a 2x2 matrix"):
            RatMatrix.identity(2).take(rows, cols)
    with pytest.raises(ValueError, match="non-square"):
        RatMatrix.zeros(1, 2).shift(1)


def test_int_inputs_give_fraction_entries():
    # entries are Fractions whatever the input type: a caller that divides an
    # entry by an int gets an exact quotient, where an int entry would give a
    # float, and a zero can be the shared _ZERO of the zero rule
    rows = [[2, 4, 0], [1, Fraction(1, 2), 3], [Fraction(3), Fraction(0), Fraction(-1, 3)]]
    m = RatMatrix.from_rows(rows)
    outputs = [
        m.data,
        RatMatrix.from_columns(rows).data,
        span_basis(m.transpose()).data,
        RatMatrix.from_rows(rows[:2]).kernel_basis().data,
        RatMatrix.from_rows([[1, 2, 0]]).kernel_basis().data,
        m.transpose().kernel_basis().data,
    ]
    assert all(type(x) is Fraction for rows_out in outputs for row in rows_out for x in row)
    # the int 0 of rows comes out as the shared zero
    assert m.data[0][2] is _ZERO
    assert RatMatrix.from_columns(rows).data[2][0] is _ZERO


def _with_zeros(m: RatMatrix, zero) -> RatMatrix:
    return RatMatrix(m.rows, m.cols, [[x if x else zero() for x in row] for row in m.data])


@given(rat_matrices(max_dim=5), st.data())
@settings(max_examples=80)
def test_zero_rule_changes_no_result(m, data):
    """A zero entry that is not the shared _ZERO changes no result of a kernel."""
    mask = data.draw(st.lists(st.booleans(), min_size=m.rows * m.cols, max_size=m.rows * m.cols))
    sparse = RatMatrix(
        m.rows, m.cols, [[0 if mask[i * m.cols + j] else x for j, x in enumerate(row)] for i, row in enumerate(m.data)]
    )

    def results(a: RatMatrix) -> list:
        t = a.transpose()
        # negated, so that every zero of a comes in as a fresh Fraction(0)
        entries = {(i, j): -x for i, row in enumerate(a.data) for j, x in enumerate(row)}
        return [
            a.rref(),
            a.kernel_basis(),
            a @ t,
            t @ a,
            a.kron(t),
            span_basis(t),
            a.solve_matrix(a),
            a.solve_matrix(RatMatrix.identity(a.rows)),
            a.is_zero(),
            # one left row reaches only the rows of a at its nonzeros
            RatMatrix(1, a.rows, t.data[:1]) @ a,
            quotient_maps(t),
            annihilator_basis(t),
            RatMatrix.block([[a, a], [None, a]]),
            a.take(range(a.rows - 1, -1, -1), [0, 0, *range(a.cols)]),
            (a @ t).shift(-(a @ t).data[0][0]),
            RatMatrix.from_entries(a.rows, a.cols, entries),
        ]

    def naive_product(x: RatMatrix, y: RatMatrix) -> RatMatrix:
        cols = y.transpose().data
        rows = [[sum((u * v for u, v in zip(row, col)), Fraction(0)) for col in cols] for row in x.data]
        return RatMatrix(x.rows, y.cols, rows)

    shared = results(_with_zeros(sparse, lambda: _ZERO))
    assert shared == results(_with_zeros(sparse, lambda: Fraction(0)))
    a = _with_zeros(sparse, lambda: _ZERO)
    assert shared[2] == naive_product(a, a.transpose())
    assert shared[8] == all(x == 0 for row in a.data for x in row)
    assert shared[9] == naive_product(RatMatrix(1, a.rows, [a.column(0)]), a)
    proj, free = shared[10]
    assert proj.take(range(proj.rows), free) == RatMatrix.identity(proj.rows)
    assert (proj @ a.transpose()).is_zero()
    assert proj.rows == a.cols - a.rank()
    # one kernel convention: proj's rows are the annihilator of a's rows and a's kernel basis
    assert proj == shared[11].transpose() and shared[11] == shared[1]
    assert_subspace_helpers_match_their_definitions(a)

    square = naive_product(a, a.transpose())
    block, take, shift, from_entries = shared[12:16]
    zero = [[0] * a.cols for _ in range(a.rows)]
    assert block.data == [r + s for r, s in zip(a.data, a.data)] + [r + s for r, s in zip(zero, a.data)]
    assert take.data == [[row[0], row[0], *row] for row in reversed(a.data)]
    assert shift.data == [
        [x - square.data[0][0] if i == j else x for j, x in enumerate(row)] for i, row in enumerate(square.data)
    ]
    assert from_entries.data == [[-x for x in row] for row in a.data]
    # shift copies the rows of a @ t, whose zeros are the product's, and writes only the diagonal
    written = [x for m in (block, from_entries) for row in m.data for x in row]
    assert all(x is _ZERO for x in written + [shift.data[i][i] for i in range(shift.rows)] if x == 0)


def test_block_accepts_empty_grids_and_zero_size_blocks():
    assert RatMatrix.block([]) == RatMatrix.zeros(0, 0)
    assert RatMatrix.block([[]]) == RatMatrix.zeros(0, 0)
    assert RatMatrix.block([[RatMatrix.zeros(0, 2)], [RatMatrix.identity(2)]]) == RatMatrix.identity(2)
    empty = RatMatrix.zeros(0, 0)
    assert RatMatrix.block([[empty, None], [None, RatMatrix.identity(1)]]) == RatMatrix.identity(1)
    assert RatMatrix.block([[RatMatrix.zeros(2, 0), RatMatrix.zeros(2, 0)]]) == RatMatrix.zeros(2, 0)


def test_quotient_maps():
    sub = RatMatrix.from_columns([[1, 1, 0]])
    proj, free = quotient_maps(sub)
    assert proj.rows == 2 and len(free) == 2
    assert free == [1, 2]
    assert proj.take(range(proj.rows), free) == RatMatrix.identity(2)
    assert (proj @ sub).is_zero()
    assert quotient_maps(RatMatrix.zeros(3, 0)) == (RatMatrix.identity(3), [0, 1, 2])


def test_preimage_basis():
    m = RatMatrix.from_rows([[1, 0], [0, 1]])
    pre = preimage_basis(m, RatMatrix.from_columns([[1, 0]]))
    assert pre.cols == 1 and pre.column(0)[1] == 0


def test_span_and_annihilator():
    vecs = RatMatrix.from_columns([[1, 0, 1], [2, 0, 2], [0, 1, 0]])
    basis = span_basis(vecs)
    assert basis.cols == 2
    ann = annihilator_basis(basis)
    assert ann.cols == 1
    assert (ann.transpose() @ basis).is_zero()
    assert annihilator_basis(RatMatrix.zeros(3, 0)) == RatMatrix.identity(3)


def test_restrict_and_express():
    m = RatMatrix.from_rows([[2, 0], [0, 3]])
    rest = restrict_to_invariant(m, RatMatrix.from_columns([[1, 0]]))
    assert rest == RatMatrix.from_rows([[2]])
    assert restrict_to_invariant(m, RatMatrix.zeros(2, 0)) == RatMatrix.zeros(0, 0)
    coords = express_in_basis(RatMatrix.from_columns([[Fraction(4), Fraction(0)]]), RatMatrix.from_columns([[2, 0]]))
    assert coords == RatMatrix.from_rows([[2]])
    with pytest.raises(ValueError):
        restrict_to_invariant(RatMatrix.from_rows([[0, 1], [1, 0]]), RatMatrix.from_columns([[1, 0]]))


def assert_subspace_helpers_match_their_definitions(a: RatMatrix):
    """kernel_basis and each subspace helper on a, checked against its definition by ranks and products."""

    def independent(m: RatMatrix) -> bool:
        return m.rank() == m.cols

    rank = a.rank()
    kernel = a.kernel_basis()
    assert (kernel.rows, kernel.cols) == (a.cols, a.cols - rank) and independent(kernel)
    assert (a @ kernel).is_zero()
    span = span_basis(a)
    assert (span.rows, span.cols) == (a.rows, rank) and independent(span)
    assert RatMatrix.block([[span, a]]).rank() == rank
    ann = annihilator_basis(a)
    assert (ann.rows, ann.cols) == (a.rows, a.rows - rank) and independent(ann)
    assert (ann.transpose() @ a).is_zero()
    proj, free = quotient_maps(a)
    assert proj == ann.transpose() and proj.take(range(proj.rows), free) == RatMatrix.identity(proj.rows)
    # { v : a^T v lies in the kernel of a }, of dimension dim ker a^T + dim(ker a meet im a^T)
    m = a.transpose()
    pre = preimage_basis(m, kernel)
    assert pre.rows == m.cols and independent(pre)
    assert RatMatrix.block([[kernel, m @ pre]]).rank() == kernel.cols
    assert pre.cols == m.cols + kernel.cols - RatMatrix.block([[kernel, m]]).rank()
    # the image of a a^T is invariant under it
    square = a @ m
    image = span_basis(square)
    assert image @ restrict_to_invariant(square, image) == square @ image
    assert span @ express_in_basis(a, span) == a


@pytest.mark.parametrize("rows, cols", [(3, 0), (0, 3), (0, 0)])
def test_subspace_helpers_take_empty_matrices(rows, cols):
    # the shapes a separate dimension argument used to stand in for
    assert_subspace_helpers_match_their_definitions(RatMatrix.zeros(rows, cols))
