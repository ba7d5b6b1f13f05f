"""Exact dense linear algebra over arbitrary-precision rationals.

Everything here is deterministic and tolerance-free: ranks, kernels and
solves are computed by reduced row echelon form with exact ``Fraction``
arithmetic.  Matrices reach a few hundred rows (the tensor product of two
15-dimensional modules is 225 x 225) but are mostly zero, so rows are dense
lists and elimination, products and Kronecker products work per nonzero
entry.

That layout and the zero rule below are private to this module: callers
build, stack and cut matrices with ``from_rows``, ``from_columns``,
``from_entries``, ``block`` and ``take``.  Inside it, only the methods of
``RatMatrix`` and the elimination core (``_rref_inplace``, ``_kernel`` and
``_row_nonzeros``, which take raw row lists) read the rows; every null
space is read off a reduced basis by ``_kernel``.

Zero rule: a zero entry should be the shared object ``_ZERO``, as every
zero that ``from_entries``, ``block`` and ``shift`` write is.  The kernels
test ``x is not _ZERO and x``, so a shared zero costs one identity check
and any other zero falls through to ``Fraction.__bool__``.  ``is_zero``
counts zeros with ``list.count(_ZERO)`` at C speed: a shared zero matches
by identity, and only the other entries call ``Fraction.__eq__``.  ``__matmul__`` lists the nonzeros of a row of its
right operand only when a nonzero of the left operand first reaches that
row, so a product with a sparse left operand never scans the rows it does
not reach.  The rule changes speed, never a result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _fr_list(v: Iterable) -> list[Fraction]:
    """The entries of v as a new list of Fractions, copied at C speed if they all are."""
    v = list(v)
    return v if set(map(type, v)) <= {Fraction} else [_fr(x) or _ZERO for x in v]


class RatMatrix:
    """Dense matrix of rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[Fraction]]):
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "RatMatrix":
        data = [_fr_list(row) for row in rows]
        n = len(data)
        m = len(data[0]) if data else 0
        if any(len(r) != m for r in data):
            raise ValueError("ragged rows")
        return cls(n, m, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = _ONE
        return m

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RatMatrix":
        return cls.from_entries(len(entries), len(entries), {(i, i): x for i, x in enumerate(entries)})

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: dict) -> "RatMatrix":
        """The rows x cols matrix with entry x at each (i, j): x, and zeros elsewhere."""
        data = [[_ZERO] * cols for _ in range(rows)]
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if x:
                data[i][j] = _fr(x)
        return cls(rows, cols, data)

    @classmethod
    def block(cls, grid: Sequence[Sequence["RatMatrix | None"]]) -> "RatMatrix":
        """The block matrix of a grid given as rows of blocks, where None is a zero block.

        A block row is as high as its matrices and a block column as wide as
        its matrices; one without any matrix is empty.
        """
        heights = [0] * len(grid)
        widths = [0] * (len(grid[0]) if grid else 0)
        for i, row in enumerate(grid):
            if len(row) != len(widths):
                raise ValueError("ragged block grid")
            for j, m in enumerate(row):
                if m is not None:
                    heights[i], widths[j] = m.rows, m.cols
        data = []
        for h, row in zip(heights, grid):
            strips = []
            for m, w in zip(row, widths):
                if m is None:
                    strips.append([[_ZERO] * w] * h)
                elif m.rows == h and m.cols == w:
                    strips.append(m.data)
                else:
                    raise ValueError("blocks of one block row or column differ in size")
            data += map(sum, zip(*strips), repeat([]))
        return cls(sum(heights), sum(widths), data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "RatMatrix":
        cols = [_fr_list(c) for c in columns]
        if rows is None:
            if not cols:
                raise ValueError("need explicit row count for a matrix with no columns")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise ValueError(f"ragged columns: expected {rows} entries each")
        data = [list(r) for r in zip(*cols)] if cols else [[] for _ in range(rows)]
        return cls(rows, len(cols), data)

    # -- basics --------------------------------------------------------

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.data]

    def columns(self) -> list[list[Fraction]]:
        return [list(col) for col in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)]

    def entries(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero entries as {(i, j): x}, the inverse of ``from_entries``."""
        return {(i, j): x for i, row in enumerate(self.data) for j, x in _row_nonzeros(row)}

    def take(self, rows: Sequence[int], cols: Sequence[int]) -> "RatMatrix":
        """The submatrix at the given row and column indices, in their order."""
        if rows and not 0 <= min(rows) <= max(rows) < self.rows or cols and not 0 <= min(cols) <= max(cols) < self.cols:
            raise ValueError(f"index outside a {self.rows}x{self.cols} matrix")
        picked = map(self.data.__getitem__, rows)
        if len(cols) > 1:
            data = list(map(list, map(itemgetter(*cols), picked)))
        else:
            # itemgetter of one index returns the entry itself, not a tuple
            data = [list(map(row.__getitem__, cols)) for row in picked]
        return RatMatrix(len(rows), len(cols), data)

    def copy(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [row[:] for row in self.data])

    def is_zero(self) -> bool:
        return all(row.count(_ZERO) == len(row) for row in self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [[-x for x in row] for row in self.data])

    def scale(self, k) -> "RatMatrix":
        k = _fr(k)
        return RatMatrix(self.rows, self.cols, [[k * x for x in row] for row in self.data])

    def shift(self, k) -> "RatMatrix":
        """self + k I, for a square matrix."""
        if self.rows != self.cols:
            raise ValueError("shift of a non-square matrix")
        data = [row[:] for row in self.data]
        for i, row in enumerate(data):
            row[i] = row[i] + k or _ZERO
        return RatMatrix(self.rows, self.cols, data)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = [[_ZERO] * other.cols for _ in range(self.rows)]
        # the nonzeros of a row of other, scanned when a nonzero of self first reaches it
        onz = [None] * other.rows
        for acc, row in zip(out, self.data):
            for k, a in enumerate(row):
                if a is not _ZERO and a:
                    orow = onz[k]
                    if orow is None:
                        orow = onz[k] = _row_nonzeros(other.data[k])
                    for j, b in orow:
                        acc[j] = acc[j] + a * b
        return RatMatrix(self.rows, other.cols, out)

    def apply(self, vec: Sequence) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.data:
            s = _ZERO
            for a, x in zip(row, vec):
                if a is not _ZERO and a and x:
                    s += a * _fr(x)
            out.append(s)
        return out

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, self.columns())

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        """Tensor product: entry ((i*rB+k), (j*cB+l)) is self[i,j]*other[k,l]."""
        rb, cb = other.rows, other.cols
        out = [[_ZERO] * (self.cols * cb) for _ in range(self.rows * rb)]
        onz = list(map(_row_nonzeros, other.data))
        for i, row in enumerate(self.data):
            for j, a in enumerate(row):
                if a is not _ZERO and a:
                    base = j * cb
                    for dest, orow in zip(out[i * rb : (i + 1) * rb], onz):
                        for l, b in orow:
                            dest[base + l] = a * b
        return RatMatrix(self.rows * rb, self.cols * cb, out)

    def _check_same_shape(self, other: "RatMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["RatMatrix", tuple[int, ...], int]:
        """Reduced row echelon form; returns (rref, pivot columns, rank)."""
        data = [row[:] for row in self.data]
        pivots = _rref_inplace(data, self.cols)
        return RatMatrix(self.rows, self.cols, data), tuple(pivots), len(pivots)

    def rank(self) -> int:
        data = [row[:] for row in self.data]
        return len(_rref_inplace(data, self.cols))

    def kernel_basis(self) -> "RatMatrix":
        """Basis of the right null space as the columns of a cols x k matrix, one per free column."""
        return _kernel([row[:] for row in self.data], self.cols)[1]

    def solve_matrix(self, rhs: "RatMatrix") -> "RatMatrix | None":
        """Solve self @ X = rhs columnwise; None when any column is inconsistent."""
        if rhs.rows != self.rows:
            raise ValueError("right-hand side row mismatch")
        n, m, k = self.rows, self.cols, rhs.cols
        data = [self.data[i][:] + rhs.data[i][:] for i in range(n)]
        pivots = _rref_inplace(data, m + k)
        if any(p >= m for p in pivots):
            return None
        out = RatMatrix.zeros(m, k)
        for i, p in enumerate(pivots):
            out.data[p] = data[i][m:]
        return out

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        data = [row[:] for row in self.data]
        n = self.rows
        sign = 1
        acc = _ONE
        for col in range(n):
            piv = None
            for i in range(col, n):
                if data[i][col]:
                    piv = i
                    break
            if piv is None:
                return _ZERO
            if piv != col:
                data[col], data[piv] = data[piv], data[col]
                sign = -sign
            pval = data[col][col]
            acc *= pval
            inv = _ONE / pval
            prow = data[col]
            for i in range(col + 1, n):
                f = data[i][col]
                if f:
                    f *= inv
                    row = data[i]
                    for j in range(col, n):
                        if prow[j]:
                            row[j] = row[j] - f * prow[j]
        return acc if sign > 0 else -acc

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _row_nonzeros(row: list[Fraction]) -> list[tuple[int, Fraction]]:
    """(column, entry) of the nonzero entries of a row."""
    return [(j, x) for j, x in enumerate(row) if x is not _ZERO and x]


def _rref_inplace(data: list[list[Fraction]], cols: int) -> list[int]:
    """Reduce rows in place; returns pivot column indices.  Eliminated entries become ``_ZERO``."""
    pivots: list[int] = []
    nrows = len(data)
    r = 0
    for c in range(cols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            x = data[i][c]
            if x is not _ZERO and x:
                piv = i
                break
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        prow = data[r]
        nz = [j for j in range(c + 1, cols) if (x := prow[j]) is not _ZERO and x]
        pval = prow[c]
        if pval != 1:
            inv = _ONE / pval
            prow[c] = _ONE
            for j in nz:
                prow[j] *= inv
        for i in range(nrows):
            if i != r:
                row = data[i]
                f = row[c]
                if f is not _ZERO and f:
                    for j in nz:
                        row[j] = row[j] - f * prow[j]
                    row[c] = _ZERO
        pivots.append(c)
        r += 1
    return pivots


def _kernel(data: list[list[Fraction]], cols: int) -> tuple[list[int], RatMatrix]:
    """Reduce data in place; returns the free columns and a cols x q matrix whose columns are a basis of the null space.

    Column i belongs to the i-th free column f: it is 1 at f and minus the
    reduced entries of column f at the pivot columns.
    """
    pivots = _rref_inplace(data, cols)
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    basis = [[_ZERO] * len(free) for _ in range(cols)]
    for i, f in enumerate(free):
        basis[f][i] = _ONE
    for row, p in zip(data, pivots):
        out = basis[p]
        for i, f in enumerate(free):
            x = row[f]
            if x is not _ZERO and x:
                out[i] = -x
    return free, RatMatrix(cols, len(free), basis)


# -- subspace helpers ---------------------------------------------------
#
# A subspace of Q^n is an n x k RatMatrix whose columns are a basis; the
# empty subspace is n x 0, so the shape carries the dimension.  The helpers
# below are the plumbing used to restrict, quotient and pull back module
# actions.  Every null space among them comes from _kernel.  They read the
# rows of no matrix: the columns of a subspace, as columns() lists them, are
# the rows that the elimination core reduces, and the rest is RatMatrix's
# methods.


def span_basis(vectors: RatMatrix) -> RatMatrix:
    """Reduced echelon basis of the column space of vectors."""
    rows = vectors.columns()
    rank = len(_rref_inplace(rows, vectors.rows))
    return RatMatrix(rank, vectors.rows, rows[:rank]).transpose()


def preimage_basis(m: RatMatrix, span: RatMatrix) -> RatMatrix:
    """Basis of { v : m @ v lies in the column space of span }.

    The first m.cols coordinates of a null-space basis of (m | span) are
    independent: a null vector (0, w) has span @ w = 0, so w = 0, as the
    columns of span are a basis.
    """
    sols = RatMatrix.block([[m, span]]).kernel_basis()
    return sols.take(range(m.cols), range(sols.cols))


def annihilator_basis(sub: RatMatrix) -> RatMatrix:
    """Basis of the functionals (as columns) vanishing on the columns of sub."""
    return _kernel(sub.columns(), sub.rows)[1]


def quotient_maps(sub: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Projection and complement for Q^n modulo the column space of sub.

    Returns (proj, free): proj of shape q x n with kernel(proj) exactly
    the subspace, and the q free columns, whose unit vectors span a
    complement.  proj's rows are the annihilator basis of the subspace, one
    per free column, so proj.take(range(q), free) is the identity.
    """
    free, ann = _kernel(sub.columns(), sub.rows)
    return ann.transpose(), free


def restrict_to_invariant(m: RatMatrix, basis: RatMatrix) -> RatMatrix:
    """Matrix of m on an invariant subspace, in the coordinates of its basis columns."""
    sol = basis.solve_matrix(m @ basis)
    if sol is None:
        raise ValueError("subspace is not invariant under the map")
    return sol


def express_in_basis(vectors: RatMatrix, basis: RatMatrix) -> RatMatrix:
    """Coordinates of each column of vectors in the basis columns; raises if outside their span."""
    sol = basis.solve_matrix(vectors)
    if sol is None:
        raise ValueError("vector outside the spanning set")
    return sol
