"""Matrix models of the modules and the independent tensor-product oracle.

The algebra is generated by a, b, c, d with

    ba = -ab   db = -bd   ca = -ac   dc = -cd   bc = cb
    a^2 = 0    b^2 = 1    c^2 = 1    d^2 = 0    da + ad = 1 - bc

A :class:`Representation` stores the four generator actions as exact
rational matrices.  :func:`build` produces the standard model of each
label, :func:`tensor` and :func:`dual` implement the comultiplication and
antipode, and :func:`decompose` splits an arbitrary representation into
labelled indecomposables -- without ever consulting the symbolic
multiplication table, so the two can be checked against each other.

The decomposition works on the (b, c) weight spaces:

1. b and c are commuting involutions, and a and d send weight (β, γ) to
   (-β, -γ).  :func:`_weight_split` reads the weights off the diagonals of
   b and c and cuts a and d into blocks between paired weight spaces; it
   computes joint eigenvectors only for modules in other bases.  Weights
   (1,-1) and (-1,1) make up the bc = -1 part, a semisimple pile of
   two-dimensional simples counted by the ranks of its blocks.
2. On the bc = +1 part, weights (1,1) and (-1,-1), the square of the
   radical isolates the multiplicities of the four-dimensional projectives.
3. What remains has radical square zero.  For each b eigenvalue, the a and
   d blocks from the top on that side to the socle on the other side form
   a matrix pencil.  Kronecker's classification of pencils then yields the
   string (syzygy/cosyzygy) and band summands, with the band parameter
   read off the generalised eigenvalues.  These are found without
   factoring any integer: the square-free part of the characteristic
   polynomial, made monic by scaling its variable, has integers for its
   rational roots, and Sturm-sequence bisection isolates them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .green import (
    ETA_INF,
    Eta,
    Label,
    LabelKind,
    band,
    label_dimension,
    omega,
    projective,
    simple_one,
    simple_two,
)
from .linalg import (
    _ZERO,
    _nonzeros,
    RatMatrix,
    annihilator_basis,
    express_in_basis,
    preimage_basis,
    quotient_maps,
    restrict_to_invariant,
    span_basis,
)

class DecompositionError(RuntimeError):
    """Raised when a representation cannot be split over the rationals.

    Signals either corrupted input (the defining relations fail, the
    claimed module structure is absent) or a genuine rationality gap
    (an indecomposable summand not defined over Q).
    """


@dataclass(frozen=True)
class Representation:
    """Actions of the four generators on a finite-dimensional module."""

    a: RatMatrix
    b: RatMatrix
    c: RatMatrix
    d: RatMatrix

    def __post_init__(self):
        n = self.a.rows
        for mat in (self.a, self.b, self.c, self.d):
            if mat.rows != n or mat.cols != n:
                raise ValueError("generator actions must be square matrices of one size")

    @property
    def dim(self) -> int:
        return self.a.rows

    def generators(self) -> tuple[RatMatrix, RatMatrix, RatMatrix, RatMatrix]:
        return (self.a, self.b, self.c, self.d)


@dataclass
class HomSpace:
    """Basis of the space of intertwiners between two representations."""

    source_dim: int
    target_dim: int
    basis: list[RatMatrix]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class RMatrixElement:
    """Universal braiding element: integer tensor words over a common denominator.

    Each term is ((i,j,l,k), (i',j',l',k'), coefficient) standing for the
    monomial a^i b^j c^l d^k tensor a^i' b^j' c^l' d^k'.
    """

    terms: tuple
    denominator: int


R_MATRIX = RMatrixElement(
    terms=(
        ((0, 0, 0, 0), (0, 0, 0, 0), 1),
        ((0, 1, 0, 0), (0, 0, 0, 0), 1),
        ((0, 0, 0, 0), (0, 0, 1, 0), 1),
        ((0, 1, 0, 0), (0, 0, 1, 0), -1),
        ((1, 0, 0, 0), (0, 0, 0, 1), 1),
        ((1, 1, 0, 0), (0, 0, 0, 1), 1),
        ((1, 0, 0, 0), (0, 0, 1, 1), 1),
        ((1, 1, 0, 0), (0, 0, 1, 1), -1),
    ),
    denominator=2,
)


# -- construction of the standard models ---------------------------------


def _simple_one_rep(r: int) -> Representation:
    sign = 1 if r == 0 else -1
    z = RatMatrix.zeros(1, 1)
    s = RatMatrix.from_rows([[sign]])
    return Representation(z, s, s, z)


def _simple_two_rep(r: int) -> Representation:
    e = 1 if r == 0 else -1
    a = RatMatrix.from_rows([[0, 0], [1, 0]])
    d = RatMatrix.from_rows([[0, 2], [0, 0]])
    b = RatMatrix.diagonal([e, -e])
    c = RatMatrix.diagonal([-e, e])
    return Representation(a, b, c, d)


def _projective_rep(r: int) -> Representation:
    e = 1 if r == 0 else -1
    a = RatMatrix.zeros(4, 4)
    a.data[1][0] = Fraction(1)
    a.data[3][2] = Fraction(1)
    d = RatMatrix.zeros(4, 4)
    d.data[2][0] = Fraction(1)
    d.data[3][1] = Fraction(-1)
    b = RatMatrix.diagonal([e, -e, -e, e])
    return Representation(a, b, b.copy(), d)


def _band_rep(s: int, r: int, e: Eta) -> Representation:
    # basis order: v_{1,1}..v_{1,s}, v_{2,1}..v_{2,s}
    n = 2 * s
    a = RatMatrix.zeros(n, n)
    d = RatMatrix.zeros(n, n)
    if e.is_infinite:
        for i in range(1, s):
            a.data[s + i - 1][i] = Fraction(1)
        for i in range(s):
            d.data[s + i][i] = Fraction(1)
    else:
        for i in range(s):
            a.data[s + i][i] = Fraction(1)
            d.data[s + i][i] = -e.value
            if i >= 1:
                d.data[s + i - 1][i] = Fraction(-1)
    top = 1 if r == 1 else -1
    b = RatMatrix.diagonal([top] * s + [-top] * s)
    return Representation(a, b, b.copy(), d)


def build(label: Label) -> Representation:
    """Standard representation of a label; cached, treat as immutable."""
    return _build_cached(label)


@lru_cache(maxsize=None)
def _build_cached(label: Label) -> Representation:
    kind = label.kind
    if kind is LabelKind.SIMPLE_ONE:
        return _simple_one_rep(label.r)
    if kind is LabelKind.SIMPLE_TWO:
        return _simple_two_rep(label.r)
    if kind is LabelKind.PROJECTIVE:
        return _projective_rep(label.r)
    if kind is LabelKind.BAND:
        return _band_rep(label.s, label.r, label.eta)
    if kind is LabelKind.SYZYGY:
        rep = build(simple_one(label.r))
        for _ in range(label.s):
            rep = syzygy(rep)
        return rep
    return dual(build(omega(label.s, label.r)))


def check_relations(rep: Representation) -> bool:
    """All ten defining relations, exactly."""
    a, b, c, d = rep.generators()
    n = rep.dim
    ident = RatMatrix.identity(n)
    zero = RatMatrix.zeros(n, n)
    return (
        b @ a == -(a @ b)
        and d @ b == -(b @ d)
        and c @ a == -(a @ c)
        and d @ c == -(c @ d)
        and b @ c == c @ b
        and a @ a == zero
        and b @ b == ident
        and c @ c == ident
        and d @ d == zero
        and d @ a + a @ d == ident - b @ c
    )


# -- monoidal structure ----------------------------------------------------


def _coproduct(x: RatMatrix, y: RatMatrix, z: RatMatrix) -> RatMatrix:
    """x (x) y + 1 (x) z, for square x, y and z with y and z of one size.

    1 (x) z is z in every diagonal block, so z is added into the diagonal
    blocks of x (x) y in place rather than formed as a second dense matrix.
    """
    out = x.kron(y)
    k = z.rows
    for i in range(x.rows):
        base = i * k
        for r, zrow in enumerate(z.data):
            row = out.data[base + r]
            for j, v in enumerate(zrow):
                if v is not _ZERO and v:
                    row[base + j] += v
    return out


def tensor(m: Representation, n: Representation) -> Representation:
    """Tensor product along the comultiplication a -> a(x)b + 1(x)a, d -> d(x)c + 1(x)d."""
    return Representation(
        _coproduct(m.a, n.b, n.a), m.b.kron(n.b), m.c.kron(n.c), _coproduct(m.d, n.c, n.d)
    )


def dual(m: Representation) -> Representation:
    """Dual module via the antipode: S(a) = ba, S(b) = b, S(c) = c, S(d) = cd."""
    return Representation(
        (m.b @ m.a).transpose(),
        m.b.transpose(),
        m.c.transpose(),
        (m.c @ m.d).transpose(),
    )


def direct_sum(reps: list[Representation]) -> Representation:
    dims = [r.dim for r in reps]
    total = sum(dims)

    def block(pick) -> RatMatrix:
        out = RatMatrix.zeros(total, total)
        off = 0
        for r in reps:
            mat = pick(r)
            for i in range(r.dim):
                row = out.data[off + i]
                src = mat.data[i]
                for j in range(r.dim):
                    if src[j]:
                        row[off + j] = src[j]
            off += r.dim
        return out

    return Representation(
        block(lambda r: r.a), block(lambda r: r.b), block(lambda r: r.c), block(lambda r: r.d)
    )


# -- hom spaces and isomorphism --------------------------------------------


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """All F with F a_M = a_N F (and likewise for b, c, d)."""
    nm, nn = m.dim, n.dim
    if nm == 0 or nn == 0:
        return HomSpace(nm, nn, [])
    blocks = []
    i_m = RatMatrix.identity(nm)
    i_n = RatMatrix.identity(nn)
    for xm, xn in zip(m.generators(), n.generators()):
        blocks.append(i_m.kron(xn) - xm.transpose().kron(i_n))
    stacked = RatMatrix(
        4 * nm * nn, nm * nn, [row for blk in blocks for row in blk.data]
    )
    basis = []
    for vec in stacked.kernel_basis():
        # column-major unvec: entry (i, j) of F sits at index j*nn + i
        mat = RatMatrix.zeros(nn, nm)
        for j in range(nm):
            for i in range(nn):
                mat.data[i][j] = vec[j * nn + i]
        basis.append(mat)
    return HomSpace(nm, nn, basis)


def is_isomorphic(m: Representation, n: Representation, seed: int | None = None) -> bool:
    """Exact isomorphism test.

    Searches for an invertible intertwiner among random integer
    combinations of the hom basis with doubling coefficient bounds, then a
    bounded deterministic enumeration.  A returned False is always
    certified by a rank bound on the joint column space; if neither a
    witness nor the certificate is found the test raises rather than
    guess.
    """
    if m.dim != n.dim:
        return False
    if m.dim == 0:
        return True
    hom = hom_space(m, n)
    if not hom.basis:
        return False
    rng = random.Random(seed)
    k = len(hom.basis)

    def combine(coeffs) -> RatMatrix:
        acc = RatMatrix.zeros(n.dim, m.dim)
        for coef, mat in zip(coeffs, hom.basis):
            if coef:
                acc = acc + mat.scale(coef)
        return acc

    bound = 2
    for _ in range(8):
        cand = combine([rng.randint(-bound, bound) for _ in range(k)])
        if cand.is_invertible():
            return True
        bound *= 2
    if 5**k <= 200_000:
        for coeffs in itertools.product(range(-2, 3), repeat=k):
            if any(coeffs) and combine(coeffs).is_invertible():
                return True
    stacked = RatMatrix(
        n.dim, m.dim * k, [sum((hom.basis[t].data[i] for t in range(k)), []) for i in range(n.dim)]
    )
    if stacked.rank() < n.dim:
        return False
    raise RuntimeError("isomorphism test inconclusive: no invertible combination found")


# -- the (b, c) weight split ------------------------------------------------

# The four (b, c) weights in the order _weight_split lists them.  Weights w
# and w ^ 1 are paired: a and d send each to the other.
_WEIGHTS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


class _Graded(NamedTuple):
    """The a and d actions on one bc eigenspace, split by the b eigenvalue.

    Side p is the weight space where b = (-1)^p.  a[p] and d[p] map side p
    to side 1 - p, as (dim of side 1 - p) x (dim of side p) matrices.
    """

    a: tuple[RatMatrix, RatMatrix]
    d: tuple[RatMatrix, RatMatrix]

    @property
    def dims(self) -> tuple[int, int]:
        return self.a[0].cols, self.a[1].cols


def _joint_eigenbasis(rep: Representation) -> tuple[Representation, RatMatrix]:
    """rep in a basis of joint eigenvectors of b and c, listed by weight, and that basis.

    Raises DecompositionError when the joint kernels do not fill the module.
    """
    n = rep.dim
    ident = RatMatrix.identity(n)
    shifted = [(rep.b - ident.scale(beta)).data + (rep.c - ident.scale(gamma)).data for beta, gamma in _WEIGHTS]
    spaces = [RatMatrix(2 * n, n, rows).kernel_basis() for rows in shifted]
    dims = [len(space) for space in spaces]
    if sum(dims) != n:
        raise DecompositionError(
            "b and c are not commuting involutions; defining relations fail: (b, c) weight-space "
            f"dimensions {dict(zip(_WEIGHTS, dims))} sum to {sum(dims)}, not n = {n}"
        )
    pmat = RatMatrix.from_columns([v for space in spaces for v in space], rows=n)
    pinv = pmat.inverse()
    b, c = (RatMatrix.diagonal([w[k] for w, space in zip(_WEIGHTS, spaces) for _ in space]) for k in (0, 1))
    return Representation(pinv @ rep.a @ pmat, b, c, pinv @ rep.d @ pmat), pmat


def _weight_split(rep: Representation) -> tuple[_Graded, _Graded, list[RatMatrix]]:
    """The (b, c) weight spaces of a module and the a, d blocks between them.

    Returns (plus, minus, basis): the bc = +1 and bc = -1 parts as
    :class:`_Graded` blocks, and per weight in ``_WEIGHTS`` order the matrix
    of its basis vectors.  Weights are read off the diagonals of b and c; a
    module in another basis is first rewritten by :func:`_joint_eigenbasis`.
    Raises DecompositionError when a or d has a part outside the flipped weight.
    """
    n = rep.dim
    groups = [[i for i in range(n) if (rep.b.data[i][i], rep.c.data[i][i]) == w] for w in _WEIGHTS]
    off_diagonal = any(j != i for m in (rep.b, rep.c) for i, row in enumerate(_nonzeros(m.data)) for j, _ in row)
    if off_diagonal or sum(map(len, groups)) != n:
        rewritten, pmat = _joint_eigenbasis(rep)
        plus, minus, basis = _weight_split(rewritten)
        return plus, minus, [pmat @ m for m in basis]
    weight = {i: w for w, group in enumerate(groups) for i in group}
    blocks = []
    for name, rows in (("a", rep.a.data), ("d", rep.d.data)):
        kept = [weight[j] for i, row in enumerate(_nonzeros(rows)) for j, _ in row if weight[i] != weight[j] ^ 1]
        if kept:
            raise DecompositionError(
                f"{name} does not send each (b, c) weight to its negative: "
                f"it sends part of weight {_WEIGHTS[min(kept)]} outside weight {_WEIGHTS[min(kept) ^ 1]}"
            )
        blocks.append([
            RatMatrix(len(groups[w ^ 1]), len(cols), [[rows[i][j] for j in cols] for i in groups[w ^ 1]])
            for w, cols in enumerate(groups)
        ])
    a, d = blocks
    ident = RatMatrix.identity(n).data
    basis = [RatMatrix.from_columns([ident[i] for i in group], rows=n) for group in groups]
    return _Graded((a[0], a[1]), (d[0], d[1])), _Graded((a[2], a[3]), (d[2], d[3])), basis


def _embed(basis: RatMatrix, vectors: list) -> list[list[Fraction]]:
    """Module coordinates of vectors given in the coordinates of a weight basis."""
    return (basis @ RatMatrix.from_columns(vectors, rows=basis.cols)).columns()


# -- radical series ---------------------------------------------------------


def _radical(part: _Graded, sub: list | None = None) -> list[list[list[Fraction]]]:
    """J U = a(U) + d(U) for a graded subspace U of a bc = +1 part.

    U and the result are given side by side, as a basis of each side; U
    defaults to the whole part.
    """
    out = []
    for p in (0, 1):
        gens = (part.a[1 - p], part.d[1 - p])
        if sub is None:
            vectors = [col for g in gens for col in g.columns()]
        else:
            u = RatMatrix.from_columns(sub[1 - p], rows=part.dims[1 - p])
            vectors = [col for g in gens for col in (g @ u).columns()]
        out.append(span_basis(vectors, part.dims[p]))
    return out


def _socle(part: _Graded) -> list[list[list[Fraction]]]:
    """Side by side, the joint kernel of a and d on a bc = +1 part."""
    return [RatMatrix(2 * a.rows, a.cols, a.data + d.data).kernel_basis() for a, d in zip(part.a, part.d)]


def radical_basis(rep: Representation) -> list[list[Fraction]]:
    """Basis of JM.

    The radical ideal is spanned by a and d cut to the bc = +1 part, so JM
    is a(M+) + d(M+), graded by the b eigenvalue.
    """
    plus, _, basis = _weight_split(rep)
    return [v for p, side in enumerate(_radical(plus)) for v in _embed(basis[p], side)]


def socle_basis(rep: Representation) -> list[list[Fraction]]:
    """Basis of the socle, the joint kernel of the radical action.

    The radical kills the bc = -1 part, and on side p of the bc = +1 part
    the socle is the joint kernel of a[p] and d[p].
    """
    plus, _, basis = _weight_split(rep)
    out = basis[2].columns() + basis[3].columns()
    for p, side in enumerate(_socle(plus)):
        out += _embed(basis[p], side)
    return out


def loewy_length(rep: Representation) -> int:
    """Least k with J^k M = 0 (at most 3 for genuine modules)."""
    if rep.dim == 0:
        return 0
    plus, _, _ = _weight_split(rep)
    layer = _radical(plus)
    k = 1
    while any(layer):
        layer = _radical(plus, layer)
        k += 1
        if k > rep.dim + 1:
            raise DecompositionError("radical series does not terminate")
    return k


# -- projective covers and syzygies -----------------------------------------


def _restrict(rep: Representation, basis: list) -> Representation:
    return Representation(
        restrict_to_invariant(rep.a, basis),
        restrict_to_invariant(rep.b, basis),
        restrict_to_invariant(rep.c, basis),
        restrict_to_invariant(rep.d, basis),
    )


def projective_cover_map(rep: Representation) -> tuple[Representation, RatMatrix]:
    """Projective cover and the covering surjection.

    The top splits by weight.  On side p of the bc = +1 part, each vector u
    of a complement of the radical gives a P(p) summand on the columns
    (u, au, du, adu).  On side r of the bc = -1 part, each vector w killed
    by d gives a V(2,r) summand on the columns (w, aw).
    """
    n = rep.dim
    if n == 0:
        return rep, RatMatrix.zeros(0, 0)
    plus, minus, basis = _weight_split(rep)
    jm = _radical(plus)

    pieces: list[Representation] = []
    columns: list[list[Fraction]] = []

    for p in (0, 1):
        _, u = quotient_maps(jm[p], plus.dims[p])
        du = plus.d[p] @ u
        images = (
            basis[p] @ u,
            basis[1 - p] @ (plus.a[p] @ u),
            basis[1 - p] @ du,
            basis[p] @ (plus.a[1 - p] @ du),
        )
        for j in range(u.cols):
            pieces.append(build(projective(p)))
            columns.extend(m.column(j) for m in images)

    for r in (0, 1):
        w = RatMatrix.from_columns(minus.d[r].kernel_basis(), rows=minus.dims[r])
        images = (basis[2 + r] @ w, basis[3 - r] @ (minus.a[r] @ w))
        for j in range(w.cols):
            pieces.append(build(simple_two(r)))
            columns.extend(m.column(j) for m in images)

    cover = direct_sum(pieces)
    phi = RatMatrix.from_columns(columns, rows=n)
    for xc, xm in zip(cover.generators(), rep.generators()):
        if phi @ xc != xm @ phi:
            raise DecompositionError("projective cover map is not a module map")
    if phi.rank() != n:
        raise DecompositionError("projective cover map is not surjective")
    return cover, phi


def syzygy(rep: Representation) -> Representation:
    """Kernel of the projective cover, as a representation."""
    cover, phi = projective_cover_map(rep)
    kernel = phi.kernel_basis()
    if not kernel:
        return Representation(
            RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 0)
        )
    return _restrict(cover, kernel)


def cosyzygy(rep: Representation) -> Representation:
    return dual(syzygy(dual(rep)))


# -- band parameter recovery -------------------------------------------------


def recover_eta(rep: Representation) -> Eta:
    """Band parameter of an indecomposable (s,s)-type representation.

    The socle lies on one side of the bc = +1 part and the top on the
    other, so a and d restrict to s x s blocks from top to socle.  The one
    vector v (up to scalar) of the top whose images av, dv span at most a
    line fixes the parameter by dv = -eta * av, with av = 0 marking the
    point at infinity.
    """
    n = rep.dim
    if n == 0 or n % 2:
        raise ValueError("not an (s,s)-type representation")
    s = n // 2
    plus, minus, _ = _weight_split(rep)
    if any(minus.dims):
        raise ValueError("band modules have bc acting as the identity")
    soc = _socle(plus)
    if len(soc[0]) + len(soc[1]) != s:
        raise ValueError("socle length does not match (s,s)-type")
    if soc[0] and soc[1]:
        raise ValueError("socle is not b-isotypic")
    top = 1 if soc[0] else 0
    if plus.dims[top] != s:
        raise ValueError("top eigencomponent has the wrong dimension")
    ae, de = plus.a[top], plus.d[top]
    ker = ae.kernel_basis()
    if ker:
        if len(ker) != 1:
            raise ValueError("kernel vector is not unique; not an (s,s) band")
        if not any(de.apply(ker[0])):
            raise ValueError("candidate vector has av = dv = 0")
        return ETA_INF
    x = ae.solve_matrix(de)
    if x is None:
        raise ValueError("d does not act through a on the top component")
    trace = sum(x.data[i][i] for i in range(s))
    value = -trace / s
    shifted = x + RatMatrix.identity(s).scale(value)
    power = shifted
    for _ in range(s - 1):
        power = power @ shifted
    if not power.is_zero():
        raise ValueError("top action is not a single generalised eigenvalue")
    ker_v = (de + ae.scale(value)).kernel_basis()
    if len(ker_v) != 1:
        raise ValueError("collinear vector is not unique")
    return Eta(value)


# -- Kronecker pencil machinery ---------------------------------------------


class _BadShift(Exception):
    """Internal: the chosen pencil shift hits a band eigenvalue."""


def _chain_counts(a1: RatMatrix, delta: RatMatrix) -> tuple[dict[int, int], list, list]:
    """Minimal-index staircase of the pencil (a1, delta).

    Returns (counts, T_part_basis, S_part_basis) where counts[s] is the
    number of (s+1) x s singular blocks; requires a1 to be injective on
    the regular part (guaranteed by a good shift, checked by the caller).
    """
    dim_t, dim_s = a1.cols, a1.rows
    k = span_basis(a1.kernel_basis(), dim_t)
    dims = [0, len(k)]
    while True:
        img = span_basis((delta @ RatMatrix.from_columns(k, rows=dim_t)).columns(), dim_s)
        k2 = preimage_basis(a1, img)
        if len(k2) == len(k):
            break
        if len(k2) < len(k):
            raise _BadShift
        k = k2
        dims.append(len(k))
    incs = [dims[i] - dims[i - 1] for i in range(1, len(dims))]
    incs.append(0)
    counts: dict[int, int] = {}
    for s in range(len(incs) - 1):
        cnt = incs[s] - incs[s + 1]
        if cnt < 0:
            raise _BadShift
        if cnt:
            counts[s] = cnt
    # the loop ends with img = delta(k) for the final k
    t_part, s_part = k, img
    if sum((s + 1) * c for s, c in counts.items()) != len(t_part):
        raise _BadShift
    if sum(s * c for s, c in counts.items()) != len(s_part):
        raise _BadShift
    return counts, t_part, s_part


def _charpoly(mat: RatMatrix) -> list[Fraction]:
    """Characteristic polynomial det(xI - mat), coefficients low to high.

    Computed exactly by evaluating the determinant at m+1 integer points
    and interpolating (Newton form); basis-invariant by construction.
    """
    m = mat.rows
    xs = [Fraction(k) for k in range(m + 1)]
    ident = RatMatrix.identity(m)
    coef = [(ident.scale(x) - mat).det() for x in xs]
    for j in range(1, m + 1):
        for i in range(m, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * (m + 1)
    acc = [Fraction(1)]
    for k in range(m + 1):
        for idx, c in enumerate(acc):
            poly[idx] += coef[k] * c
        nxt = [Fraction(0)] * (len(acc) + 1)
        for idx, c in enumerate(acc):
            nxt[idx + 1] += c
            nxt[idx] -= c * xs[k]
        acc = nxt
    return poly


def _poly_eval(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder over Q; coefficients low to high, no trailing zeros."""
    rem = [Fraction(c) for c in num]
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for shift in reversed(range(len(quo))):
        q = quo[shift] = rem[shift + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            rem[shift + i] -= q * c
    rem = rem[: len(den) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _derivative(poly: list) -> list:
    return [i * c for i, c in enumerate(poly)][1:]


def _sign_changes(seq: list[list[Fraction]], x: int) -> int:
    """Sign changes of the Sturm sequence at x, zeros skipped.

    The values are computed here, not by _poly_eval, which is reserved for
    the exact test of each root candidate.
    """
    signs = []
    for poly in seq:
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        if acc:
            signs.append(acc > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _integer_roots(h: list[int]) -> list[int]:
    """Integer roots of a square-free monic integer polynomial of degree >= 1.

    Sturm's theorem counts the real roots in (lo, hi] as the drop in sign
    changes from lo to hi.  Bisection on integers, starting from the Cauchy
    bound, keeps only intervals that hold a real root; each unit interval
    left is one candidate, its right end, tested exactly with _poly_eval.
    """
    seq = [h, _derivative(h)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _poly_divmod(seq[-2], seq[-1])[1]])
    bound = 1 + max(abs(c) for c in h[:-1])
    found = []
    todo = [(-bound, _sign_changes(seq, -bound), bound, _sign_changes(seq, bound))]
    while todo:
        lo, v_lo, hi, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _poly_eval(h, hi) == 0:
                found.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = _sign_changes(seq, mid)
        todo += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return found


def _rational_eigen_blocks(phi: RatMatrix) -> list[tuple[Fraction, list[int]]]:
    """Rational eigenvalues of phi with Jordan block sizes.

    The eigenvalues are found without factoring any integer.  The square-free
    part p / gcd(p, p') of the characteristic polynomial p, with denominators
    cleared and a simple root at zero split off, is an integer polynomial g
    of degree n with leading coefficient L.  Substituting y = L x gives the
    monic h(y) = L^(n-1) g(y / L), whose rational roots are integers; they
    are isolated by _integer_roots and mapped back to x = y / L.  Each
    eigenvalue gets its Jordan data from kernel ranks.  Raises when the
    blocks do not exhaust the space, i.e. some eigenvalue is irrational.
    """
    m = phi.rows
    if m == 0:
        return []
    poly = _charpoly(phi)
    gcd, rem = poly, _derivative(poly)
    while rem:
        gcd, rem = rem, _poly_divmod(gcd, rem)[1]
    free = _poly_divmod(poly, gcd)[0]
    den = lcm(*[c.denominator for c in free])
    g = [int(c * den) for c in free]
    roots: set[Fraction] = set()
    if not g[0]:
        roots.add(Fraction(0))
        g = g[1:]
    n, lead = len(g) - 1, g[-1]
    if n:
        h = [c * lead ** (n - 1 - i) for i, c in enumerate(g[:-1])] + [1]
        roots.update(Fraction(y, lead) for y in _integer_roots(h))

    ident = RatMatrix.identity(m)
    blocks: list[tuple[Fraction, list[int]]] = []
    total = 0
    for theta in sorted(roots):
        shifted = phi - ident.scale(theta)
        kdims = [0]
        power = ident
        while True:
            power = power @ shifted
            kd = m - power.rank()
            if kd == kdims[-1]:
                break
            kdims.append(kd)
        if len(kdims) == 1:
            continue
        geq = [kdims[i] - kdims[i - 1] for i in range(1, len(kdims))]
        geq.append(0)
        sizes = []
        for j in range(len(geq) - 1):
            sizes.extend([j + 1] * (geq[j] - geq[j + 1]))
        blocks.append((theta, sizes))
        total += sum(sizes)
    if total != m:
        raise DecompositionError(
            "band part has non-rational generalised eigenvalues (rationality gap): "
            f"the rational eigenvalues cover {total} of the {m} dimensions of the block"
        )
    return blocks


def _kronecker_blocks(alpha: RatMatrix, delta: RatMatrix):
    """Full Kronecker block data of the pencil (alpha, delta): T -> S.

    Returns (up, down, bands): counts of (s+1) x s blocks by s >= 0,
    counts of u x (u+1) blocks by u >= 1, and a list of (size, Eta) for
    the regular part.
    """
    shifts = [Fraction(0)]
    for k in range(1, alpha.rows + 3):
        shifts.extend((Fraction(k), Fraction(-k)))
    for c in shifts:
        try:
            return _kronecker_with_shift(alpha, delta, c)
        except _BadShift:
            pass
    raise DecompositionError(
        f"no pencil shift separates the band part of the {alpha.rows} x {alpha.cols} "
        f"pencil: {len(shifts)} shifts tried"
    )


def _kronecker_with_shift(alpha: RatMatrix, delta: RatMatrix, c: Fraction):
    dim_t, dim_s = alpha.cols, alpha.rows
    a1 = alpha + delta.scale(c) if c else alpha

    up_counts, t_left, s_left = _chain_counts(a1, delta)

    proj_t, lift_t = quotient_maps(t_left, dim_t)
    proj_s, _ = quotient_maps(s_left, dim_s)
    abar = proj_s @ a1 @ lift_t
    dbar = proj_s @ delta @ lift_t

    down_counts_raw, s_right, t_right = _chain_counts(abar.transpose(), dbar.transpose())
    if down_counts_raw.get(0):
        raise DecompositionError("socle vectors outside the image of the radical action")

    t_reg = annihilator_basis(t_right, abar.cols)
    s_reg = annihilator_basis(s_right, abar.rows)
    m = dim_t - len(t_left) - sum(u * cnt for u, cnt in down_counts_raw.items())
    if len(t_reg) != m or len(s_reg) != m:
        raise _BadShift

    bands: list[tuple[int, Eta]] = []
    if m:
        t_reg_mat = RatMatrix.from_columns(t_reg, rows=abar.cols)
        try:
            a_reg = express_in_basis((abar @ t_reg_mat).columns(), s_reg, abar.rows)
            d_reg = express_in_basis((dbar @ t_reg_mat).columns(), s_reg, abar.rows)
        except ValueError as exc:
            raise _BadShift from exc
        if not a_reg.is_invertible():
            raise _BadShift
        phi = a_reg.inverse() @ d_reg
        for theta, sizes in _rational_eigen_blocks(phi):
            # theta = -eta/(1 - c*eta); c*theta = 1 marks the infinite point
            if c * theta == 1:
                e = ETA_INF
            else:
                e = Eta(theta / (c * theta - 1))
            bands.extend((size, e) for size in sizes)

    down_counts = {u: cnt for u, cnt in down_counts_raw.items() if u >= 1}
    return up_counts, down_counts, bands


# -- full decomposition -------------------------------------------------------


def _two_dim_labels(part: _Graded) -> list[Label]:
    """Labels of the bc = -1 part: a semisimple pile of two-dimensional simples."""
    half = part.dims[0]
    if part.dims[1] != half:
        raise DecompositionError("b eigenspaces of the bc = -1 block are unbalanced")
    m0, m1 = part.a[0].rank(), part.a[1].rank()
    if m0 + m1 != half:
        raise DecompositionError("bc = -1 block is not a sum of two-dimensional simples")
    if part.d[0].rank() != m1 or part.d[1].rank() != m0:
        raise DecompositionError("d action inconsistent on the bc = -1 block")
    return [simple_two(0)] * m0 + [simple_two(1)] * m1


def _ll2_labels(part: _Graded) -> list[Label]:
    """Labels of a radical-square-zero bc = +1 part.

    a and d map the top of side p into the socle of side 1 - p; the
    Kronecker blocks of that pencil are the summands whose top has
    b = (-1)^p.
    """
    soc = _radical(part)
    labels: list[Label] = []
    for p in (0, 1):
        q = 1 - p
        _, lift = quotient_maps(soc[p], part.dims[p])
        alpha = express_in_basis((part.a[p] @ lift).columns(), soc[q], part.dims[q])
        delta = express_in_basis((part.d[p] @ lift).columns(), soc[q], part.dims[q])
        up, down, bands = _kronecker_blocks(alpha, delta)
        for s, cnt in up.items():
            lab = simple_one(p) if s == 0 else Label(LabelKind.SYZYGY, (p + s) % 2, s)
            labels.extend([lab] * cnt)
        for u, cnt in down.items():
            labels.extend([Label(LabelKind.COSYZYGY, (p + u + 1) % 2, u)] * cnt)
        for size, e in bands:
            labels.append(band(size, p + 1, e))
    return labels


def _one_dim_type_labels(part: _Graded) -> list[Label]:
    """Labels of the bc = +1 part: projectives plus the radical-square-zero core."""
    j2 = _radical(part, _radical(part))
    if any(_radical(part, j2)):
        raise DecompositionError("radical cube is nonzero")
    # the core is the quotient by J^2, whose radical square is zero
    proj, lift = zip(*(quotient_maps(j2[p], part.dims[p]) for p in (0, 1)))
    core = _Graded(
        tuple(proj[1 - p] @ part.a[p] @ lift[p] for p in (0, 1)),
        tuple(proj[1 - p] @ part.d[p] @ lift[p] for p in (0, 1)),
    )
    labels = _ll2_labels(core)
    for r in (0, 1):
        count = len(j2[r])
        shadow = Label(LabelKind.COSYZYGY, r, 1)
        for _ in range(count):
            try:
                labels.remove(shadow)
            except ValueError:
                raise DecompositionError(
                    "projective socle without its cosyzygy shadow in the core"
                ) from None
        labels.extend([projective(r)] * count)
    return labels


def decompose(rep: Representation) -> list[Label]:
    """Multiset of indecomposable labels of a representation, sorted.

    Deterministic.  Raises DecompositionError when the input does not split
    into the known label set over the rationals.
    """
    n = rep.dim
    if n == 0:
        return []
    plus, minus, _ = _weight_split(rep)
    labels = sorted(_two_dim_labels(minus) + _one_dim_type_labels(plus))
    if sum(label_dimension(l) for l in labels) != n:
        raise DecompositionError("decomposition does not exhaust the space")
    return labels


# -- braiding ------------------------------------------------------------------


def _word_action(rep: Representation, exps: tuple[int, int, int, int]) -> RatMatrix:
    mat = RatMatrix.identity(rep.dim)
    for gen, e in zip(rep.generators(), exps):
        if e:
            mat = mat @ gen
    return mat


def r_matrix_action(m: Representation, n: Representation) -> RatMatrix:
    """Action of the universal braiding element on the tensor product."""
    total = RatMatrix.zeros(m.dim * n.dim, m.dim * n.dim)
    for em, en, coeff in R_MATRIX.terms:
        term = _word_action(m, em).kron(_word_action(n, en))
        total = total + (term.scale(coeff) if coeff != 1 else term)
    return total.scale(Fraction(1, R_MATRIX.denominator))


def braiding_check(m: Representation, n: Representation) -> bool:
    """Whether flip . R is an invertible intertwiner M(x)N -> N(x)M."""
    nm, nn = m.dim, n.dim
    rmat = r_matrix_action(m, n)
    flip = RatMatrix.zeros(nm * nn, nm * nn)
    for i in range(nm):
        for j in range(nn):
            flip.data[j * nm + i][i * nn + j] = Fraction(1)
    f = flip @ rmat
    mn = tensor(m, n)
    nmr = tensor(n, m)
    if not f.is_invertible():
        return False
    return all(f @ xm == xn @ f for xm, xn in zip(mn.generators(), nmr.generators()))
