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
   b and c and cuts a and d into blocks between paired weight spaces.  Every
   standard model has diagonal b and c (strings are closed-form zigzags, built
   like the bands), so joint eigenvectors are computed only in other bases.
   Weights (1,-1) and (-1,1) make up the bc = -1 part.  Once its relations
   a^2 = 0, d^2 = 0 and da + ad = 2 are checked, it is a semisimple pile of
   two-dimensional simples counted by the ranks of its a blocks.
2. On the bc = +1 part, weights (1,1) and (-1,-1), the four-dimensional
   projectives are injective, so they split off first: on each side the
   rank of the J^2 block x -> adx counts them.
3. Only the rest, of radical square zero, goes to the pencil.  For each b
   eigenvalue, the a and d blocks from the top on that side to the socle on
   the other side form a matrix pencil.  Kronecker's classification of
   pencils then yields the string (syzygy/cosyzygy) and band summands, with
   the band parameter read off the generalised eigenvalues.  These are
   found without factoring any integer: the square-free part of the
   characteristic polynomial, made monic by scaling its variable, has
   integers for its rational roots, and Sturm-sequence bisection isolates
   them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
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
    simple_two,
)
from .linalg import (
    RatMatrix,
    annihilator_basis,
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


def _simple_two_rep(r: int) -> Representation:
    e = 1 if r == 0 else -1
    a = RatMatrix.from_rows([[0, 0], [1, 0]])
    d = RatMatrix.from_rows([[0, 2], [0, 0]])
    b = RatMatrix.diagonal([e, -e])
    c = RatMatrix.diagonal([-e, e])
    return Representation(a, b, c, d)


def _projective_rep(r: int) -> Representation:
    e = 1 if r == 0 else -1
    a = RatMatrix.from_entries(4, 4, {(1, 0): 1, (3, 2): 1})
    d = RatMatrix.from_entries(4, 4, {(2, 0): 1, (3, 1): -1})
    b = RatMatrix.diagonal([e, -e, -e, e])
    return Representation(a, b, b.copy(), d)


def _band_rep(s: int, r: int, e: Eta) -> Representation:
    # basis order: v_{1,1}..v_{1,s}, v_{2,1}..v_{2,s}
    n = 2 * s
    diagonal = {(s + i, i): 1 for i in range(s)}
    superdiagonal = {(s + i - 1, i): 1 for i in range(1, s)}
    if e.is_infinite:
        a = RatMatrix.from_entries(n, n, superdiagonal)
        d = RatMatrix.from_entries(n, n, diagonal)
    else:
        a = RatMatrix.from_entries(n, n, diagonal)
        d = RatMatrix.from_entries(n, n, {k: -1 for k in superdiagonal} | {k: -e.value for k in diagonal})
    top = 1 if r == 1 else -1
    b = RatMatrix.diagonal([top] * s + [-top] * s)
    return Representation(a, b, b.copy(), d)


def _string_rep(s: int, r: int) -> Representation:
    """O^s V(r), s in Z: a zigzag on 2|s| + 1 vectors with b = c = diag((-1)^(s+r+i)).  The arrow between
    vectors i and i + 1 is d for even i and a for odd i, with coefficient 1, from the top end to the socle
    end; the tops are the even vectors for s >= 0 and the odd ones for s < 0."""
    n = 2 * abs(s) + 1
    arrows = ({}, {})  # d, a
    for i in range(n - 1):
        top, socle = (i, i + 1) if i % 2 == (s < 0) else (i + 1, i)
        arrows[i % 2][socle, top] = 1
    d, a = (RatMatrix.from_entries(n, n, arrow) for arrow in arrows)
    b = RatMatrix.diagonal([1 - 2 * ((s + r + i) % 2) for i in range(n)])
    return Representation(a, b, b.copy(), d)


def build(label: Label) -> Representation:
    """Standard representation of a label; cached, treat as immutable."""
    return _build_cached(label)


@lru_cache(maxsize=None)
def _build_cached(label: Label) -> Representation:
    kind = label.kind
    if kind is LabelKind.SIMPLE_TWO:
        return _simple_two_rep(label.r)
    if kind is LabelKind.PROJECTIVE:
        return _projective_rep(label.r)
    if kind is LabelKind.BAND:
        return _band_rep(label.s, label.r, label.eta)
    return _string_rep(-label.s if kind is LabelKind.COSYZYGY else label.s, label.r)


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


def tensor(m: Representation, n: Representation) -> Representation:
    """Tensor product along the comultiplication a -> a(x)b + 1(x)a, d -> d(x)c + 1(x)d."""
    return Representation(
        m.a.kron_plus(n.b, n.a), m.b.kron(n.b), m.c.kron(n.c), m.d.kron_plus(n.c, n.d)
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
    # the diagonal is picked by position: one cached module may come several times
    def diagonal(k: int) -> RatMatrix:
        return RatMatrix.block(
            [[r.generators()[k] if j == i else None for j in range(len(reps))] for i, r in enumerate(reps)]
        )

    return Representation(*map(diagonal, range(4)))


# -- hom spaces and isomorphism --------------------------------------------


def hom_space(m: Representation, n: Representation) -> list[RatMatrix]:
    """Basis of the intertwiners: all F with F a_M = a_N F (and likewise for b, c, d)."""
    nm, nn = m.dim, n.dim
    i_m = RatMatrix.identity(nm)
    i_n = RatMatrix.identity(nn)
    stacked = RatMatrix.block(
        [[i_m.kron(xn) - xm.transpose().kron(i_n)] for xm, xn in zip(m.generators(), n.generators())]
    )
    # column-major unvec: entry (i, j) of F sits at index j*nn + i
    return [
        RatMatrix.from_columns([vec[j * nn : (j + 1) * nn] for j in range(nm)], rows=nn)
        for vec in stacked.kernel_basis()
    ]


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Exact isomorphism test; each answer is certified.

    False is certified by a rank bound: every intertwiner is a combination
    of the hom basis F_1..F_k, so if the F_i jointly span fewer than dim N
    columns, none is invertible.  True is certified by an invertible
    combination sum c_i F_i.  If M and N are isomorphic, det(sum c_i F_i)
    is a nonzero polynomial of degree dim in the c_i, so by Schwartz-Zippel
    (J. T. Schwartz, J. ACM 27 (1980) 701-717) one draw of each c_i from
    -dim..dim is singular with probability at most dim/(2 dim + 1) < 1/2,
    and all 32 draws miss with probability below 2^-32.  The draws use a
    fixed seed, so the answer is deterministic; if neither certificate is
    found the test raises rather than guess.
    """
    if m.dim != n.dim:
        return False
    hom = hom_space(m, n)
    if RatMatrix.block([hom]).rank() < n.dim:
        return False
    rng = random.Random(0)
    for _ in range(32):
        cand = RatMatrix.zeros(n.dim, m.dim)
        for f in hom:
            cand = cand + f.scale(rng.randint(-m.dim, m.dim))
        if cand.is_invertible():
            return True
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
    spaces = [
        RatMatrix.block([[rep.b.shift(-beta)], [rep.c.shift(-gamma)]]).kernel_basis() for beta, gamma in _WEIGHTS
    ]
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

    The checks count zeros at C speed, never test entry by entry.  Once each
    diagonal entry is a weight, b and c are diagonal iff they have n - 1
    zeros per row, that is n(n - 1) in all, as no row has more.  Likewise a
    or d stays in the flipped weights iff its zeros outside the blocks are
    as many as its entries outside them.
    """
    n = rep.dim
    weights = list(zip(rep.b.diagonal_entries(), rep.c.diagonal_entries()))
    groups = [[i for i, x in enumerate(weights) if x == w] for w in _WEIGHTS]
    if sum(map(len, groups)) != n or rep.b.zero_count() + rep.c.zero_count() != 2 * n * (n - 1):
        rewritten, pmat = _joint_eigenbasis(rep)
        plus, minus, basis = _weight_split(rewritten)
        return plus, minus, [pmat @ m for m in basis]
    blocks = []
    for name, x in (("a", rep.a), ("d", rep.d)):
        block = [x.take(groups[w ^ 1], cols) for w, cols in enumerate(groups)]
        if x.zero_count() - sum(m.zero_count() for m in block) != n * n - sum(m.rows * m.cols for m in block):
            _raise_outside_flipped_weight(name, x, groups)
        blocks.append(block)
    a, d = blocks
    basis = [RatMatrix.from_entries(n, len(group), dict.fromkeys(zip(group, count()), Fraction(1))) for group in groups]
    return _Graded((a[0], a[1]), (d[0], d[1])), _Graded((a[2], a[3]), (d[2], d[3])), basis


def _raise_outside_flipped_weight(name: str, gen: RatMatrix, groups: list[list[int]]):
    """Name the least weight whose part the generator sends outside its negative."""
    weight = {i: w for w, group in enumerate(groups) for i in group}
    kept = [
        weight[j] for j, col in enumerate(gen.columns()) for i, x in enumerate(col) if x and weight[i] != weight[j] ^ 1
    ]
    raise DecompositionError(
        f"{name} does not send each (b, c) weight to its negative: "
        f"it sends part of weight {_WEIGHTS[min(kept)]} outside weight {_WEIGHTS[min(kept) ^ 1]}"
    )


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
    for p, (a, d) in enumerate(zip(plus.a, plus.d)):
        out += _embed(basis[p], RatMatrix.block([[a], [d]]).kernel_basis())
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


def projective_cover_map(rep: Representation) -> tuple[Representation, RatMatrix]:
    """Projective cover and the covering surjection.

    The top splits by weight.  On side p of the bc = +1 part, each vector u
    of a complement of the radical gives a P(p) summand on the columns
    (u, au, du, adu).  On side r of the bc = -1 part, each vector w killed
    by d gives a V(2,r) summand on the columns (w, aw).
    """
    n = rep.dim
    plus, minus, basis = _weight_split(rep)
    jm = _radical(plus)

    pieces: list[Representation] = []
    columns: list[list[Fraction]] = []

    for p in (0, 1):
        _, top = quotient_maps(jm[p], plus.dims[p])
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
    return Representation(*(restrict_to_invariant(x, kernel) for x in cover.generators()))


# -- Kronecker pencil machinery ---------------------------------------------


class _BadShift(Exception):
    """Internal: the chosen pencil shift hits a band eigenvalue."""


def _block_counts(dims: list[int]) -> list[int]:
    """Block counts from the dimensions 0 = dims[0], dims[1], ... of a chain of kernels.

    Entry s is the number of blocks of size s + 1: the growth of the chain at
    step s + 1 less its growth at step s + 2.
    """
    incs = [y - x for x, y in zip(dims, dims[1:])] + [0]
    return [x - y for x, y in zip(incs, incs[1:])]


def _chain_counts(a1: RatMatrix, delta: RatMatrix) -> tuple[dict[int, int], list, list]:
    """Minimal-index staircase of the pencil (a1, delta).

    Returns (counts, T_part_basis, S_part_basis) where counts[s] is the
    number of (s+1) x s singular blocks.  The S_part count is the one test
    for a shift that hits a band eigenvalue.

    In Kronecker form the chain K_(i+1) = a1^-1(delta K_i) is one chain per
    block: an L_eps block grows by 1 for eps + 1 steps, a Jordan block of
    size m that the shift hits by 1 for m steps, and no other block grows,
    so no count is negative.  sum s counts[s] gets eps from an L_eps block,
    as dim delta(T_part) does, but m - 1 from a hit Jordan block, on which
    delta is invertible, against m: they differ exactly for a bad shift.
    """
    dim_t, dim_s = a1.cols, a1.rows
    k = a1.kernel_basis()
    dims = [0, len(k)]
    while True:
        img = span_basis((delta @ RatMatrix.from_columns(k, rows=dim_t)).columns(), dim_s)
        k2 = preimage_basis(a1, img)
        if len(k2) == len(k):
            break
        k = k2
        dims.append(len(k))
    counts = {s: cnt for s, cnt in enumerate(_block_counts(dims)) if cnt}
    # the loop ends with img = delta(k) for the final k
    t_part, s_part = k, img
    if sum(s * c for s, c in counts.items()) != len(s_part):
        raise _BadShift
    return counts, t_part, s_part


def _charpoly(mat: RatMatrix) -> list[Fraction]:
    """Characteristic polynomial det(xI - mat), coefficients low to high.

    Faddeev-LeVerrier recurrence (D. K. Faddeev and V. N. Faddeeva,
    Computational Methods of Linear Algebra, 1963): from N_1 = I, the
    coefficient of x^(m-k) is c_k = -tr(mat N_k) / k, and
    N_(k+1) = mat N_k + c_k I.  Exact over Q, from matrix products and traces alone.
    """
    poly = [Fraction(1)]
    n = RatMatrix.identity(mat.rows)
    for k in range(1, mat.rows + 1):
        n = mat @ n
        c = -sum(n.diagonal_entries()) / k
        poly.append(c)
        n = n.shift(c)
    return poly[::-1]


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
    cleared, is an integer polynomial g of degree n >= 1 with leading
    coefficient L.  Substituting y = L x gives the monic
    h(y) = L^(n-1) g(y / L), whose rational roots are integers; they are
    isolated by _integer_roots, a root at zero like any other, and mapped
    back to x = y / L.  Each eigenvalue gets its Jordan data from kernel
    ranks.  Raises when the blocks do not exhaust the space, i.e. some
    eigenvalue is irrational.
    """
    m = phi.rows
    poly = _charpoly(phi)
    gcd, rem = poly, _derivative(poly)
    while rem:
        gcd, rem = rem, _poly_divmod(gcd, rem)[1]
    free = _poly_divmod(poly, gcd)[0]
    den = lcm(*[c.denominator for c in free])
    g = [int(c * den) for c in free]
    n, lead = len(g) - 1, g[-1]
    h = [c * lead ** (n - 1 - i) for i, c in enumerate(g[:-1])] + [1]
    roots = [Fraction(y, lead) for y in _integer_roots(h)]

    blocks: list[tuple[Fraction, list[int]]] = []
    total = 0
    for theta in sorted(roots):
        # theta is an eigenvalue, so the first power already has a kernel
        shifted = phi.shift(-theta)
        kdims = [0]
        power = shifted
        while True:
            kd = m - power.rank()
            if kd == kdims[-1]:
                break
            kdims.append(kd)
            power = power @ shifted
        sizes = [s + 1 for s, cnt in enumerate(_block_counts(kdims)) for _ in range(cnt)]
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

    A shift c is bad only where det(A_reg + c D_reg) = 0.  The m x m
    regular part is a regular pencil, so that determinant is a nonzero
    polynomial in c of degree at most m <= rows: at most rows of the
    2 rows + 5 shifts tried are bad.
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
    """Block data of the pencil for one shift c; only _chain_counts raises _BadShift.

    After a good shift the annihilators of the down part, t_reg and s_reg,
    are the band part's m-dimensional domain and codomain, and abar maps
    t_reg onto s_reg.  The basis of s_reg that quotient_maps returns is 1 at
    its free columns and 0 at the others, so coordinates are entries there.
    """
    a1 = alpha + delta.scale(c) if c else alpha

    up_counts, t_left, s_left = _chain_counts(a1, delta)

    _, free_t = quotient_maps(t_left, alpha.cols)
    proj_s, _ = quotient_maps(s_left, alpha.rows)
    abar, dbar = (proj_s @ x.take(range(alpha.rows), free_t) for x in (a1, delta))

    down_counts, s_right, t_right = _chain_counts(abar.transpose(), dbar.transpose())

    t_reg = annihilator_basis(t_right, abar.cols)
    _, free = quotient_maps(s_right, abar.rows)
    m = len(t_reg)

    bands: list[tuple[int, Eta]] = []
    if m:
        t_reg_mat = RatMatrix.from_columns(t_reg, rows=abar.cols)
        a_reg, d_reg = ((x @ t_reg_mat).take(free, range(m)) for x in (abar, dbar))
        phi = a_reg.solve_matrix(d_reg)
        for theta, sizes in _rational_eigen_blocks(phi):
            # theta = -eta/(1 - c*eta); c*theta = 1 marks the infinite point
            if c * theta == 1:
                e = ETA_INF
            else:
                e = Eta(theta / (c * theta - 1))
            bands.extend((size, e) for size in sizes)

    return up_counts, down_counts, bands


# -- full decomposition -------------------------------------------------------


def _two_dim_labels(part: _Graded) -> list[Label]:
    """Labels of the bc = -1 part: a semisimple pile of two-dimensional simples.

    Once a and d flip the weights, the defining relations on this part come
    down to a^2 = 0, d^2 = 0 and da + ad = 2, checked here on each side.
    They make ad/2 and da/2 complementary idempotents with images a(M) and
    d(M), and a maps d(M) isomorphically onto a(M).  So the rank of a on
    side p counts the V(2, p) summands, and the two sides balance.
    """
    for p in (0, 1):
        n = part.dims[p]
        a, d = part.a[1 - p], part.d[1 - p]
        for relation, x, y in (("a^2 = 0", a, part.a[p]), ("d^2 = 0", d, part.d[p])):
            if not (x @ y).is_zero():
                raise DecompositionError(f"{relation} fails on side {p} of the bc = -1 part")
        # da + ad as one product: (d | a) times (a over d) on side p
        da_ad = RatMatrix.block([[d, a]]) @ RatMatrix.block([[part.a[p]], [part.d[p]]])
        if da_ad != RatMatrix.diagonal([2] * n):
            raise DecompositionError(f"da + ad = 2 fails on side {p} of the bc = -1 part")
    return [simple_two(0)] * part.a[0].rank() + [simple_two(1)] * part.a[1].rank()


def _ll2_labels(part: _Graded) -> list[Label]:
    """Labels of a radical-square-zero bc = +1 part.

    a and d map the top of side p into the socle of side 1 - p; the
    Kronecker blocks of that pencil are the summands whose top has
    b = (-1)^p.  Coordinates in the reduced echelon socle basis are the
    entries at its pivot columns.  The images of the top span the socle, so
    there is no u = 0 down block (it would be labelled V(1 - p), rightly).
    """
    soc = _radical(part)
    tops = [quotient_maps(soc[p], part.dims[p])[1] for p in (0, 1)]
    pivots = [sorted(set(range(part.dims[p])) - set(tops[p])) for p in (0, 1)]
    labels: list[Label] = []
    for p in (0, 1):
        alpha, delta = (x[p].take(pivots[1 - p], tops[p]) for x in part)
        up, down, bands = _kronecker_blocks(alpha, delta)
        for s, cnt in up.items():
            labels.extend([omega(s, p + s)] * cnt)
        for u, cnt in down.items():
            labels.extend([omega(-u, p + u + 1)] * cnt)
        for size, e in bands:
            labels.append(band(size, p + 1, e))
    return labels


def _one_dim_type_labels(part: _Graded) -> list[Label]:
    """Labels of the bc = +1 part: the projectives, split off first, then the rest.

    Projectives are injective, so each P(p) summand splits off.  On side p
    the J^2 map x -> adx kills every other summand, so its rank counts the
    P(p).  For the unit vectors u at its pivot columns the adu are
    independent, and u, au, du, adu over all of them span a submodule made of
    those projectives.  Only the quotient by it, of radical square zero, goes
    to the Kronecker pencil.
    """
    sq = [part.a[1 - p] @ part.d[p] for p in (0, 1)]
    tops = [m.rref()[1] for m in sq]
    span = [
        RatMatrix.from_entries(part.dims[p], len(tops[p]), dict.fromkeys(zip(tops[p], count()), Fraction(1))).columns()
        + [sq[p].column(j) for j in tops[p]]
        + [x[1 - p].column(j) for x in part for j in tops[1 - p]]
        for p in (0, 1)
    ]
    k0, k1 = map(len, tops)
    summands = f"{k0} P(0) and {k1} P(1) summands"
    proj, free = zip(*(quotient_maps(span[p], part.dims[p]) for p in (0, 1)))
    # each P(0) and each P(1) puts two dimensions on each side
    spanned = tuple(part.dims[p] - proj[p].rows for p in (0, 1))
    if spanned != (2 * (k0 + k1),) * 2:
        raise DecompositionError(f"the {summands} span dimensions {spanned}, not 2 * {k0 + k1} on each side")
    maps = []
    for name, x in zip("ad", part):
        cut = [proj[1 - p] @ x[p] for p in (0, 1)]
        if any(not (m @ RatMatrix.from_columns(span[p], rows=part.dims[p])).is_zero() for p, m in enumerate(cut)):
            raise DecompositionError(f"{name} does not keep the span of the {summands}")
        maps.append(tuple(m.take(range(m.rows), free[p]) for p, m in enumerate(cut)))
    core = _Graded(*maps)
    if any(not (x[1 - p] @ y[p]).is_zero() for x in core for y in core for p in (0, 1)):
        raise DecompositionError(
            f"radical square is nonzero on the quotient by the {summands}, of dimensions {core.dims}"
        )
    return _ll2_labels(core) + [projective(0)] * k0 + [projective(1)] * k1


def decompose(rep: Representation) -> list[Label]:
    """Multiset of indecomposable labels of a representation, sorted.

    Deterministic.  Raises DecompositionError when the input does not split
    into the known label set over the rationals.

    The stages certify these defining relations:

    - the weight split: b^2 = c^2 = 1 and bc = cb (the weight spaces fill
      the module), and a and d anticommute with b and c (they flip weights);
    - the bc = -1 part: a^2 = 0, d^2 = 0 and da + ad = 2 there;
    - the bc = +1 part: only that the projective span is a submodule and
      that the radical square vanishes on the quotient by it.  a^2 = 0,
      d^2 = 0 and da + ad = 0 are not checked there, so a non-module can
      still get labels: b = c = diag(1, 1, -1, -1) with a[0][2] = 1,
      a[3][1] = -1 and d[1][2] = -1 is labelled [P(1)], although
      ad = E_32 is not -da.
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
    # the flip sends row i*nn + j of R to row j*nm + i
    f = r_matrix_action(m, n).take([i * nn + j for j in range(nn) for i in range(nm)], range(nm * nn))
    mn = tensor(m, n)
    nmr = tensor(n, m)
    if not f.is_invertible():
        return False
    return all(f @ xm == xn @ f for xm, xn in zip(mn.generators(), nmr.generators()))
