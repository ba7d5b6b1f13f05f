"""Matrix models of the modules and the independent tensor-product oracle.

The algebra is generated by a, b, c, d with

    ba = -ab   db = -bd   ca = -ac   dc = -cd   bc = cb
    a^2 = 0    b^2 = 1    c^2 = 1    d^2 = 0    da + ad = 1 - bc

A :class:`Representation` gives the four generator actions as exact
rational matrices.  :func:`build` produces the standard model of each
label, :func:`tensor` and :func:`dual` implement the comultiplication and
antipode, and :func:`decompose` splits an arbitrary representation into
labelled indecomposables -- without ever consulting the symbolic
multiplication table, so the two can be checked against each other.

The decomposition works on the (b, c) weight spaces:

1. b and c are commuting involutions, and a and d send weight (β, γ) to
   (-β, -γ).  A module keeps its weight grading: the a and d blocks between
   paired weight spaces.  For a module given by its matrices,
   :func:`_weight_split` finds each weight's basis (off the diagonals of b
   and c, or as a joint kernel) and solves for each block against it, and
   :func:`_check_graded` checks the relations left on the blocks, the one
   check of a module's relations.  A tensor product builds its blocks from
   its factors' (:func:`_tensor_grading`), as b and c are grouplike, and is
   not checked again.  Weights (1,-1) and (-1,1) make up the bc = -1 part, a
   semisimple pile of two-dimensional simples counted by its a blocks' ranks.
2. On the bc = +1 part, weights (1,1) and (-1,-1), the four-dimensional
   projectives are injective, so they split off first: on each side the
   rank of the J^2 block x -> adx counts them.  Each takes two dimensions
   of each side, so when the ranks k0 and k1 leave both sides with
   2(k0 + k1) dimensions the part is all projective and the labelling
   stops there.
3. Only the rest, of radical square zero, goes to the pencil.  For each b
   eigenvalue, the a and d blocks from the top on that side to the socle on
   the other side form a matrix pencil.  Kronecker's classification of
   pencils then yields the string (syzygy/cosyzygy) and band summands, with
   the band parameter read off the generalised eigenvalues.  These are
   found without factoring any integer.  They are the eigenvalues of a
   rational matrix phi, and with L the lcm of its denominators the
   characteristic polynomial of the integer matrix L phi is already monic.
   So the rational roots of its square-free part are integers, and
   Sturm-sequence bisection, evaluated on integers, isolates them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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


class Representation:
    """Actions of the four generators on a finite-dimensional module.

    A module is immutable once made, and so are the matrices it is given or
    hands out.  ``Representation(a, b, c, d)`` keeps the four matrices.  A
    module made by :func:`tensor` keeps its two factors instead and forms
    its a, b, c and d, by the Kronecker formulas that :func:`tensor`
    documents, when one of them is first read.  Either way the module keeps
    its weight grading (see :func:`_weight_split`) once that is computed:
    :func:`decompose` and the radical-series functions read it, and a tensor
    product builds its own from its factors' gradings.  The grading is where
    a module's relations are checked, once (see :meth:`_weights`).
    """

    __slots__ = ("dim", "_gens", "_factors", "_grading")

    def __init__(self, a: RatMatrix, b: RatMatrix, c: RatMatrix, d: RatMatrix):
        n = a.rows
        for mat in (a, b, c, d):
            if mat.rows != n or mat.cols != n:
                raise ValueError("generator actions must be square matrices of one size")
        self._init(n, (a, b, c, d), None)

    def _init(self, dim: int, gens, factors):
        for name, value in (("dim", dim), ("_gens", gens), ("_factors", factors), ("_grading", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Representation is immutable: cannot set {name}")

    def __reduce__(self):
        # copy and pickle remake a module from its factors or its matrices, never by setting slots
        return (tensor, self._factors) if self._factors else (Representation, self._gens)

    def generators(self) -> tuple[RatMatrix, RatMatrix, RatMatrix, RatMatrix]:
        if self._gens is None:
            m, n = self._factors
            gens = (m.a.kron_plus(n.b, n.a), m.b.kron(n.b), m.c.kron(n.c), m.d.kron_plus(n.c, n.d))
            object.__setattr__(self, "_gens", gens)
        return self._gens

    a, b, c, d = (property(lambda self, k=k: self.generators()[k]) for k in range(4))

    def _weights(self) -> _Grading:
        """The weight grading, computed on first use and kept.

        A module given by its matrices is split and its relations checked on
        the blocks, once.  A tensor product takes its grading from its
        factors', whose errors it raises, and is not checked again.
        """
        if self._grading is None:
            grading = _tensor_grading(*self._factors) if self._factors else _check_graded(_weight_split(self))
            object.__setattr__(self, "_grading", grading)
        return self._grading

    def __eq__(self, other) -> bool:
        return isinstance(other, Representation) and self.generators() == other.generators()

    def __repr__(self) -> str:
        return "Representation({})".format(", ".join(map(repr, self.generators())))


class RMatrixElement(NamedTuple):
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
    """Tensor product along the comultiplication a -> a(x)b + 1(x)a, d -> d(x)c + 1(x)d.

    The product is in the Kronecker basis: vector i dim N + j is the i-th of
    M tensor the j-th of N.  Its matrices are formed when first read, and its
    weight grading comes from the factors' (see :func:`_tensor_grading`).
    The product is never checked, as Delta is an algebra map; the relations
    on F (x) F for a faithful module F back that
    (``tests/test_replab.py::test_coproduct_is_an_algebra_map``).
    """
    rep = object.__new__(Representation)
    rep._init(m.dim * n.dim, None, (m, n))
    return rep


def dual(m: Representation) -> Representation:
    """Dual module via the antipode: S(a) = ba, S(b) = b, S(c) = c, S(d) = cd.

    That S is an anti-algebra map, so that the dual is a module, is checked
    on a faithful module (``tests/test_replab.py::test_antipode_makes_the_dual_a_module``).
    """
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
    """Basis of the intertwiners F: M -> N, as the invariants of N (x) M* (C. Kassel, *Quantum Groups*, 1995).

    Vector j dim M + i of N (x) M* is entry F[j, i], and the invariants are
    its vectors of weight (1, 1) that a and d kill: one kernel.  A non-module
    raises DecompositionError from its grading.
    """
    g = tensor(n, dual(m))._weights()
    kernel = RatMatrix.block([[g.plus.a[0]], [g.plus.d[0]]]).kernel_basis()
    vecs = (g.basis()[0] @ kernel).columns()
    return [RatMatrix.from_rows(v[j * m.dim : (j + 1) * m.dim] for j in range(n.dim)) for v in vecs]


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
    found the test raises rather than guess.  When the dimensions agree, a
    non-module raises DecompositionError from its grading, as in decompose.
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


class _Grading(NamedTuple):
    """The (b, c) weight grading of a module.

    plus and minus are the bc = +1 and bc = -1 parts, cut from the module
    written in a weight basis (b and c diagonal).  groups lists per weight
    in ``_WEIGHTS`` order the indices of its vectors in that basis.  pmat is
    None when b and c are diagonal, and otherwise the matrix of that basis:
    the joint kernels of :func:`_weight_split`, weight by weight.
    """

    plus: _Graded
    minus: _Graded
    groups: list[list[int]]
    pmat: RatMatrix | None

    def basis(self) -> list[RatMatrix]:
        """Per weight in ``_WEIGHTS`` order, the matrix of its basis vectors."""
        n = sum(map(len, self.groups))
        pmat = RatMatrix.identity(n) if self.pmat is None else self.pmat
        return [pmat.take(range(n), group) for group in self.groups]


def _graded_in_weight_basis(a: list[RatMatrix], d: list[RatMatrix], groups: list[list[int]]) -> _Grading:
    """The grading of a module given in a weight basis, from its a and d blocks per weight and its index groups."""
    return _Grading(_Graded((a[0], a[1]), (d[0], d[1])), _Graded((a[2], a[3]), (d[2], d[3])), groups, None)


def _weight_split(rep: Representation) -> _Grading:
    """The (b, c) weight spaces of a module given by its matrices, and the a, d blocks between them.

    Each weight w gets its basis K_w: where b and c are diagonal (the standard
    models, and their ``tensor``, ``dual`` and ``direct_sum``), the unit
    vectors where the diagonals read w, with no elimination; otherwise the
    reduced joint kernel of b - beta over c - gamma.  The block of x = a, d
    from w to w ^ 1 is the solution X of K_{w^1} X = x K_w.  Raises
    DecompositionError when the K_w do not fill the module, or when a solve
    fails, as x then sends part of w outside w ^ 1 (a before d, lowest w
    first).  ``tests/test_replab.py`` takes the two routes in
    ``test_standard_models_split_without_a_kernel`` and
    ``test_regular_representation_decomposes``.
    """
    n, b, c = rep.dim, rep.b, rep.c
    weights = list(zip(b.diagonal_entries(), c.diagonal_entries()))
    groups = [[i for i, x in enumerate(weights) if x == w] for w in _WEIGHTS]
    # once each diagonal entry is a weight, b and c are diagonal iff they have n(n - 1) zeros each
    if sum(map(len, groups)) == n and b.zero_count() + c.zero_count() == 2 * n * (n - 1):
        pmat, spaces = None, [RatMatrix.identity(n).take(range(n), group) for group in groups]
    else:
        spaces = [RatMatrix.block([[b.shift(-beta)], [c.shift(-gamma)]]).kernel_basis() for beta, gamma in _WEIGHTS]
        dims = [space.cols for space in spaces]
        if sum(dims) != n:
            raise DecompositionError(
                "b and c are not commuting involutions; defining relations fail: (b, c) weight-space "
                f"dimensions {dict(zip(_WEIGHTS, dims))} sum to {sum(dims)}, not n = {n}"
            )
        pmat = RatMatrix.block([spaces])
        groups = [list(range(sum(dims[:w]), sum(dims[: w + 1]))) for w in range(len(_WEIGHTS))]
    blocks = []
    for name, x in (("a", rep.a), ("d", rep.d)):
        blocks.append([spaces[w ^ 1].solve_matrix(x @ space) for w, space in enumerate(spaces)])
        if None in blocks[-1]:
            w = blocks[-1].index(None)
            raise DecompositionError(
                f"{name} does not send each (b, c) weight to its negative: "
                f"it sends part of weight {_WEIGHTS[w]} outside weight {_WEIGHTS[w ^ 1]}"
            )
    return _graded_in_weight_basis(*blocks, groups)._replace(pmat=pmat)


# _WEIGHT_PRODUCT[w][v] is the weight, as an index into _WEIGHTS, of a product of vectors of weights w and v.
_WEIGHT_PRODUCT = [[_WEIGHTS.index((x[0] * y[0], x[1] * y[1])) for y in _WEIGHTS] for x in _WEIGHTS]


def _tensor_grading(m: Representation, n: Representation) -> _Grading:
    """The grading of m (x) n, built from the factors' gradings.

    b and c are grouplike, so vector k = i dim N + j has the product of the
    weights of i and j, and the product is in a weight basis.  Its groups
    list the k in increasing order, as :func:`_weight_split` does.  Of
    Delta(a) = a (x) b + 1 (x) a, the first term puts a_M[i, i'] b_N[j, j] at
    (i dim N + j, i' dim N + j), where i != i' as a flips weights, and the
    second puts a_N[j, j'] at (i dim N + j, i dim N + j'); so no two entries
    meet, and nnz(a_M) dim N + dim M nnz(a_N) entries are written straight
    into the blocks.  d is the same with c in place of b.

    A factor given in another basis is read in its weight basis, so the
    product is in the Kronecker product of the factors' weight bases, and
    that is its pmat.  A factor whose own grading raises makes the product
    raise the same error.
    """
    gm, gn = m._weights(), n._weights()
    dn = n.dim
    # the weight of each index of M and of N
    wm, wn = ([w for _, w in sorted((i, w) for w, group in enumerate(g.groups) for i in group)] for g in (gm, gn))
    groups: list[list[int]] = [[] for _ in _WEIGHTS]
    for i, w in enumerate(wm):
        for v, group in enumerate(gn.groups):
            groups[_WEIGHT_PRODUCT[w][v]].extend(i * dn + j for j in group)
    pos = [0] * (m.dim * dn)
    for group in groups:
        for t, k in enumerate(group):
            pos[k] = t

    def nonzeros(g: _Grading, name: str) -> list[tuple[int, int, Fraction]]:
        # (row, column, entry) of the factor's a or d, in the factor's own indices
        return [
            (g.groups[w ^ 1][r], g.groups[w][s], x)
            for w, block in enumerate(getattr(g.plus, name) + getattr(g.minus, name))
            for (r, s), x in block.entries().items()
        ]

    blocks = []
    for name, grouplike in (("a", 0), ("d", 1)):  # b_N or c_N, by its place in a weight
        entries: list[dict] = [{} for _ in _WEIGHTS]  # by the weight of the column
        for i, i2, x in nonzeros(gm, name):
            for j, v in enumerate(wn):
                y = x if _WEIGHTS[v][grouplike] == 1 else -x
                entries[_WEIGHT_PRODUCT[wm[i2]][v]][pos[i * dn + j], pos[i2 * dn + j]] = y
        for j, j2, x in nonzeros(gn, name):
            for i, w in enumerate(wm):
                entries[_WEIGHT_PRODUCT[w][wn[j2]]][pos[i * dn + j], pos[i * dn + j2]] = x
        blocks.append([RatMatrix.from_entries(len(groups[w ^ 1]), len(groups[w]), e) for w, e in enumerate(entries)])
    grading = _graded_in_weight_basis(*blocks, groups)
    if gm.pmat is None and gn.pmat is None:
        return grading
    pmat_m, pmat_n = (RatMatrix.identity(x.dim) if g.pmat is None else g.pmat for x, g in ((m, gm), (n, gn)))
    return grading._replace(pmat=pmat_m.kron(pmat_n))


def _check_graded(grading: _Grading) -> _Grading:
    """The grading of a module given by its matrices, once its relations hold.

    In a weight basis b and c are diagonal involutions, and as a and d flip
    the weights they anticommute with b and c.  So the relations left are
    a^2 = 0, d^2 = 0 and da + ad = 1 - bc, where 1 - bc is 0 on the bc = +1
    part and 2 on the bc = -1 part; each is checked on each side p of each
    part, in this order.  Raises DecompositionError naming the first that
    fails.
    """
    for part, sign, k in ((grading.plus, "+", 0), (grading.minus, "-", 2)):
        for p in (0, 1):
            a, d = part.a[1 - p], part.d[1 - p]
            for relation, x, y in (("a^2 = 0", a, part.a[p]), ("d^2 = 0", d, part.d[p])):
                if not (x @ y).is_zero():
                    raise DecompositionError(f"{relation} fails on side {p} of the bc = {sign}1 part")
            # da + ad as one product: (d | a) times (a over d) on side p
            da_ad = RatMatrix.block([[d, a]]) @ RatMatrix.block([[part.a[p]], [part.d[p]]])
            if da_ad != RatMatrix.diagonal([k] * part.dims[p]):
                raise DecompositionError(f"da + ad = {k} fails on side {p} of the bc = {sign}1 part")
    return grading


# -- radical series ---------------------------------------------------------


def _radical(part: _Graded, sub: tuple[RatMatrix, RatMatrix] | None = None) -> list[RatMatrix]:
    """J U = a(U) + d(U) for a graded subspace U of a bc = +1 part.

    U and the result are pairs of column bases, one per side; U defaults to
    the whole part.  Side p of JU is spanned by a(U) and d(U) of side 1 - p.
    """
    return [
        span_basis(RatMatrix.block([[x[1 - p] if sub is None else x[1 - p] @ sub[1 - p] for x in part]]))
        for p in (0, 1)
    ]


def radical_basis(rep: Representation) -> RatMatrix:
    """Basis of JM, as columns.

    The radical ideal is spanned by a and d cut to the bc = +1 part, so JM
    is a(M+) + d(M+), graded by the b eigenvalue.
    """
    grading = rep._weights()
    return RatMatrix.block([[m @ side for m, side in zip(grading.basis(), _radical(grading.plus))]])


def socle_basis(rep: Representation) -> RatMatrix:
    """Basis of the socle, the joint kernel of the radical action, as columns.

    The radical kills the bc = -1 part, and on side p of the bc = +1 part
    the socle is the joint kernel of a[p] and d[p].
    """
    grading = rep._weights()
    plus, basis = grading.plus, grading.basis()
    sides = [basis[p] @ RatMatrix.block([[a], [d]]).kernel_basis() for p, (a, d) in enumerate(zip(plus.a, plus.d))]
    return RatMatrix.block([[basis[2], basis[3], *sides]])


def loewy_length(rep: Representation) -> int:
    """Least k with J^k M = 0, at most 3.

    The relations are checked when the grading is made, so the series ends:
    J^3 = 0 in the algebra.
    """
    if rep.dim == 0:
        return 0
    plus = rep._weights().plus
    layer = _radical(plus)
    k = 1
    while any(side.cols for side in layer):
        layer = _radical(plus, layer)
        k += 1
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
    grading = rep._weights()
    plus, minus, basis = grading.plus, grading.minus, grading.basis()
    jm = _radical(plus)

    pieces: list[Representation] = []
    columns: list[list[Fraction]] = []

    for p in (0, 1):
        _, top = quotient_maps(jm[p])
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


def _chain_counts(a1: RatMatrix, delta: RatMatrix) -> tuple[dict[int, int], RatMatrix, RatMatrix]:
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
    An empty kernel of a1 ends the chain before any span or preimage.
    """
    k = a1.kernel_basis()
    dims = [0]
    img = RatMatrix.zeros(delta.rows, 0)
    while k.cols > dims[-1]:
        dims.append(k.cols)
        img = span_basis(delta @ k)
        k = preimage_basis(a1, img)
    counts = {s: cnt for s, cnt in enumerate(_block_counts(dims)) if cnt}
    # the loop ends with img = delta(K) and k a basis of a1^-1(img) = K, for the final K
    t_part, s_part = k, img
    if sum(s * c for s, c in counts.items()) != s_part.cols:
        raise _BadShift
    return counts, t_part, s_part


def _charpoly(mat: RatMatrix) -> list[int]:
    """Characteristic polynomial det(xI - mat) of an integer matrix,
    coefficients low to high.

    Faddeev-LeVerrier recurrence (D. K. Faddeev and V. N. Faddeeva,
    Computational Methods of Linear Algebra, 1963): from N_1 = I, the
    coefficient of x^(m-k) is c_k = -tr(mat N_k) / k, and
    N_(k+1) = mat N_k + c_k I.  On an integer matrix the c_k are integers,
    so each division by k is exact and runs on ints.
    """
    m = mat.rows
    rows: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for (i, j), x in mat.entries().items():
        rows[i].append((j, x.numerator))
    coeffs, n = [1], [[int(i == j) for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        prod = []
        for row in rows:
            acc = [0] * m
            for j, x in row:
                acc = [u + x * v for u, v in zip(acc, n[j])]
            prod.append(acc)
        coeffs.append(-sum(map(list.__getitem__, prod, range(m))) // k)
        for i in range(m):
            prod[i][i] += coeffs[-1]
        n = prod
    return coeffs[::-1]


def _poly_eval(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _pseudo_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of |l|^k num by den on ints, with l the leading
    coefficient of den and k = deg num - deg den + 1 steps; coefficients low
    to high, no trailing zeros in the remainder.

    The factor |l|^k is positive, so both keep the signs of the quotient and
    remainder over Q; for a monic den they are the quotient and remainder.
    """
    rem, quo = list(num), [0] * max(len(num) - len(den) + 1, 0)
    lead, m = den[-1], len(den) - 1
    for shift in reversed(range(len(quo))):
        # rem <- lead * rem - q x^shift den, which clears its degree shift + m term
        q = rem[shift + m]
        if lead != 1:
            rem = [lead * c for c in rem]
            quo = [lead * c for c in quo]
        quo[shift] = q
        for i, c in enumerate(den):
            rem[shift + i] -= q * c
    if lead < 0 and len(quo) % 2:
        rem, quo = [-c for c in rem], [-c for c in quo]
    rem = rem[:m]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _primitive(poly: list[int]) -> list[int]:
    """poly divided by the positive gcd of its coefficients."""
    g = gcd(*poly)
    return [c // g for c in poly] if g > 1 else poly


def _squarefree(poly: list[int]) -> list[int]:
    """Square-free part p / gcd(p, p') of a monic integer polynomial p.

    gcd(p, p') comes from the primitive remainder sequence: each pseudo-
    remainder is divided by the gcd of its coefficients, so every step stays
    on ints.  By Gauss's lemma the primitive gcd, taken with a positive
    leading coefficient, divides the monic p over Z, so it is monic and the
    quotient is exact.
    """
    a, b = poly, _primitive(_derivative(poly))
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    if a[-1] < 0:
        a = [-c for c in a]
    return _pseudo_divmod(poly, a)[0]


def _derivative(poly: list) -> list:
    return [i * c for i, c in enumerate(poly)][1:]


def _sign_changes(seq: list[list[int]], x: int) -> int:
    """Sign changes of the integer Sturm sequence at x, zeros skipped.

    The values are computed here, not by _poly_eval, which is reserved for
    the exact test of each root candidate.
    """
    signs = []
    for poly in seq:
        acc = 0
        for c in reversed(poly):
            acc = acc * x + c
        if acc:
            signs.append(acc > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _integer_roots(h: list[int]) -> list[int]:
    """Integer roots of a square-free monic integer polynomial of degree >= 1.

    Sturm's theorem counts the real roots in (lo, hi] as the drop in sign
    changes from lo to hi.  The sequence is built on ints: each pseudo-
    remainder is scaled only by positive factors, the one of _pseudo_divmod
    and the division by the gcd of its coefficients, so it keeps its signs.
    Bisection on integers, starting from the Cauchy bound, keeps only
    intervals that hold a real root; each unit interval left is one
    candidate, its right end, tested exactly with _poly_eval.
    """
    seq = [h, _derivative(h)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _primitive(_pseudo_divmod(seq[-2], seq[-1])[1])])
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

    The eigenvalues are found without factoring any integer.  With L the lcm
    of phi's denominators, the characteristic polynomial p of the integer
    matrix L phi is monic with integer coefficients, and by Gauss's lemma so
    is its square-free part p / gcd(p, p').  Its rational roots are
    therefore integers y; they are isolated by _integer_roots, a root at
    zero like any other, and theta = y / L.  Each eigenvalue gets its Jordan
    data from the ranks of the powers of L phi - y I, whose kernels are
    those of phi - theta I.  Raises when the blocks do not exhaust the
    space, i.e. some eigenvalue is irrational.
    """
    m = phi.rows
    entries = phi.entries()
    scale = lcm(*(x.denominator for x in entries.values()))
    lphi = RatMatrix.from_entries(m, m, {key: x * scale for key, x in entries.items()})
    roots = _integer_roots(_squarefree(_charpoly(lphi)))

    blocks: list[tuple[Fraction, list[int]]] = []
    total = 0
    for y in sorted(roots):
        # y is an eigenvalue of L phi, so the first power already has a kernel
        shifted = lphi.shift(-y)
        kdims = [0]
        power = shifted
        while True:
            kd = m - power.rank()
            if kd == kdims[-1]:
                break
            kdims.append(kd)
            power = power @ shifted
        sizes = [s + 1 for s, cnt in enumerate(_block_counts(kdims)) for _ in range(cnt)]
        blocks.append((Fraction(y, scale), sizes))
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
    2 rows + 5 shifts tried are bad.  A 0 x 0 pencil has no blocks.
    """
    if not (alpha.rows or alpha.cols):
        return {}, {}, []
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
    alpha + c delta is written from the nonzero entries, so its zeros are
    the shared zero of linalg.  A quotient by an empty subspace, and its
    annihilator, is the identity, so neither is formed for one.
    """
    a1 = alpha
    if c:
        shifted = alpha.entries()
        for key, x in delta.entries().items():
            shifted[key] = shifted.get(key, 0) + c * x
        a1 = RatMatrix.from_entries(alpha.rows, alpha.cols, shifted)

    up_counts, t_left, s_left = _chain_counts(a1, delta)
    abar, dbar = a1, delta
    if t_left.cols:
        _, free_t = quotient_maps(t_left)
        abar, dbar = (x.take(range(x.rows), free_t) for x in (abar, dbar))
    if s_left.cols:
        proj_s, _ = quotient_maps(s_left)
        abar, dbar = proj_s @ abar, proj_s @ dbar

    down_counts, s_right, t_right = _chain_counts(abar.transpose(), dbar.transpose())
    # t_right can be empty while s_right is not: a zero row of abar and dbar
    if t_right.cols:
        t_reg = annihilator_basis(t_right)
        abar, dbar = abar @ t_reg, dbar @ t_reg
    if s_right.cols:
        _, free = quotient_maps(s_right)
        abar, dbar = (x.take(free, range(x.cols)) for x in (abar, dbar))

    bands: list[tuple[int, Eta]] = []
    if abar.cols:
        phi = abar.solve_matrix(dbar)
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

    The relations a^2 = 0, d^2 = 0 and da + ad = 2 hold on this part, as
    :func:`_check_graded` saw.  They make ad/2 and da/2 complementary
    idempotents with images a(M) and d(M), and a maps d(M) isomorphically
    onto a(M).  So the rank of a on side p counts the V(2, p) summands.
    """
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
    tops = [quotient_maps(side)[1] for side in soc]
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
    independent, and u, au, du, adu over all of them span a submodule, the
    direct sum of those projectives, with two dimensions on each side per
    summand.  The quotient by it has radical square zero, as the relations
    hold (:func:`_check_graded`), and only it goes to the Kronecker pencil.
    Without projectives the quotient is the part itself.

    Each P(p) takes two dimensions of each side: u and adu on side p, au and
    du on side 1 - p.  So with k_p the rank on side p, the projectives fill
    the part exactly when both sides have 2(k0 + k1) dimensions, and then
    neither the quotient nor the pencil runs.  A zero J^2 block has no
    pivots, which its zero count shows without an elimination.
    """
    sq = [part.a[1 - p] @ part.d[p] for p in (0, 1)]
    tops = [() if m.is_zero() else m.rref()[1] for m in sq]
    projectives = [projective(0)] * len(tops[0]) + [projective(1)] * len(tops[1])
    if part.dims == (2 * len(projectives),) * 2:
        return projectives
    core = part
    if any(tops):
        span = []
        for p, n in enumerate(part.dims):
            units = RatMatrix.from_entries(n, len(tops[p]), {(t, j): 1 for j, t in enumerate(tops[p])})
            own = [units, sq[p].take(range(n), tops[p])]
            span.append(RatMatrix.block([own + [x[1 - p].take(range(n), tops[1 - p]) for x in part]]))
        proj, free = zip(*map(quotient_maps, span))
        core = _Graded(*(tuple(proj[1 - p] @ x[p].take(range(x[p].rows), free[p]) for p in (0, 1)) for x in part))
    return _ll2_labels(core) + projectives


def decompose(rep: Representation) -> list[Label]:
    """Multiset of indecomposable labels of a representation, sorted.

    Deterministic.  Raises DecompositionError when the input does not split
    into the known label set over the rationals.

    The defining relations are checked once, when the module's weight
    grading is made: the weight split checks b^2 = c^2 = 1, bc = cb and that
    a and d anticommute with b and c, and :func:`_check_graded` checks the
    rest on the weight blocks.  A tensor product inherits them from its
    factors.  So the stages below run only on modules; what they check is
    that the summands exhaust the space and are defined over Q.
    """
    n = rep.dim
    if n == 0:
        return []
    grading = rep._weights()
    labels = sorted(_two_dim_labels(grading.minus) + _one_dim_type_labels(grading.plus))
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
    """Whether flip . R is an invertible intertwiner M(x)N -> N(x)M.

    ``tests/test_replab.py::test_r_matrix_braids_the_faithful_module`` checks R on every module.
    """
    nm, nn = m.dim, n.dim
    # the flip sends row i*nn + j of R to row j*nm + i
    f = r_matrix_action(m, n).take([i * nn + j for j in range(nn) for i in range(nm)], range(nm * nn))
    mn = tensor(m, n)
    nmr = tensor(n, m)
    if not f.is_invertible():
        return False
    return all(f @ xm == xn @ f for xm, xn in zip(mn.generators(), nmr.generators()))
