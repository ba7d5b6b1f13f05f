"""Matrix models of the modules and the independent tensor-product oracle.

The algebra is generated by a, b, c, d with

    ba = -ab   db = -bd   ca = -ac   dc = -cd   bc = cb
    a^2 = 0    b^2 = 1    c^2 = 1    d^2 = 0    da + ad = 1 - bc

A :class:`Representation` is given by the four generator actions as exact
rational matrices, or made by :func:`build`, :func:`tensor`, :func:`dual`,
:func:`direct_sum` or :func:`syzygy`: the standard model of each label, the
comultiplication, the antipode, the sum and a cover's kernel.
:func:`decompose` splits an arbitrary representation into labelled
indecomposables -- without ever consulting the symbolic multiplication
table, so the two can be checked against each other.

The decomposition works on the (b, c) weight spaces:

1. b and c are commuting involutions, and a and d send weight (β, γ) to
   (-β, -γ).  A module keeps its weight grading: the a and d blocks between
   paired weight spaces.  A made module is its grading, written from a
   standard model's arrows, from the gradings it is made of, or (a syzygy)
   from its cover's weight blocks; its matrices are a view.  Only a module
   given by its matrices, which it keeps, is split
   (:func:`_weight_split`), and :func:`_check_graded` checks a split module
   or a standard model, the one check of relations.  Weights (1,-1) and
   (-1,1) make up the bc = -1 part, a semisimple pile of two-dimensional
   simples counted by its a blocks' ranks.
2. On the bc = +1 part, weights (1,1) and (-1,-1), the four-dimensional
   projectives are injective, so they split off first: on each side the
   rank of the J^2 block x -> adx counts them.  Each takes two dimensions
   of each side, so the ranks k0 and k1 leave n_p - 2(k0 + k1) of the n_p
   dimensions of side p.  When one side is left with none, the rest is a
   pile of simples V(p) on the other side p and the labelling stops there.
   Otherwise the vectors of their span with one nonzero are peeled off
   with their coordinates, and only the rest is eliminated.
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
from typing import Iterable, NamedTuple

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
    RatMatrix,
    annihilator_basis,
    preimage_basis,
    quotient_maps,
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
    hands out.  ``Representation(a, b, c, d)`` keeps the four matrices, the
    caller's input.  A module made by :func:`build`, :func:`tensor`,
    :func:`dual`, :func:`direct_sum` or :func:`syzygy` keeps a recipe
    instead, a grading function and its arguments, and its a, b, c and d are
    one view of that grading (:meth:`_Grading.matrices`), in its weight basis
    (for a syzygy, the kernels of its cover's weight blocks); so reading them
    raises the DecompositionError of a part that is not a module.  Either way
    the module keeps its grading, where its relations are checked, once.
    """

    __slots__ = ("dim", "_gens", "_recipe", "_grading")

    def __init__(self, a: RatMatrix, b: RatMatrix, c: RatMatrix, d: RatMatrix):
        n = a.rows
        for mat in (a, b, c, d):
            if mat.rows != n or mat.cols != n:
                raise ValueError("generator actions must be square matrices of one size")
        self._init(n, (a, b, c, d), None)

    def _init(self, dim: int, gens, recipe):
        for name, value in (("dim", dim), ("_gens", gens), ("_recipe", recipe), ("_grading", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Representation is immutable: cannot set {name}")

    def __reduce__(self):
        # copy and pickle remake a module from its recipe or its matrices, never by setting slots
        return (_made, (self.dim, *self._recipe)) if self._recipe else (Representation, self._gens)

    def generators(self) -> tuple[RatMatrix, RatMatrix, RatMatrix, RatMatrix]:
        if self._gens is None:
            object.__setattr__(self, "_gens", self._weights().matrices())
        return self._gens

    a, b, c, d = (property(lambda self, k=k: self.generators()[k]) for k in range(4))

    def _weights(self) -> _Grading:
        """The weight grading, computed on first use and kept: a module given by its matrices is split and
        checked, and a made module runs its recipe, which raises the errors of the modules it is made from."""
        if self._grading is None:
            made = self._recipe[0](*self._recipe[1:]) if self._recipe else _check_graded(_weight_split(self))
            object.__setattr__(self, "_grading", made)
        return self._grading

    def __eq__(self, other) -> bool:
        return isinstance(other, Representation) and self.generators() == other.generators()

    def __repr__(self) -> str:
        return "Representation({})".format(", ".join(map(repr, self.generators())))


def _made(dim: int, grading, *args) -> Representation:
    """The module of dimension dim whose grading is grading(*args), made when first read."""
    rep = object.__new__(Representation)
    rep._init(dim, None, (grading, *args))
    return rep


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
# Each model is the weight of each vector, as an index into _WEIGHTS, and the arrows {(target, source): x} of a and d.


def _band_model(s: int, r: int, e: Eta):
    # basis order: v_{1,1}..v_{1,s}, v_{2,1}..v_{2,s}; the tops v_{1,i} have b = c = (-1)^(r + 1)
    diagonal = {(s + i, i): 1 for i in range(s)}
    superdiagonal = {(s + i - 1, i): 1 for i in range(1, s)}
    if e.is_infinite:
        a, d = superdiagonal, diagonal
    else:
        a, d = diagonal, {k: -1 for k in superdiagonal} | {k: -e.value for k in diagonal}
    return [1 - r] * s + [r] * s, a, d


def _string_model(s: int, r: int):
    """O^s V(r), s in Z: a zigzag on 2|s| + 1 vectors with b = c = (-1)^(s+r+i) on vector i.  The arrow between
    vectors i and i + 1 is d for even i and a for odd i, with coefficient 1, from the top end to the socle
    end; the tops are the even vectors for s >= 0 and the odd ones for s < 0."""
    n = 2 * abs(s) + 1
    arrows = ({}, {})  # d, a
    for i in range(n - 1):
        top, socle = (i, i + 1) if i % 2 == (s < 0) else (i + 1, i)
        arrows[i % 2][socle, top] = 1
    return [(s + r + i) % 2 for i in range(n)], arrows[1], arrows[0]


def _standard_grading(label: Label) -> _Grading:
    """The grading of a label's standard model, gathered from its arrows; its relations are checked here."""
    kind, r = label.kind, label.r
    if kind is LabelKind.SIMPLE_TWO:
        # V(2, 0) has weights (1, -1) and (-1, 1), and V(2, 1) the same swapped
        weights, a, d = [2 + r, 3 - r], {(1, 0): 1}, {(0, 1): 2}
    elif kind is LabelKind.PROJECTIVE:
        weights, a, d = [r, 1 - r, 1 - r, r], {(1, 0): 1, (3, 2): 1}, {(2, 0): 1, (3, 1): -1}
    elif kind is LabelKind.BAND:
        weights, a, d = _band_model(label.s, r, label.eta)
    else:
        weights, a, d = _string_model(-label.s if kind is LabelKind.COSYZYGY else label.s, r)
    groups = [[i for i, w in enumerate(weights) if w == v] for v in range(len(_WEIGHTS))]
    pos = {i: t for group in groups for t, i in enumerate(group)}

    def blocks(arrows: dict) -> list[RatMatrix]:
        # an arrow from vector j lands in the block of j's weight
        entries: list[dict] = [{} for _ in _WEIGHTS]
        for (i, j), x in arrows.items():
            entries[weights[j]][pos[i], pos[j]] = x
        return [RatMatrix.from_entries(len(groups[w ^ 1]), len(groups[w]), e) for w, e in enumerate(entries)]

    return _check_graded(_Grading(blocks(a), blocks(d), groups, None))


def build(label: Label) -> Representation:
    """Standard representation of a label; cached, treat as immutable."""
    return _build_cached(label)


@lru_cache(maxsize=None)
def _build_cached(label: Label) -> Representation:
    return _made(label_dimension(label), _standard_grading, label)


def check_relations(rep: Representation) -> bool:
    """All ten defining relations, exactly."""
    a, b, c, d = rep.generators()
    ident, zero = RatMatrix.identity(rep.dim), RatMatrix.zeros(rep.dim, rep.dim)
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
    M tensor the j-th of N.  Its grading comes from the factors' (Delta
    lives in :func:`_tensor_grading`), and is never checked, as Delta is an
    algebra map (``tests/test_replab.py::test_coproduct_is_an_algebra_map``).
    """
    return _made(m.dim * n.dim, _tensor_grading, m, n)


def dual(m: Representation) -> Representation:
    """Dual module via the antipode: S(a) = ba, S(b) = b, S(c) = c, S(d) = cd.

    Its grading comes from m's (S lives in :func:`_dual_grading`).  That S is an anti-algebra map, so that
    the dual is a module, is checked on a faithful module (``test_antipode_makes_the_dual_a_module``).
    """
    return _made(m.dim, _dual_grading, m)


def direct_sum(reps: Iterable[Representation]) -> Representation:
    """Direct sum, in the order given; its grading comes from the summands' (see :func:`_sum_grading`)."""
    reps = tuple(reps)  # read once: a generator would be spent on the dimension
    return _made(sum(rep.dim for rep in reps), _sum_grading, *reps)


# -- hom spaces and isomorphism --------------------------------------------


def hom_space(m: Representation, n: Representation) -> list[RatMatrix]:
    """Basis of the intertwiners F: M -> N, as the invariants of N (x) M* (C. Kassel, *Quantum Groups*, 1995).

    Vector j dim M + i of N (x) M* is entry F[j, i], and the invariants are
    its vectors of weight (1, 1) that a and d kill: one kernel.  A non-module
    raises DecompositionError from its grading.
    """
    g = tensor(n, dual(m))._weights()
    kernel = RatMatrix.block([[g.a[0]], [g.d[0]]]).kernel_basis()
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
_WEIGHT_FRACTIONS = [tuple(map(Fraction, w)) for w in _WEIGHTS]  # the diagonals of b and c, made once


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

    a[w] and d[w] are the blocks of a and d from weight w to w ^ 1, per
    weight in ``_WEIGHTS`` order, in a basis where b and c are diagonal;
    groups lists per weight the indices of its vectors there.  pmat is None
    when that basis is the module's own, and otherwise its matrix P: X in
    it is P X P^-1.  plus and minus are the bc = +1 and bc = -1 parts.
    """

    a: list[RatMatrix]
    d: list[RatMatrix]
    groups: list[list[int]]
    pmat: RatMatrix | None

    plus = property(lambda self: _Graded((self.a[0], self.a[1]), (self.d[0], self.d[1])))
    minus = property(lambda self: _Graded((self.a[2], self.a[3]), (self.d[2], self.d[3])))

    def basis(self) -> list[RatMatrix]:
        """Per weight in ``_WEIGHTS`` order, the matrix of its basis vectors."""
        n = sum(map(len, self.groups))
        pmat = RatMatrix.identity(n) if self.pmat is None else self.pmat
        return [pmat.take(range(n), group) for group in self.groups]

    def weights(self) -> list[int]:
        """The weight of each vector of the weight basis, as an index into ``_WEIGHTS``."""
        return [w for _, w in sorted((i, w) for w, group in enumerate(self.groups) for i in group)]

    def matrices(self) -> tuple[RatMatrix, RatMatrix, RatMatrix, RatMatrix]:
        """The generators a, b, c, d: the blocks scattered to their groups, b and c read off the weights,
        and with a pmat P each X mapped back to x = P X P^-1 by one solve, P^T x^T = (P X)^T for all four."""
        n, weights = sum(map(len, self.groups)), self.weights()

        def scatter(blocks: list[RatMatrix]) -> RatMatrix:
            return RatMatrix.from_entries(n, n, {
                (self.groups[w ^ 1][r], self.groups[w][s]): x
                for w, block in enumerate(blocks)
                for (r, s), x in block.entries().items()
            })

        b, c = (RatMatrix.diagonal([_WEIGHT_FRACTIONS[w][k] for w in weights]) for k in (0, 1))
        gens = [scatter(self.a), b, c, scatter(self.d)]
        if self.pmat is None:
            return tuple(gens)
        p = self.pmat
        sol = p.transpose().solve_matrix(RatMatrix.block([[(p @ x).transpose() for x in gens]]))
        return tuple(sol.take(range(n), range(k * n, (k + 1) * n)).transpose() for k in range(4))


def _weight_split(rep: Representation) -> _Grading:
    """The (b, c) weight spaces of a module given by its matrices, and the a, d blocks between them.

    Each weight w gets its basis K_w, the reduced joint kernel of b - beta over c - gamma, and pmat lists
    the K_w side by side (a permutation where b and c are diagonal).  Raises DecompositionError when the
    K_w do not fill the module, and :func:`_graded_on` finds the blocks.  No made module comes here.
    """
    n = rep.dim
    spaces = [RatMatrix.block([[rep.b.shift(-beta)], [rep.c.shift(-gamma)]]).kernel_basis() for beta, gamma in _WEIGHTS]
    dims = [space.cols for space in spaces]
    if sum(dims) != n:
        raise DecompositionError(
            "b and c are not commuting involutions; defining relations fail: (b, c) weight-space "
            f"dimensions {dict(zip(_WEIGHTS, dims))} sum to {sum(dims)}, not n = {n}"
        )
    return _graded_on(spaces, [rep.a] * len(_WEIGHTS), [rep.d] * len(_WEIGHTS), RatMatrix.block([spaces]))


def _graded_on(spaces: list[RatMatrix], a: list[RatMatrix], d: list[RatMatrix], pmat) -> _Grading:
    """The grading on the weight spaces K_w, the columns of spaces, where x[w] for x = a, d acts on K_w's
    space: the block from w to w ^ 1 is the X with K_{w^1} X = x[w] K_w.  Raises DecompositionError when
    a solve fails, as x then sends part of w outside w ^ 1 (a before d, lowest w first)."""
    blocks = []
    for name, x in (("a", a), ("d", d)):
        blocks.append([spaces[w ^ 1].solve_matrix(x[w] @ space) for w, space in enumerate(spaces)])
        if None in blocks[-1]:
            w = blocks[-1].index(None)
            raise DecompositionError(
                f"{name} does not send each (b, c) weight to its negative: "
                f"it sends part of weight {_WEIGHTS[w]} outside weight {_WEIGHTS[w ^ 1]}"
            )
    dims = [space.cols for space in spaces]
    groups = [list(range(sum(dims[:w]), sum(dims[: w + 1]))) for w in range(len(_WEIGHTS))]
    return _Grading(*blocks, groups, pmat)


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
    raise the same error.  ``tests/test_replab.py::test_coproduct_is_an_algebra_map``
    fails if Delta changes.
    """
    gm, gn = m._weights(), n._weights()
    dn = n.dim
    wm, wn = gm.weights(), gn.weights()
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
            for w, block in enumerate(getattr(g, name))
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
    if gm.pmat is None and gn.pmat is None:
        return _Grading(*blocks, groups, None)
    pmat_m, pmat_n = (RatMatrix.identity(x.dim) if g.pmat is None else g.pmat for x, g in ((m, gm), (n, gn)))
    return _Grading(*blocks, groups, pmat_m.kron(pmat_n))


def _dual_grading(m: Representation) -> _Grading:
    """The grading of m*, built from m's by the antipode S(a) = ba, S(d) = cd.

    b* = b^T and c* = c^T keep each weight, so the groups are m's, and
    a* = (ba)^T = a^T b puts beta_w times the transpose of m's a block on
    w ^ 1 on w; d* = (cd)^T does the same with gamma_w.  m's weight basis P
    becomes the dual basis P^-T.  m's own grading errors are raised.
    ``tests/test_replab.py::test_antipode_makes_the_dual_a_module`` fails if S changes.
    """
    g = m._weights()

    def transposed(blocks: list[RatMatrix], k: int) -> list[RatMatrix]:
        # the transpose of the block on w ^ 1, times the weight's b (k = 0) or c (k = 1) eigenvalue
        return [
            RatMatrix.from_entries(x.cols, x.rows, {(j, i): y * _WEIGHTS[w][k] for (i, j), y in x.entries().items()})
            for w, x in enumerate(blocks[v ^ 1] for v in range(len(_WEIGHTS)))
        ]

    pmat = None if g.pmat is None else g.pmat.transpose().solve_matrix(RatMatrix.identity(m.dim))
    return _Grading(transposed(g.a, 0), transposed(g.d, 1), g.groups, pmat)


def _sum_grading(*reps: Representation) -> _Grading:
    """The grading of the direct sum of reps, built from theirs: every block and pmat (when any summand has
    one) is block diagonal, and the groups are offset.  The summands' own grading errors are raised."""
    gradings = [rep._weights() for rep in reps]
    offsets = [sum(rep.dim for rep in reps[:k]) for k in range(len(reps))]

    def diagonal(mats: list[RatMatrix]) -> RatMatrix:
        # the diagonal is picked by position: one cached module may come several times
        return RatMatrix.block([[x if j == i else None for j in range(len(mats))] for i, x in enumerate(mats)])

    a, d = ([diagonal([getattr(g, name)[w] for g in gradings]) for w in range(len(_WEIGHTS))] for name in "ad")
    groups = [[o + i for o, g in zip(offsets, gradings) for i in g.groups[w]] for w in range(len(_WEIGHTS))]
    pmat = None
    if any(g.pmat is not None for g in gradings):
        pmat = diagonal([RatMatrix.identity(rep.dim) if g.pmat is None else g.pmat for rep, g in zip(reps, gradings)])
    return _Grading(a, d, groups, pmat)


def _check_graded(grading: _Grading) -> _Grading:
    """The grading of a standard model or of a module given by its matrices, once its relations hold.

    In a weight basis b and c are diagonal involutions, and as a and d flip
    the weights they anticommute with b and c.  So the relations left are
    a^2 = 0, d^2 = 0 and da + ad = 1 - bc (0 on the bc = +1 part, 2 on the
    bc = -1 part), checked on each side p of each part in this order; a
    DecompositionError names the first that fails.
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


def _radical(part: _Graded) -> list[RatMatrix]:
    """JM of a bc = +1 part, as a pair of column bases, one per side.

    Side p of JM is spanned by the images of a and d on side 1 - p.
    """
    return [span_basis(RatMatrix.block([[x[1 - p] for x in part]])) for p in (0, 1)]


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
    """Least k with J^k M = 0, at most 3, read off the J and J^2 blocks.

    J is spanned by a and d cut to the bc = +1 part, where da = -ad, so J^2 M = ad(M+): the length is 3 when
    some J^2 block a[1 - p] d[p] is nonzero, 2 when some a or d block is, and 1 otherwise.  The relations
    are checked when the grading is made, so J^3 M = 0.
    """
    if rep.dim == 0:
        return 0
    plus = rep._weights().plus
    if any(not (plus.a[1 - p] @ plus.d[p]).is_zero() for p in (0, 1)):
        return 3
    return 2 if any(not x.is_zero() for x in plus.a + plus.d) else 1


# -- projective covers and syzygies -----------------------------------------


def _cover(rep: Representation) -> tuple[Representation, list[RatMatrix]]:
    """Projective cover, and per weight w the block phi_w of the covering map from the cover's weight w
    to rep's weight basis there, checked block by block to be a surjective module map.

    On side p of the bc = +1 part, each vector u of a complement of the radical gives a P(p) summand:
    (u, adu) in weight p, (au, du) in 1 - p.  On side r of the bc = -1 part, each vector w killed by d
    gives a V(2, r) summand: w in weight 2 + r, aw in 3 - r.
    """
    g = rep._weights()
    plus, pieces, columns = g.plus, [], [[] for _ in _WEIGHTS]
    for p, side in enumerate(_radical(plus)):
        top = quotient_maps(side)[1]
        u = RatMatrix.from_entries(plus.dims[p], len(top), {(t, j): 1 for j, t in enumerate(top)})
        au, du = (x[p] @ u for x in plus)
        pieces += [build(projective(p))] * len(top)
        for v, pair in ((p, (u, plus.a[1 - p] @ du)), (1 - p, (au, du))):
            columns[v] += (m.column(j) for j in range(len(top)) for m in pair)
    for r in (0, 1):
        w = g.d[2 + r].kernel_basis()
        pieces += [build(simple_two(r))] * w.cols
        columns[2 + r] += w.columns()
        columns[3 - r] += (g.a[2 + r] @ w).columns()
    cover = direct_sum(pieces)
    phi = [RatMatrix.from_columns(cols, rows=len(group)) for cols, group in zip(columns, g.groups)]
    cg = cover._weights()
    if any(phi[w ^ 1] @ xc[w] != xm[w] @ phi[w] for xc, xm in ((cg.a, g.a), (cg.d, g.d)) for w in range(len(_WEIGHTS))):
        raise DecompositionError("projective cover map is not a module map")
    if sum(f.rank() for f in phi) != rep.dim:
        raise DecompositionError("projective cover map is not surjective")
    return cover, phi


def projective_cover_map(rep: Representation) -> tuple[Representation, RatMatrix]:
    """Projective cover and the covering surjection, in rep's own basis: the cover's columns are
    (u, au, du, adu) for a P(p) summand and (w, aw) for a V(2, r) summand (see :func:`_cover`)."""
    cover, phi = _cover(rep)
    images = RatMatrix.block([[m @ f for m, f in zip(rep._weights().basis(), phi)]])
    order = [k for group in cover._weights().groups for k in group]
    return cover, images.take(range(rep.dim), sorted(range(cover.dim), key=order.__getitem__))


def syzygy(rep: Representation) -> Representation:
    """Kernel of the projective cover, made from its grading: the kernel K_w of each phi_w, with the
    cover's blocks restricted to them.  So its matrices are in the K_w bases, not in the cover's."""
    cover, phi = _cover(rep)
    kernel = _graded_on([f.kernel_basis() for f in phi], cover._weights().a, cover._weights().d, None)
    return _made(sum(map(len, kernel.groups)), _Grading, *kernel)


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
    tries = 2 * alpha.rows + 5
    for k in range(tries):  # the shifts 0, 1, -1, 2, -2, ..., each made when it is tried
        try:
            return _kronecker_with_shift(alpha, delta, Fraction((k + 1) // 2 if k % 2 else -(k // 2)))
        except _BadShift:
            pass
    raise DecompositionError(
        f"no pencil shift separates the band part of the {alpha.rows} x {alpha.cols} pencil: {tries} shifts tried"
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
    Without projectives the quotient is the part itself.  The span is sparse,
    so :func:`_peeled_quotient_maps` peels off its vectors with one nonzero,
    each u among them, with their coordinates, and eliminates only the rest.

    Each P(p) takes two dimensions of each side: u and adu on side p, au and
    du on side 1 - p.  So with k_p the rank on side p, the quotient keeps
    n_p - 2(k0 + k1) dimensions of side p.  When one side keeps none, a and
    d on the quotient start or end there, so they are 0: the quotient is
    that many V(p) on the other side p, and neither it nor the pencil is
    formed.  A zero J^2 block has no pivots, which its zero count shows
    without an elimination.
    """
    sq = [part.a[1 - p] @ part.d[p] for p in (0, 1)]
    tops = [() if m.is_zero() else m.rref()[1] for m in sq]
    projectives = [projective(0)] * len(tops[0]) + [projective(1)] * len(tops[1])
    left = [n - 2 * len(projectives) for n in part.dims]
    if 0 in left:
        return projectives + [simple_one(0)] * left[0] + [simple_one(1)] * left[1]
    core = part
    if any(tops):
        maps = []
        for p, n in enumerate(part.dims):
            vectors = [{t: 1} for t in tops[p]]  # the units u, then the adu, au and du as {coordinate: entry}
            for m in [sq[p].take(range(n), tops[p])] + [x[1 - p].take(range(n), tops[1 - p]) for x in part]:
                vectors += [{} for _ in range(m.cols)]
                for (i, j), x in m.entries().items():
                    vectors[j - m.cols][i] = x
            maps.append(_peeled_quotient_maps(n, vectors))
        proj, free = zip(*maps)
        core = _Graded(*(tuple(proj[1 - p] @ x[p].take(range(x[p].rows), free[p]) for p in (0, 1)) for x in part))
    return _ll2_labels(core) + projectives


def _peeled_quotient_maps(n: int, vectors: list[dict]) -> tuple[RatMatrix, list[int]]:
    """Exactly ``quotient_maps`` of the span of vectors in Q^n, given as {coordinate: entry} dicts that it empties,
    by singleton elimination (I. S. Duff, A. M. Erisman, J. K. Reid, *Direct Methods for Sparse Matrices*, 1986):
    a vector with one nonzero, at i, is a unit row of the span's reduced echelon form, so i is a pivot, and
    eliminating it deletes i from the others, maybe leaving another with one nonzero.  Only the rest is reduced."""
    holders: dict[int, list[int]] = {}  # coordinate -> the vectors with a nonzero there
    for j, v in enumerate(vectors):
        for i in v:
            holders.setdefault(i, []).append(j)
    todo, peeled = [j for j, v in enumerate(vectors) if len(v) == 1], set()
    while todo:
        if vectors[j := todo.pop()]:  # a vector emptied by an earlier peel has nothing left
            (i,) = vectors[j]
            peeled.add(i)
            for k in holders[i]:
                del vectors[k][i]
                if len(vectors[k]) == 1:
                    todo.append(k)
    kept = [i for i in range(n) if i not in peeled]
    pos, rest = {i: t for t, i in enumerate(kept)}, [v for v in vectors if v]
    proj, free = quotient_maps(RatMatrix.from_entries(len(kept), len(rest), {
        (pos[i], j): x for j, v in enumerate(rest) for i, x in v.items()}))
    padded = RatMatrix.from_entries(proj.rows, n, {(r, kept[t]): x for (r, t), x in proj.entries().items()})
    return padded, [kept[f] for f in free]


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
