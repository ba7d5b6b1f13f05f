"""Symbolic arithmetic in the Green ring of the 16-dimensional Drinfeld double.

The indecomposable modules of the double of Sweedler's 4-dimensional Hopf
algebra fall into six families, named here by labels:

* ``V(r)``       one-dimensional simples, ``r`` in {0, 1}
* ``V(2,r)``     two-dimensional simples (projective)
* ``P(r)``       four-dimensional projective covers of ``V(r)``
* ``O^s V(r)``   syzygies of the one-dimensional simples, dimension 2s+1
* ``O^-s V(r)``  cosyzygies, dimension 2s+1
* ``M_s(r,eta)`` band modules of dimension 2s, parametrised by a point
  ``eta`` of the projective line (a rational number or ``oo``)

These labels form a Z-basis of the Green ring; the product of two labels
decomposes by a closed-form table of nineteen cases, implemented in
:func:`mul_labels` and extended bilinearly by :func:`mul`.

A :class:`Label` is a tuple ``(kind, r, s, eta)`` and an :class:`Eta` a
tuple ``(value,)``; their public constructors, ``_make`` and ``_replace``
validate.  The products are built by ``_label`` and the residue-indexed
tables, which skip that validation.  That is safe because every field comes
from valid labels: a residue is a sum of residues reduced mod 2, a size is a
size of a factor, a sum of two, or a difference that ``_omega`` turns into
the right kind, and an eta is copied from a band factor.  :func:`mul`,
:func:`dual` and the homomorphisms only sum, so they iterate the
coefficient map unsorted; only ``terms()`` sorts, for output.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum
from fractions import Fraction

from ._linear import BasisTuple, LinearCombination


class LabelKind(IntEnum):
    """Variant rank; also the major key of the canonical label order."""

    SIMPLE_ONE = 0
    SIMPLE_TWO = 1
    PROJECTIVE = 2
    SYZYGY = 3
    COSYZYGY = 4
    BAND = 5


_tuple_new = tuple.__new__
_EtaFields = namedtuple("Eta", "value", defaults=(None,))
_LabelFields = namedtuple("Label", "kind r s eta", defaults=(0, None))


class Eta(BasisTuple, _EtaFields):
    """Point of the rational projective line; ``value is None`` encodes oo.

    A one-field tuple ``(value,)``.  Finite points are kept as exact
    fractions (lowest terms, positive denominator, which ``Fraction``
    guarantees); the constructor turns an int into one and rejects any
    other type, a bool included.  Equality and hashing are the tuple's;
    the order is ``sort_key``'s.
    """

    __slots__ = ()

    def __new__(cls, value: Fraction | int | None = None):
        if value is not None and type(value) is not Fraction:
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise ValueError(f"eta must be a Fraction, an int or None, got {value!r}")
            value = Fraction(value)
        return _tuple_new(cls, (value,))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def sort_key(self):
        # oo sorts after every rational
        v = self.value
        return (1, 0) if v is None else (0, v)

    def __str__(self) -> str:
        return "oo" if self.value is None else str(self.value)


ETA_INF = Eta(None)


def eta(x) -> Eta:
    """Coerce an Eta, an int, a Fraction, or a string in the grammar's eta syntax (oo or [-]p[/q]) to an Eta.

    Anything else, a bool or a float included, raises ValueError, and so
    does a string outside the syntax, such as '0.5' or '1/0'.
    """
    if isinstance(x, Eta):
        return x
    if isinstance(x, str):
        from .grammar import parse_eta  # grammar imports this module

        return parse_eta(x)
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"eta must be an Eta, an int, a Fraction or a string, got {x!r}")
    return Eta(x)


_STRING_KINDS = (LabelKind.SYZYGY, LabelKind.COSYZYGY, LabelKind.BAND)
# str(label) by kind; the fields are kind, r, s and eta, in that order
_LABEL_FORMATS = ("V({1})", "V(2,{1})", "P({1})", "O^{2}V({1})", "O^-{2}V({1})", "M_{2}({1},{3})")


class Label(BasisTuple, _LabelFields):
    """Canonical name of one indecomposable module.

    A tuple ``(kind, r, s, eta)``.  The constructor validates, and turns a
    kind given by its value into the ``LabelKind`` member.  Equality and
    hashing are the tuple's, but the canonical order is ``sort_key``, not
    the tuple's field order.
    """

    __slots__ = ()

    def __new__(cls, kind: LabelKind, r: int, s: int = 0, eta: Eta | None = None):
        if type(r) is not int or r not in (0, 1):
            raise ValueError(f"residue must be 0 or 1, got {r!r}")
        if type(s) is not int:
            raise ValueError(f"s must be an int, got {s!r}")
        if type(kind) is not LabelKind:
            # products dispatch on kind by identity
            kind = LabelKind(kind)
        if kind in _STRING_KINDS:
            if s < 1:
                raise ValueError(f"{kind.name} needs s >= 1, got {s}")
        elif s:
            raise ValueError(f"{kind.name} does not take s")
        if kind is LabelKind.BAND:
            if not isinstance(eta, Eta):
                raise ValueError("band label needs an Eta parameter")
        elif eta is not None:
            raise ValueError(f"{kind.name} does not take eta")
        return _tuple_new(cls, (kind, r, s, eta))

    def sort_key(self):
        e = self.eta
        return (self.kind, self.s, self.r, (0, 0) if e is None else e.sort_key())

    def __str__(self) -> str:
        return _LABEL_FORMATS[self.kind].format(*self)


def _label(kind: LabelKind, r: int, s: int = 0, e: Eta | None = None) -> Label:
    """Label without validation, for labels built from valid ones."""
    return _tuple_new(Label, (kind, r, s, e))


# the fixed labels, indexed by residue
_SIMPLE_ONE = (_label(LabelKind.SIMPLE_ONE, 0), _label(LabelKind.SIMPLE_ONE, 1))
_SIMPLE_TWO = (_label(LabelKind.SIMPLE_TWO, 0), _label(LabelKind.SIMPLE_TWO, 1))
_PROJECTIVE = (_label(LabelKind.PROJECTIVE, 0), _label(LabelKind.PROJECTIVE, 1))


def simple_one(r: int) -> Label:
    return Label(LabelKind.SIMPLE_ONE, r % 2)


def simple_two(r: int) -> Label:
    return Label(LabelKind.SIMPLE_TWO, r % 2)


def projective(r: int) -> Label:
    return Label(LabelKind.PROJECTIVE, r % 2)


def omega(s: int, r: int) -> Label:
    """Syzygy power label; s may be any integer, with O^0 V(r) = V(r)."""
    if s > 0:
        return Label(LabelKind.SYZYGY, r % 2, s)
    if s < 0:
        return Label(LabelKind.COSYZYGY, r % 2, -s)
    return simple_one(r)


def _omega(s: int, r: int) -> Label:
    """omega without validation; r must be 0 or 1."""
    if s > 0:
        return _label(LabelKind.SYZYGY, r, s)
    if s < 0:
        return _label(LabelKind.COSYZYGY, r, -s)
    return _SIMPLE_ONE[r]


def band(s: int, r: int, e) -> Label:
    return Label(LabelKind.BAND, r % 2, s, eta(e))


class GreenElement(LinearCombination):
    """Finite integer combination of labels; an element of the Green ring."""

    @classmethod
    def from_label(cls, label: Label) -> "GreenElement":
        return cls([(label, 1)])

    @classmethod
    def unit(cls) -> "GreenElement":
        return cls.from_label(simple_one(0))


def _dispatch(l1: Label, l2: Label) -> tuple[str, list[tuple[Label, int]]]:
    """Case name and decomposition terms for a product of two labels.

    The table is symmetric; pairs are normalised so the smaller variant
    rank comes first.  All residue arithmetic is mod 2.  Output labels are
    built without validation, as the module docstring allows.
    """
    if l1.kind > l2.kind:
        l1, l2 = l2, l1
    k1, k2 = l1.kind, l2.kind
    rs = (l1.r + l2.r) % 2
    K = LabelKind
    P = _PROJECTIVE
    V2 = _SIMPLE_TWO

    if k1 is K.SIMPLE_ONE:
        # V(r) shifts the residue of any label
        if k2 is K.SIMPLE_ONE:
            return "C1", [(_SIMPLE_ONE[rs], 1)]
        if k2 is K.SIMPLE_TWO:
            return "C2", [(V2[rs], 1)]
        if k2 is K.PROJECTIVE:
            return "C3", [(P[rs], 1)]
        if k2 is K.BAND:
            return "C5", [(_label(k2, rs, l2.s, l2.eta), 1)]
        return "C4", [(_label(k2, rs, l2.s), 1)]

    if k1 is K.SIMPLE_TWO:
        if k2 is K.SIMPLE_TWO:
            return "C6", [(P[rs ^ 1], 1)]
        if k2 is K.PROJECTIVE:
            return "C9", [(V2[0], 2), (V2[1], 2)]
        s = l2.s
        if k2 is K.BAND:
            return "C8", [(V2[0], s), (V2[1], s)]
        if s % 2:
            return "C7", [(V2[rs], s), (V2[rs ^ 1], s + 1)]
        return "C7", [(V2[rs ^ 1], s), (V2[rs], s + 1)]

    if k1 is K.PROJECTIVE:
        if k2 is K.PROJECTIVE:
            return "C12", [(P[0], 2), (P[1], 2)]
        s = l2.s
        if k2 is K.BAND:
            return "C11", [(P[0], s), (P[1], s)]
        if s % 2:
            return "C10", [(P[rs], s), (P[rs ^ 1], s + 1)]
        return "C10", [(P[rs ^ 1], s), (P[rs], s + 1)]

    if k1 is K.SYZYGY:
        s, t = l1.s, l2.s
        if k2 is K.SYZYGY:
            return "C13", [(_label(K.SYZYGY, rs, s + t), 1), (P[(rs + s + t) % 2], s * t)]
        if k2 is K.COSYZYGY:
            mult = (max(s, t) + 1) * min(s, t)
            return "C15", [(_omega(s - t, rs), 1), (P[(rs + s + t + 1) % 2], mult)]
        # band times syzygy
        if s % 2:
            return "C16", [(P[rs], s * t), (_label(K.BAND, rs ^ 1, t, l2.eta), 1)]
        return "C16", [(P[rs ^ 1], s * t), (_label(K.BAND, rs, t, l2.eta), 1)]

    if k1 is K.COSYZYGY:
        s, t = l1.s, l2.s
        if k2 is K.COSYZYGY:
            return "C14", [(_label(K.COSYZYGY, rs, s + t), 1), (P[(rs + s + t) % 2], s * t)]
        # band times cosyzygy
        if s % 2:
            return "C17", [(P[rs ^ 1], s * t), (_label(K.BAND, rs ^ 1, t, l2.eta), 1)]
        return "C17", [(P[rs], s * t), (_label(K.BAND, rs, t, l2.eta), 1)]

    # band times band
    s, t = l1.s, l2.s
    e = l1.eta
    if e != l2.eta:
        return "C18", [(P[rs], s * t)]
    if s > t:
        s, t = t, s
    return "C19", [
        (P[rs], s * (t - 1)),
        (_label(K.BAND, 0, s, e), 1),
        (_label(K.BAND, 1, s, e), 1),
    ]


def mul_labels(l1: Label, l2: Label) -> GreenElement:
    """Decomposition of the tensor product of two labels."""
    return GreenElement(_dispatch(l1, l2)[1])


def case_name(l1: Label, l2: Label) -> str:
    """Which of the nineteen table cases covers this pair."""
    return _dispatch(l1, l2)[0]


def mul(e1: GreenElement, e2: GreenElement) -> GreenElement:
    """Bilinear extension of mul_labels."""
    right = e2._coeffs.items()
    return GreenElement(
        (label, ca * cb * k)
        for la, ca in e1._coeffs.items()
        for lb, cb in right
        for label, k in _dispatch(la, lb)[1]
    )


def dual_label(label: Label) -> Label:
    """Dual module label: an involution on the basis."""
    K = LabelKind
    kind = label.kind
    if kind is K.SIMPLE_TWO:
        return _SIMPLE_TWO[label.r ^ 1]
    if kind is K.SYZYGY:
        return _label(K.COSYZYGY, label.r, label.s)
    if kind is K.COSYZYGY:
        return _label(K.SYZYGY, label.r, label.s)
    if kind is K.BAND:
        return _label(K.BAND, label.r ^ 1, label.s, label.eta)
    return label


def dual(e: GreenElement) -> GreenElement:
    """Ring involution induced by module duality."""
    return GreenElement((dual_label(l), c) for l, c in e._coeffs.items())


def label_dimension(label: Label) -> int:
    K = LabelKind
    if label.kind is K.SIMPLE_ONE:
        return 1
    if label.kind is K.SIMPLE_TWO:
        return 2
    if label.kind is K.PROJECTIVE:
        return 4
    if label.kind is K.BAND:
        return 2 * label.s
    return 2 * label.s + 1


def dimension(e: GreenElement) -> int:
    """Linear extension of label_dimension; a ring homomorphism to Z."""
    return sum(c * label_dimension(l) for l, c in e._coeffs.items())


def composition_factors(label: Label) -> tuple[int, int, int, int]:
    """Multiplicities of (V(0), V(1), V(2,0), V(2,1)) among composition factors."""
    K = LabelKind
    r = label.r
    out = [0, 0, 0, 0]
    if label.kind is K.SIMPLE_ONE:
        out[r] = 1
    elif label.kind is K.SIMPLE_TWO:
        out[2 + r] = 1
    elif label.kind is K.PROJECTIVE:
        out[r] = 2
        out[1 - r] = 2
    elif label.kind is K.BAND:
        out[r] = label.s
        out[1 - r] = label.s
    else:
        # syzygy and cosyzygy share the factor multiset
        s = label.s
        if s % 2:
            out[r] = s
            out[1 - r] = s + 1
        else:
            out[r] = s + 1
            out[1 - r] = s
    return tuple(out)


def grothendieck_image(e: GreenElement) -> tuple[int, int, int, int]:
    """Image in the Grothendieck group, as factor multiplicities."""
    out = [0, 0, 0, 0]
    for l, c in e._coeffs.items():
        for i, m in enumerate(composition_factors(l)):
            out[i] += c * m
    return tuple(out)
