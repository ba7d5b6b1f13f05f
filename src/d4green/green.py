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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

from ._linear import LinearCombination


class LabelKind(IntEnum):
    """Variant rank; also the major key of the canonical label order."""

    SIMPLE_ONE = 0
    SIMPLE_TWO = 1
    PROJECTIVE = 2
    SYZYGY = 3
    COSYZYGY = 4
    BAND = 5


@dataclass(frozen=True)
class Eta:
    """Point of the rational projective line; ``value is None`` encodes oo.

    Finite points are kept as exact fractions (lowest terms, positive
    denominator, which ``Fraction`` guarantees).
    """

    value: Fraction | None = None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def sort_key(self):
        # oo sorts after every rational
        return (1, Fraction(0)) if self.value is None else (0, self.value)

    def __str__(self) -> str:
        return "oo" if self.value is None else str(self.value)


ETA_INF = Eta(None)


def eta(x) -> Eta:
    """Coerce an int, Fraction, 'p/q' string or 'oo' to an Eta."""
    if isinstance(x, Eta):
        return x
    if isinstance(x, str):
        s = x.strip()
        if s == "oo":
            return ETA_INF
        return Eta(Fraction(s))
    return Eta(Fraction(x))


@dataclass(frozen=True)
class Label:
    """Canonical name of one indecomposable module."""

    kind: LabelKind
    r: int
    s: int = 0
    eta: Eta | None = None

    def __post_init__(self):
        if self.r not in (0, 1):
            raise ValueError(f"residue must be 0 or 1, got {self.r}")
        if self.kind in (LabelKind.SYZYGY, LabelKind.COSYZYGY, LabelKind.BAND):
            if self.s < 1:
                raise ValueError(f"{self.kind.name} needs s >= 1, got {self.s}")
        elif self.s:
            raise ValueError(f"{self.kind.name} does not take s")
        if self.kind is LabelKind.BAND:
            if not isinstance(self.eta, Eta):
                raise ValueError("band label needs an Eta parameter")
        elif self.eta is not None:
            raise ValueError(f"{self.kind.name} does not take eta")

    def sort_key(self):
        ek = self.eta.sort_key() if self.eta is not None else (0, Fraction(0))
        return (int(self.kind), self.s, self.r, ek)

    def __lt__(self, other: "Label") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        k = self.kind
        if k is LabelKind.SIMPLE_ONE:
            return f"V({self.r})"
        if k is LabelKind.SIMPLE_TWO:
            return f"V(2,{self.r})"
        if k is LabelKind.PROJECTIVE:
            return f"P({self.r})"
        if k is LabelKind.SYZYGY:
            return f"O^{self.s}V({self.r})"
        if k is LabelKind.COSYZYGY:
            return f"O^-{self.s}V({self.r})"
        return f"M_{self.s}({self.r},{self.eta})"


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
    rank comes first.  All residue arithmetic is mod 2.
    """
    if l1.kind > l2.kind:
        l1, l2 = l2, l1
    k1, k2 = l1.kind, l2.kind
    r, rp = l1.r, l2.r
    rs = (r + rp) % 2
    K = LabelKind

    if k1 is K.SIMPLE_ONE:
        # V(r) shifts the residue of any label
        if k2 is K.SIMPLE_ONE:
            return "C1", [(simple_one(rs), 1)]
        if k2 is K.SIMPLE_TWO:
            return "C2", [(simple_two(rs), 1)]
        if k2 is K.PROJECTIVE:
            return "C3", [(projective(rs), 1)]
        if k2 is K.SYZYGY:
            return "C4", [(omega(l2.s, rs), 1)]
        if k2 is K.COSYZYGY:
            return "C4", [(omega(-l2.s, rs), 1)]
        return "C5", [(band(l2.s, rs, l2.eta), 1)]

    if k1 is K.SIMPLE_TWO:
        if k2 is K.SIMPLE_TWO:
            return "C6", [(projective(rs + 1), 1)]
        if k2 is K.PROJECTIVE:
            return "C9", [(simple_two(0), 2), (simple_two(1), 2)]
        if k2 in (K.SYZYGY, K.COSYZYGY):
            s = l2.s
            if s % 2:
                return "C7", [(simple_two(rs), s), (simple_two(rs + 1), s + 1)]
            return "C7", [(simple_two(rs + 1), s), (simple_two(rs), s + 1)]
        s = l2.s
        return "C8", [(simple_two(0), s), (simple_two(1), s)]

    if k1 is K.PROJECTIVE:
        if k2 is K.PROJECTIVE:
            return "C12", [(projective(0), 2), (projective(1), 2)]
        if k2 in (K.SYZYGY, K.COSYZYGY):
            s = l2.s
            if s % 2:
                return "C10", [(projective(rs), s), (projective(rs + 1), s + 1)]
            return "C10", [(projective(rs + 1), s), (projective(rs), s + 1)]
        s = l2.s
        return "C11", [(projective(0), s), (projective(1), s)]

    if k1 is K.SYZYGY:
        s = l1.s
        if k2 is K.SYZYGY:
            t = l2.s
            return "C13", [(omega(s + t, rs), 1), (projective(rs + (s + t)), s * t)]
        if k2 is K.COSYZYGY:
            t = l2.s
            mult = (max(s, t) + 1) * min(s, t)
            return "C15", [(omega(s - t, rs), 1), (projective(rs + s + t + 1), mult)]
        # band times syzygy
        t = l2.s
        if s % 2:
            return "C16", [(projective(rs), s * t), (band(t, rs + 1, l2.eta), 1)]
        return "C16", [(projective(rs + 1), s * t), (band(t, rs, l2.eta), 1)]

    if k1 is K.COSYZYGY:
        s = l1.s
        if k2 is K.COSYZYGY:
            t = l2.s
            return "C14", [(omega(-(s + t), rs), 1), (projective(rs + (s + t)), s * t)]
        # band times cosyzygy
        t = l2.s
        if s % 2:
            return "C17", [(projective(rs + 1), s * t), (band(t, rs + 1, l2.eta), 1)]
        return "C17", [(projective(rs), s * t), (band(t, rs, l2.eta), 1)]

    # band times band
    s, t = l1.s, l2.s
    if l1.eta != l2.eta:
        return "C18", [(projective(rs), s * t)]
    if s > t:
        s, t = t, s
    return "C19", [
        (projective(rs), s * (t - 1)),
        (band(s, 0, l1.eta), 1),
        (band(s, 1, l1.eta), 1),
    ]


def mul_labels(l1: Label, l2: Label) -> GreenElement:
    """Decomposition of the tensor product of two labels."""
    return GreenElement(_dispatch(l1, l2)[1])


def case_name(l1: Label, l2: Label) -> str:
    """Which of the nineteen table cases covers this pair."""
    return _dispatch(l1, l2)[0]


def mul(e1: GreenElement, e2: GreenElement) -> GreenElement:
    """Bilinear extension of mul_labels."""
    return GreenElement(
        (label, ca * cb * k)
        for la, ca in e1.terms()
        for lb, cb in e2.terms()
        for label, k in _dispatch(la, lb)[1]
    )


def dual_label(label: Label) -> Label:
    """Dual module label: an involution on the basis."""
    K = LabelKind
    if label.kind is K.SIMPLE_TWO:
        return simple_two(label.r + 1)
    if label.kind is K.SYZYGY:
        return omega(-label.s, label.r)
    if label.kind is K.COSYZYGY:
        return omega(label.s, label.r)
    if label.kind is K.BAND:
        return band(label.s, label.r + 1, label.eta)
    return label


def dual(e: GreenElement) -> GreenElement:
    """Ring involution induced by module duality."""
    return GreenElement((dual_label(l), c) for l, c in e.terms())


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
    return sum(c * label_dimension(l) for l, c in e.terms())


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
    for l, c in e.terms():
        for i, m in enumerate(composition_factors(l)):
            out[i] += c * m
    return tuple(out)
