"""Generators-and-relations model of the Green ring.

The ring is generated by ``g = [V(1)]``, ``x = [V(2,0)]``, ``y = [O^1 V(0)]``,
``z = [O^-1 V(0)]`` and one band generator ``X_{n,eta} = [M_n(0,eta)]`` per
size and projective-line point.  Every element has a unique normal form over
the basis

    1, g, x, gx, x^2, gx^2, y^n, gy^n, z^n, gz^n, X_{n,eta}, gX_{n,eta}

and :func:`nf_mul` multiplies normal forms by a fixed table: ``_mul_cores``
gives every product of two g-free monomials in closed form and never calls
:func:`nf_mul`.  :func:`to_green` and :func:`from_green` realise the
mutually inverse ring isomorphisms with the label model in
:mod:`d4green.green`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from ._linear import LinearCombination
from .green import (
    Eta,
    GreenElement,
    Label,
    LabelKind,
    band,
    eta,
    omega,
    projective,
    simple_one,
    simple_two,
)


class PresKind(IntEnum):
    ONE = 0
    X = 1
    X2 = 2
    Y = 3
    Z = 4
    BAND = 5


@dataclass(frozen=True)
class PresMonomial:
    """One basis monomial: a core generator power times an optional g."""

    g: int
    kind: PresKind
    n: int = 0
    eta: Eta | None = None

    def __post_init__(self):
        if self.g not in (0, 1):
            raise ValueError("g exponent must be 0 or 1")
        if self.kind in (PresKind.Y, PresKind.Z, PresKind.BAND):
            if self.n < 1:
                raise ValueError(f"{self.kind.name} needs n >= 1")
        elif self.n:
            raise ValueError(f"{self.kind.name} does not take n")
        if self.kind is PresKind.BAND:
            if not isinstance(self.eta, Eta):
                raise ValueError("band monomial needs an Eta parameter")
        elif self.eta is not None:
            raise ValueError(f"{self.kind.name} does not take eta")

    def sort_key(self):
        ek = self.eta.sort_key() if self.eta is not None else (0, 0)
        return (int(self.kind), self.n, ek, self.g)

    def __lt__(self, other: "PresMonomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        core = {
            PresKind.ONE: "1",
            PresKind.X: "x",
            PresKind.X2: "x^2",
            PresKind.Y: f"y^{self.n}" if self.n > 1 else "y",
            PresKind.Z: f"z^{self.n}" if self.n > 1 else "z",
            PresKind.BAND: f"X_{{{self.n},{self.eta}}}",
        }[self.kind]
        if not self.g:
            return core
        return "g" if self.kind is PresKind.ONE else f"g*{core}"


def mono_one(g: int = 0) -> PresMonomial:
    return PresMonomial(g % 2, PresKind.ONE)


def mono_x(g: int = 0) -> PresMonomial:
    return PresMonomial(g % 2, PresKind.X)


def mono_x2(g: int = 0) -> PresMonomial:
    return PresMonomial(g % 2, PresKind.X2)


def mono_y(n: int, g: int = 0) -> PresMonomial:
    return PresMonomial(g % 2, PresKind.Y, n)


def mono_z(n: int, g: int = 0) -> PresMonomial:
    return PresMonomial(g % 2, PresKind.Z, n)


def mono_band(n: int, e, g: int = 0) -> PresMonomial:
    return PresMonomial(g % 2, PresKind.BAND, n, eta(e))


class PresElement(LinearCombination):
    """Normal-form integer combination of basis monomials."""

    @classmethod
    def from_monomial(cls, m: PresMonomial) -> "PresElement":
        return cls([(m, 1)])

    @classmethod
    def unit(cls) -> "PresElement":
        return cls.from_monomial(mono_one())


class GroupRingPair(NamedTuple):
    """Integer pair (c0, c1) standing for c0*1 + c1*g."""

    c0: int
    c1: int


def a_seq(n: int) -> int:
    """The sequence 1/2 * sum_{i=1}^{n-1} (3^(i-1)+1)(n-i); a_1 = 0.

    In closed form a_n = ((3^n - 2n - 1)/4 + n(n-1)/2) / 2: the sum of
    3^(i-1)(n-i) is (3^n - 2n - 1)/4 and the sum of n-i is n(n-1)/2.  Both
    divisions are exact.
    """
    if n < 1:
        raise ValueError("a_seq is defined for n >= 1")
    return ((3**n - 2 * n - 1) // 4 + n * (n - 1) // 2) // 2


def f_poly(n: int) -> GroupRingPair:
    """a_n*(1+g) - n(n-1)/2 * g^n, reduced mod g^2 = 1."""
    if n < 1:
        raise ValueError("f_poly is defined for n >= 1")
    a = a_seq(n)
    half = n * (n - 1) // 2
    if n % 2 == 0:
        return GroupRingPair(a - half, a)
    return GroupRingPair(a, a - half)


def _pow_one_plus_two_g(n: int) -> GroupRingPair:
    """(1+2g)^n reduced mod g^2 = 1."""
    p, m = 3**n, (-1) ** n
    return GroupRingPair((p + m) // 2, (p - m) // 2)


def _g_twist(e: PresElement, g: int) -> PresElement:
    if not g:
        return e
    return PresElement(
        (PresMonomial((m.g + 1) % 2, m.kind, m.n, m.eta), c) for m, c in e.terms()
    )


def _mul_cores(m1: PresMonomial, m2: PresMonomial) -> PresElement:
    """Product of two g-free monomials, fully rewritten to normal form."""
    if m1.kind > m2.kind:
        m1, m2 = m2, m1
    k1, k2 = m1.kind, m2.kind
    K = PresKind

    if k1 is K.ONE:
        return PresElement.from_monomial(m2)

    if k1 in (K.X, K.X2):
        if k2 is K.X:
            return PresElement.from_monomial(mono_x2())
        if k2 is K.X2:
            # x^3 = 2x + 2gx and x^4 = 2x^2 + 2gx^2
            c0 = c1 = 2
        elif k2 in (K.Y, K.Z):
            c0, c1 = _pow_one_plus_two_g(m2.n)
        else:
            c0 = c1 = m2.n
        return PresElement([(PresMonomial(0, k1), c0), (PresMonomial(1, k1), c1)])

    if k1 in (K.Y, K.Z):
        if k2 is k1:
            return PresElement.from_monomial(PresMonomial(0, k1, m1.n + m2.n))
        if k2 is K.Z:
            return _mixed_yz(m1.n, m2.n)
        return _string_times_band(k1, m1.n, m2)

    # band times band
    n, t = m1.n, m2.n
    e1, e2 = m1.eta, m2.eta
    if e1 != e2:
        return PresElement([(mono_x2(1), n * t)])
    if n > t:
        n, t = t, n
    return PresElement(
        [
            (mono_x2(1), n * (t - 1)),
            (PresMonomial(0, K.BAND, n, e1), 1),
            (PresMonomial(1, K.BAND, n, e1), 1),
        ]
    )


def _mixed_yz(m: int, n: int) -> PresElement:
    """y^m z^n in closed form.

    With k = min(m, n), yz = 1 + 2x^2 and x^4 = 2(1+g)x^2 give
    (1+2x^2)^k = 1 + 2k x^2 + ((9^k - 8k - 1)/8)(1+g)x^2.  The leftover
    power w^j of y or z, j = |m - n|, acts on x^2 as (1+2g)^j and on
    (1+g)x^2 as 3^j.
    """
    k, j = min(m, n), abs(m - n)
    if j == 0:
        head = mono_one()
    else:
        head = mono_y(j) if m > n else mono_z(j)
    c0, c1 = _pow_one_plus_two_g(j)
    shared = (9**k - 8 * k - 1) // 8 * 3**j
    return PresElement([(head, 1), (mono_x2(), 2 * k * c0 + shared), (mono_x2(1), 2 * k * c1 + shared)])


def _string_times_band(kind: PresKind, m: int, bmono: PresMonomial) -> PresElement:
    """y^m or z^m times a band monomial X = X_{n,eta}, in closed form.

    The relations give zX = n x^2 + gX and yX = n g x^2 + gX, and y and z
    both act on x^2 as u = 1 + 2g, since x(y - 1 - 2g) = 0 and
    x(y - z) = 0.  So z^m X = g^m X + n s x^2 with
    s = sum_{j<m} g^j u^(m-1-j), and y^m X = g^m X + n g s x^2.  On
    (1+g)/2, g acts as 1 and u as 3; on (1-g)/2 both act as -1.  With
    A = (3^m - 1)/2 and B = m(-1)^(m-1) this gives s = c0 + c1 g,
    c0 = (A+B)/2 and c1 = (A-B)/2; A + B is always even.  The factor g
    for y swaps c0 and c1.
    """
    n = bmono.n
    a, b = (3**m - 1) // 2, m * (-1) ** (m - 1)
    c0, c1 = (a + b) // 2, (a - b) // 2
    if kind is PresKind.Y:
        c0, c1 = c1, c0
    return PresElement([(mono_x2(), n * c0), (mono_x2(1), n * c1), (PresMonomial(m % 2, PresKind.BAND, n, bmono.eta), 1)])


def _mul_monomials(m1: PresMonomial, m2: PresMonomial) -> PresElement:
    g = (m1.g + m2.g) % 2
    core1 = PresMonomial(0, m1.kind, m1.n, m1.eta)
    core2 = PresMonomial(0, m2.kind, m2.n, m2.eta)
    return _g_twist(_mul_cores(core1, core2), g)


def nf_mul(p: PresElement, q: PresElement) -> PresElement:
    """Product of two normal forms, again in normal form."""
    return PresElement(
        (m, c1 * c2 * c)
        for m1, c1 in p.terms()
        for m2, c2 in q.terms()
        for m, c in _mul_monomials(m1, m2).terms()
    )


# -- isomorphism with the label model ------------------------------------


def _monomial_to_green(m: PresMonomial) -> GreenElement:
    K = PresKind
    g = m.g
    if m.kind is K.ONE:
        return GreenElement.from_label(simple_one(g))
    if m.kind is K.X:
        return GreenElement.from_label(simple_two(g))
    if m.kind is K.X2:
        # x^2 = [P(1)], gx^2 = [P(0)]
        return GreenElement.from_label(projective(1 - g))
    if m.kind is K.BAND:
        return GreenElement.from_label(band(m.n, g, m.eta))
    c0, c1 = f_poly(m.n)
    s = m.n if m.kind is K.Y else -m.n
    if g:
        # g*(y^n) = [O^n V(1)] + c1*[P(1)] + c0*[P(0)]
        return GreenElement(
            [(omega(s, 1), 1), (projective(1), c1), (projective(0), c0)]
        )
    return GreenElement([(omega(s, 0), 1), (projective(1), c0), (projective(0), c1)])


def to_green(p: PresElement) -> GreenElement:
    """Image of a normal form under the ring isomorphism onto the label model."""
    return GreenElement(
        (label, c * k) for m, c in p.terms() for label, k in _monomial_to_green(m).terms()
    )


def _label_to_pres(label: Label) -> PresElement:
    K = LabelKind
    r = label.r
    if label.kind is K.SIMPLE_ONE:
        return PresElement.from_monomial(mono_one(r))
    if label.kind is K.SIMPLE_TWO:
        return PresElement.from_monomial(mono_x(r))
    if label.kind is K.PROJECTIVE:
        # [P(1)] = x^2, [P(0)] = gx^2
        return PresElement.from_monomial(mono_x2(1 - r))
    if label.kind is K.BAND:
        return PresElement.from_monomial(mono_band(label.s, label.eta, r))
    c0, c1 = f_poly(label.s)
    power = mono_y(label.s, r) if label.kind is K.SYZYGY else mono_z(label.s, r)
    if r:
        return PresElement([(power, 1), (mono_x2(1), -c0), (mono_x2(), -c1)])
    return PresElement([(power, 1), (mono_x2(), -c0), (mono_x2(1), -c1)])


def from_green(e: GreenElement) -> PresElement:
    """Normal form of a label-model element; exact inverse of to_green."""
    return PresElement(
        (m, c * k) for label, c in e.terms() for m, k in _label_to_pres(label).terms()
    )
