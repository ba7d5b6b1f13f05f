"""Generators-and-relations model of the Green ring.

The ring is generated by ``g = [V(1)]``, ``x = [V(2,0)]``, ``y = [O^1 V(0)]``,
``z = [O^-1 V(0)]`` and one band generator ``X_{n,eta} = [M_n(0,eta)]`` per
size and projective-line point.  Every element has a unique normal form over
the basis

    1, g, x, gx, x^2, gx^2, y^n, gy^n, z^n, gz^n, X_{n,eta}, gX_{n,eta}

and :func:`nf_mul` multiplies normal forms by a fixed table: ``_mul_cores``
gives every product of the g-free cores of two monomials in closed form,
as (monomial, coefficient) pairs, and never calls :func:`nf_mul`.
:func:`nf_mul` walks both coefficient maps unsorted, multiplies each core
product by g^(g1 XOR g2) (where that is g, it flips the g bit of every
output monomial), and sums everything into one dict that becomes the
result.  The output
monomials are built by ``_mono``, which skips the validation of the public
:class:`PresMonomial` constructor.  That is safe because every field comes
from valid inputs: g bits combine by XOR, each kind is taken from the
closed set, each n is a sum, difference or minimum of sizes that keeps it
at least 1 where the kind needs it (and 0 where it does not), and an eta
is copied from a band factor.

:func:`to_green` and :func:`from_green` realise the mutually inverse ring
isomorphisms with the label model in :mod:`d4green.green`.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum
from typing import NamedTuple

from ._linear import BasisTuple, LinearCombination
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


_tuple_new = tuple.__new__
_PresFields = namedtuple("PresMonomial", "g kind n eta")
_CORES = ("1", "x", "x^2", "y", "z")  # the core of each kind but BAND


class PresMonomial(BasisTuple, _PresFields):
    """One basis monomial: a core generator power times an optional g.

    A tuple ``(g, kind, n, eta)``.  The constructor validates; equality and
    hashing are the tuple's, but the canonical order is ``sort_key``, not
    the tuple's field order.
    """

    __slots__ = ()

    def __new__(cls, g: int, kind: PresKind, n: int = 0, eta: Eta | None = None):
        if type(g) is not int or g not in (0, 1):
            raise ValueError("g exponent must be 0 or 1")
        if type(n) is not int:
            raise ValueError(f"n must be an int, got {n!r}")
        if type(kind) is not PresKind:
            # products dispatch on kind by identity
            kind = PresKind(kind)
        if kind in (PresKind.Y, PresKind.Z, PresKind.BAND):
            if n < 1:
                raise ValueError(f"{kind.name} needs n >= 1")
        elif n:
            raise ValueError(f"{kind.name} does not take n")
        if kind is PresKind.BAND:
            if not isinstance(eta, Eta):
                raise ValueError("band monomial needs an Eta parameter")
        elif eta is not None:
            raise ValueError(f"{kind.name} does not take eta")
        return _tuple_new(cls, (g, kind, n, eta))

    def sort_key(self):
        ek = self.eta.sort_key() if self.eta is not None else (0, 0)
        return (int(self.kind), self.n, ek, self.g)

    def __str__(self) -> str:
        kind, n = self.kind, self.n
        if kind is PresKind.BAND:
            core = f"X_{{{n},{self.eta}}}"
        else:
            # only y and z take n, and print it from 2 on
            core = _CORES[kind] if n < 2 else f"{_CORES[kind]}^{n}"
        if not self.g:
            return core
        return "g" if kind is PresKind.ONE else f"g*{core}"


def _mono(g: int, kind: PresKind, n: int = 0, e: Eta | None = None) -> PresMonomial:
    """PresMonomial without validation, for monomials built from valid ones."""
    return _tuple_new(PresMonomial, (g, kind, n, e))


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


_X = (_mono(0, PresKind.X), _mono(1, PresKind.X))
_X2 = (_mono(0, PresKind.X2), _mono(1, PresKind.X2))


def _mul_cores(m1: PresMonomial, m2: PresMonomial) -> list[tuple[PresMonomial, int]]:
    """Product of the g-free cores of two monomials, fully rewritten to
    normal form, as (monomial, coefficient) pairs.

    Reads only the kind, n and eta of its arguments; a monomial may occur
    with coefficient 0.
    """
    if m1.kind > m2.kind:
        m1, m2 = m2, m1
    k1, k2 = m1.kind, m2.kind
    K = PresKind

    if k1 is K.ONE:
        return [(_mono(0, k2, m2.n, m2.eta), 1)]

    if k1 is K.X or k1 is K.X2:
        if k2 is K.X:
            return [(_X2[0], 1)]
        if k2 is K.X2:
            # x^3 = 2x + 2gx and x^4 = 2x^2 + 2gx^2
            c0 = c1 = 2
        elif k2 is K.Y or k2 is K.Z:
            c0, c1 = _pow_one_plus_two_g(m2.n)
        else:
            c0 = c1 = m2.n
        m, gm = _X if k1 is K.X else _X2
        return [(m, c0), (gm, c1)]

    if k1 is K.Y or k1 is K.Z:
        if k2 is k1:
            return [(_mono(0, k1, m1.n + m2.n), 1)]
        if k2 is K.Z:
            return _mixed_yz(m1.n, m2.n)
        return _string_times_band(k1, m1.n, m2)

    # band times band
    n, t = m1.n, m2.n
    e1, e2 = m1.eta, m2.eta
    if e1 != e2:
        return [(_X2[1], n * t)]
    if n > t:
        n, t = t, n
    return [(_X2[1], n * (t - 1)), (_mono(0, K.BAND, n, e1), 1), (_mono(1, K.BAND, n, e1), 1)]


def _mixed_yz(m: int, n: int) -> list[tuple[PresMonomial, int]]:
    """y^m z^n in closed form, as (monomial, coefficient) pairs.

    With k = min(m, n), yz = 1 + 2x^2 and x^4 = 2(1+g)x^2 give
    (1+2x^2)^k = 1 + 2k x^2 + ((9^k - 8k - 1)/8)(1+g)x^2.  The leftover
    power w^j of y or z, j = |m - n|, acts on x^2 as (1+2g)^j and on
    (1+g)x^2 as 3^j.
    """
    k, j = min(m, n), abs(m - n)
    if j == 0:
        head = _mono(0, PresKind.ONE)
    else:
        head = _mono(0, PresKind.Y if m > n else PresKind.Z, j)
    c0, c1 = _pow_one_plus_two_g(j)
    shared = (9**k - 8 * k - 1) // 8 * 3**j
    return [(head, 1), (_X2[0], 2 * k * c0 + shared), (_X2[1], 2 * k * c1 + shared)]


def _string_times_band(kind: PresKind, m: int, bmono: PresMonomial) -> list[tuple[PresMonomial, int]]:
    """y^m or z^m times a band monomial X = X_{n,eta}, in closed form, as
    (monomial, coefficient) pairs.

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
    return [(_X2[0], n * c0), (_X2[1], n * c1), (_mono(m % 2, PresKind.BAND, n, bmono.eta), 1)]


def nf_mul(p: PresElement, q: PresElement) -> PresElement:
    """Product of two normal forms, again in normal form."""
    store: dict = {}
    get = store.get
    right = q._coeffs.items()
    for m1, c1 in p._coeffs.items():
        g1 = m1.g
        for m2, c2 in right:
            twist = g1 ^ m2.g
            c12 = c1 * c2
            for m, c in _mul_cores(m1, m2):
                if twist:
                    m = _mono(m.g ^ 1, m.kind, m.n, m.eta)
                c = get(m, 0) + c * c12
                if c:
                    store[m] = c
                else:
                    store.pop(m, None)
    return p._wrap(store)


# -- isomorphism with the label model ------------------------------------


def _monomial_to_green(m: PresMonomial) -> list[tuple[Label, int]]:
    K = PresKind
    g = m.g
    if m.kind is K.ONE:
        return [(simple_one(g), 1)]
    if m.kind is K.X:
        return [(simple_two(g), 1)]
    if m.kind is K.X2:
        # x^2 = [P(1)], gx^2 = [P(0)]
        return [(projective(1 - g), 1)]
    if m.kind is K.BAND:
        return [(band(m.n, g, m.eta), 1)]
    c0, c1 = f_poly(m.n)
    s = m.n if m.kind is K.Y else -m.n
    if g:
        # g*(y^n) = [O^n V(1)] + c1*[P(1)] + c0*[P(0)]
        return [(omega(s, 1), 1), (projective(1), c1), (projective(0), c0)]
    return [(omega(s, 0), 1), (projective(1), c0), (projective(0), c1)]


def to_green(p: PresElement) -> GreenElement:
    """Image of a normal form under the ring isomorphism onto the label model."""
    return GreenElement(
        (label, c * k) for m, c in p._coeffs.items() for label, k in _monomial_to_green(m)
    )


def _label_to_pres(label: Label) -> list[tuple[PresMonomial, int]]:
    K = LabelKind
    r = label.r
    if label.kind is K.SIMPLE_ONE:
        return [(mono_one(r), 1)]
    if label.kind is K.SIMPLE_TWO:
        return [(mono_x(r), 1)]
    if label.kind is K.PROJECTIVE:
        # [P(1)] = x^2, [P(0)] = gx^2
        return [(mono_x2(1 - r), 1)]
    if label.kind is K.BAND:
        return [(mono_band(label.s, label.eta, r), 1)]
    c0, c1 = f_poly(label.s)
    power = mono_y(label.s, r) if label.kind is K.SYZYGY else mono_z(label.s, r)
    if r:
        return [(power, 1), (mono_x2(1), -c0), (mono_x2(), -c1)]
    return [(power, 1), (mono_x2(), -c0), (mono_x2(1), -c1)]


def from_green(e: GreenElement) -> PresElement:
    """Normal form of a label-model element; exact inverse of to_green."""
    return PresElement(
        (m, c * k) for label, c in e._coeffs.items() for m, k in _label_to_pres(label)
    )
