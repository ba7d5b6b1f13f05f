"""Shared machinery for free abelian groups on an ordered basis."""

from __future__ import annotations

from operator import methodcaller
from typing import Iterable

_sort_key = methodcaller("sort_key")


class BasisTuple:
    """Mixin for the validated namedtuple basis keys.

    It comes before the namedtuple in the bases.  The canonical order is
    ``sort_key``'s, not the tuple's field order, and ``_make``, so also
    ``_replace``, goes through the subclass's validating constructor.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and so _replace) would skip validation
        return cls(*iterable)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        return self.sort_key() >= other.sort_key()


class LinearCombination:
    """Finite integer-coefficient map over hashable basis keys, each with a
    ``sort_key`` method that gives the canonical basis order.

    Zero coefficients are never stored; equality and hashing are by the
    underlying map.  The constructor is the one place where terms are
    summed; callers that only sum iterate ``_coeffs.items()`` in any order,
    and only ``terms`` sorts.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[tuple] = ()):
        store = {}
        for key, c in coeffs:
            c = int(c)
            if c:
                c0 = store.get(key, 0) + c
                if c0:
                    store[key] = c0
                else:
                    del store[key]
        self._coeffs = store

    @classmethod
    def zero(cls):
        return cls()

    def coeff(self, key) -> int:
        return self._coeffs.get(key, 0)

    def terms(self) -> list[tuple]:
        """(key, coefficient) pairs in canonical basis order."""
        coeffs = self._coeffs
        return [(k, coeffs[k]) for k in sorted(coeffs, key=_sort_key)]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)([*self._coeffs.items(), *other._coeffs.items()])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._wrap({k: -c for k, c in self._coeffs.items()})

    def scaled(self, n: int):
        n = int(n)
        if not n:
            return self._wrap({})
        return self._wrap({k: n * c for k, c in self._coeffs.items()})

    def _wrap(self, coeffs: dict):
        obj = type(self).__new__(type(self))
        obj._coeffs = coeffs
        return obj

    def __repr__(self) -> str:
        if not self._coeffs:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{c}*{k!r}" for k, c in self.terms())
        return f"{type(self).__name__}({body})"
