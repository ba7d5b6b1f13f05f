"""Text and JSON serialisation for ring elements, plus the input grammars.

Element grammar (7-bit clean; ``O^`` stands for the syzygy operator and
``oo`` for the infinite point of the projective line)::

    element := ['+'|'-'] term (('+'|'-') term)*
    term    := [uint '*'] '[' label ']'
    label   := 'V(' r ')' | 'V(2,' r ')' | 'P(' r ')'
             | 'O^' ['-'] uint 'V(' r ')' | 'M_' uint '(' r ',' eta ')'
    r       := '0' | '1'
    eta     := 'oo' | ['-'] uint ['/' uint]

Presentation-side grammar, used by the normal-form commands::

    element := ['+'|'-'] term (('+'|'-') term)*
    term    := uint ['*' factors] | factors
    factors := factor ('*' factor)*
    factor  := ('1'|'g'|'x'|'y'|'z'|'X_{' uint ',' eta '}') ['^' uint]

Products of generators are multiplied out, so presentation input need not
be in normal form.  Rendering always emits canonical order, and parsing a
rendered element reproduces it exactly.

Both grammars are read from one list of tokens: ``V(2,``, ``V(``, ``P(``,
``O^``, ``M_``, ``X_{``, ``oo``, a run of the digits ``0``-``9``, and any
other single character that is not whitespace.  Each token is the first of
these that fits at its place, so ``V(2,`` wins over ``V(``.  Whitespace
(``str.isspace``) may stand between tokens but not inside one, so
``V (0)`` and ``1 2`` are errors.  One recursive-descent reader reads the
tokens for ``parse_element``, ``parse_pres_element`` and ``parse_eta``.

A ``ParseError`` carries ``pos``, a 0-based character offset, and the CLI
exits 2 with ``error: <message> (at position p)``.  The offset is the start
of the token where the input breaks the grammar, or the input's length at
its end, with three exceptions:

- a zero size, or a zero denominator, is reported where ``M_``, ``X_{`` or
  the ``-`` before it ends, if one does;
- ``O^sV(2,`` is a residue error at the ``2``;
- in a product, a number that starts with ``1``, as in ``x*12``, is the
  unit factor, and the error comes at its second digit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .green import (
    ETA_INF,
    Eta,
    GreenElement,
    Label,
    band,
    omega,
    projective,
    simple_one,
    simple_two,
)
from .presentation import (
    PresElement,
    PresMonomial,
    mono_band,
    mono_one,
    mono_x,
    mono_y,
    mono_z,
    nf_mul,
)


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


# The tokens of both grammars; a digit is ASCII 0-9 only ('²' and '١' are
# single tokens), and \S skips exactly what str.isspace calls whitespace.
_TOKEN = re.compile(r"V\(2,|V\(|P\(|O\^|M_|X_\{|oo|[0-9]+|\S")
_DIGITS = frozenset("0123456789")


class _Reader:
    """The tokens of one input and the index ``i`` of the next; "" ends them."""

    __slots__ = ("src", "toks", "i", "cut")

    def __init__(self, src: str):
        self.src = src
        self.toks = _TOKEN.findall(src)
        self.toks.append("")
        self.i = 0
        # characters of the next token already read (a '1' taken from a number)
        self.cut = 0

    def fail(self, message: str, i: int | None = None, shift: int = 0):
        """Raise at ``shift`` characters into token ``i`` (default: the next one)."""
        starts = [m.start() for m in _TOKEN.finditer(self.src)] + [len(self.src)]
        raise ParseError(message, starts[self.i if i is None else i] + shift)

    def take(self, tok: str) -> bool:
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str):
        if self.toks[self.i] != tok:
            self.fail(f"expected '{tok}'")
        self.i += 1

    def uint(self) -> int:
        tok = self.toks[self.i]
        if tok[:1] not in _DIGITS:
            self.fail("expected an unsigned integer")
        self.i += 1
        return int(tok)

    def nonzero(self, message: str, i: int):
        """Raise for the zero number at token ``i``: where ``M_``, ``X_{`` or a
        '-' before it ends, or else at the number (toks[-1] is the end, "")."""
        before = self.toks[i - 1]
        if before in ("M_", "X_{", "-"):
            self.fail(message, i - 1, len(before))
        self.fail(message, i)

    def size(self, message: str) -> int:
        n = self.uint()
        if not n:
            self.nonzero(message, self.i - 1)
        return n

    def residue(self) -> int:
        r = self.uint()
        if r > 1:
            self.fail("residue must be 0 or 1", self.i - 1)
        return r

    def eta(self) -> Eta:
        if self.take("oo"):
            return ETA_INF
        neg = self.take("-")
        at = self.i
        num = self.uint()
        den = self.uint() if self.take("/") else 1
        if not den:
            self.nonzero("zero denominator", at)
        return Eta(Fraction(-num if neg else num, den))


def parse_eta(src: str) -> Eta:
    """Parse one band parameter, alone, in the eta syntax of the element grammar."""
    rd = _Reader(src)
    value = rd.eta()
    if rd.toks[rd.i]:
        rd.fail("expected end of input after eta")
    return value


def _parse_sum(src: str, cls, read_term):
    """Read a signed sum of terms into one ``cls`` element; '0' is zero.

    ``read_term`` reads one term after its sign and returns an iterable of
    its (key, coefficient) pairs.  The pairs are taken only once the whole
    sum is read, so an iterable that computes them lazily costs nothing when
    the input fails later.
    """
    if src.strip() == "0":
        return cls.zero()
    rd = _Reader(src)
    toks = rd.toks
    parts = []
    while True:
        negative = toks[rd.i] == "-"
        if negative or toks[rd.i] == "+":
            rd.i += 1
        terms = read_term(rd)
        parts.append(((key, -c) for key, c in terms) if negative else terms)
        tok = toks[rd.i]
        if not tok:
            return cls(chain.from_iterable(parts))
        if tok != "+" and tok != "-":
            rd.fail("expected '+', '-' or end of input", shift=rd.cut)


_SIMPLE = {"V(2,": simple_two, "V(": simple_one, "P(": projective}


def _parse_label_term(rd: _Reader) -> list[tuple[Label, int]]:
    toks = rd.toks
    tok = toks[rd.i]
    coeff = 1
    if tok[:1] in _DIGITS:
        coeff = int(tok)
        rd.i += 1
        rd.expect("*")
    rd.expect("[")
    tok = toks[rd.i]
    rd.i += 1
    if tok in _SIMPLE:
        label = _SIMPLE[tok](rd.residue())
    elif tok == "O^":
        neg = rd.take("-")
        s = rd.size("syzygy power must be nonzero")
        if toks[rd.i] == "V(2,":
            # read as 'V(' and the residue 2
            rd.fail("residue must be 0 or 1", shift=2)
        rd.expect("V(")
        label = omega(-s if neg else s, rd.residue())
    elif tok == "M_":
        s = rd.size("band size must be positive")
        rd.expect("(")
        r = rd.residue()
        rd.expect(",")
        label = band(s, r, rd.eta())
    else:
        rd.fail("expected a module label", rd.i - 1)
    rd.expect(")")
    rd.expect("]")
    return [(label, coeff)]


def parse_element(src: str) -> GreenElement:
    """Parse an integer combination of bracketed labels; '0' is the zero element."""
    return _parse_sum(src, GreenElement, _parse_label_term)


def render_label(label: Label) -> str:
    return f"[{label}]"


def _render_sum(terms, body) -> str:
    """Canonical text of (key, coefficient) terms, ``body`` rendering a key.

    A unit magnitude is omitted, and a body of exactly '1' is replaced by
    the magnitude.
    """
    if not terms:
        return "0"
    parts = []
    for i, (key, coeff) in enumerate(terms):
        mag, text = abs(coeff), body(key)
        if mag != 1:
            text = f"{mag}*{text}" if text != "1" else str(mag)
        if i == 0:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {text}")
    return " ".join(parts)


def render_element(e: GreenElement) -> str:
    """Canonical text form: terms in label order, unit coefficients omitted."""
    return _render_sum(e.terms(), render_label)


def label_to_json(label: Label) -> dict:
    out: dict = {"kind": label.kind.name.lower(), "r": label.r}
    if label.s:
        out["s"] = label.s
    if label.eta is not None:
        out["eta"] = str(label.eta)
    return out


def element_to_json(e: GreenElement) -> dict:
    return {"terms": [{"label": label_to_json(l), "coeff": c} for l, c in e.terms()]}


# -- presentation side ----------------------------------------------------


_GENERATORS = {"1": mono_one(), "g": mono_one(1), "x": mono_x(), "y": mono_y(1), "z": mono_z(1)}


def _parse_pres_factor(rd: _Reader) -> tuple[PresElement, int | None]:
    """One factor, as its base and its power (None if absent)."""
    tok = rd.toks[rd.i]
    rd.i += 1
    if tok in _GENERATORS:
        base = _GENERATORS[tok]
    elif tok == "X_{":
        n = rd.size("band size must be positive")
        rd.expect(",")
        e = rd.eta()
        rd.expect("}")
        base = mono_band(n, e)
    elif tok[:1] == "1":
        # the unit factor; the rest of the number is left unread, so the
        # term ends and the sum fails at its second digit
        rd.i -= 1
        rd.cut = 1
        return PresElement.unit(), None
    else:
        rd.fail("expected a generator (1, g, x, y, z or X_{n,eta})", rd.i - 1)
    return PresElement.from_monomial(base), rd.uint() if rd.take("^") else None


def _pres_product(coeff: int, factors) -> Iterator[tuple[PresMonomial, int]]:
    """The pairs of coeff times the product of (base, power) factors, computed
    when first iterated, that is after the whole sum is read (:func:`_parse_sum`).

    A power is that many products by the base, one after another.
    """
    term = None
    for base, power in factors:
        if power is not None:
            acc = PresElement.unit()
            for _ in range(power):
                acc = nf_mul(acc, base)
            base = acc
        term = base if term is None else nf_mul(term, base)
    for m, c in term._coeffs.items():
        yield m, coeff * c


def _parse_pres_term(rd: _Reader) -> Iterable[tuple[PresMonomial, int]]:
    coeff = 1
    tok = rd.toks[rd.i]
    # exactly '1' is the unit factor, as in 1^2*x; any other number, 01 and
    # 12 included, is a coefficient
    if tok[:1] in _DIGITS and tok != "1":
        coeff = int(tok)
        rd.i += 1
        if not rd.take("*"):
            return [(mono_one(), coeff)]
    factors = [_parse_pres_factor(rd)]
    while rd.take("*"):
        factors.append(_parse_pres_factor(rd))
    return _pres_product(coeff, factors)


def parse_pres_element(src: str) -> PresElement:
    """Parse a presentation expression and reduce it to normal form."""
    return _parse_sum(src, PresElement, _parse_pres_term)


def render_pres_element(p: PresElement) -> str:
    return _render_sum(p.terms(), str)


def pres_monomial_to_json(m: PresMonomial) -> dict:
    out: dict = {"g": m.g, "kind": m.kind.name.lower()}
    if m.n:
        out["n"] = m.n
    if m.eta is not None:
        out["eta"] = str(m.eta)
    return out


def pres_to_json(p: PresElement) -> dict:
    return {"terms": [{"monomial": pres_monomial_to_json(m), "coeff": c} for m, c in p.terms()]}
