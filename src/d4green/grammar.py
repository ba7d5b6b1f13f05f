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
"""

from __future__ import annotations

from fractions import Fraction

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
        self.pos = pos


# The grammar is 7-bit clean: str.isdigit would also take digits such as '²' or '١'.
_DIGITS = frozenset("0123456789")


class _Cursor:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.src)

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.src.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise ParseError(f"expected '{literal}'", self.pos)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", start)
        return int(self.src[start : self.pos])

    def residue(self) -> int:
        self.skip_ws()
        start = self.pos
        r = self.uint()
        if r not in (0, 1):
            raise ParseError("residue must be 0 or 1", start)
        return r

    def eta(self) -> Eta:
        self.skip_ws()
        if self.take("oo"):
            return ETA_INF
        neg = self.take("-")
        start = self.pos
        num = self.uint()
        if self.take("/"):
            den = self.uint()
            if den == 0:
                raise ParseError("zero denominator", start)
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        return Eta(-value if neg else value)


def parse_eta(src: str) -> Eta:
    """Parse one band parameter, alone, in the eta syntax of the element grammar."""
    cur = _Cursor(src)
    value = cur.eta()
    if not cur.at_end():
        raise ParseError("expected end of input after eta", cur.pos)
    return value


def _parse_label(cur: _Cursor) -> Label:
    cur.skip_ws()
    start = cur.pos
    if cur.take("V(2,"):
        r = cur.residue()
        cur.expect(")")
        return simple_two(r)
    if cur.take("V("):
        r = cur.residue()
        cur.expect(")")
        return simple_one(r)
    if cur.take("P("):
        r = cur.residue()
        cur.expect(")")
        return projective(r)
    if cur.take("O^"):
        neg = cur.take("-")
        spos = cur.pos
        s = cur.uint()
        if s == 0:
            raise ParseError("syzygy power must be nonzero", spos)
        cur.expect("V(")
        r = cur.residue()
        cur.expect(")")
        return omega(-s if neg else s, r)
    if cur.take("M_"):
        spos = cur.pos
        s = cur.uint()
        if s == 0:
            raise ParseError("band size must be positive", spos)
        cur.expect("(")
        r = cur.residue()
        cur.expect(",")
        e = cur.eta()
        cur.expect(")")
        return band(s, r, e)
    raise ParseError("expected a module label", start)


def _parse_sum(src: str, cls, parse_term):
    """Read a signed sum of terms into one ``cls`` element; '0' is zero.

    ``parse_term`` reads one term at the cursor and returns its
    (key, coefficient) pairs.
    """
    if src.strip() == "0":
        return cls.zero()
    cur = _Cursor(src)
    pairs = []
    sign = -1 if cur.take("-") else 1
    if sign == 1:
        cur.take("+")
    while True:
        cur.skip_ws()
        pairs.extend((key, sign * c) for key, c in parse_term(cur))
        if cur.at_end():
            return cls(pairs)
        if cur.take("+"):
            sign = 1
        elif cur.take("-"):
            sign = -1
        else:
            raise ParseError("expected '+', '-' or end of input", cur.pos)


def _parse_label_term(cur: _Cursor) -> list[tuple[Label, int]]:
    coeff = 1
    if cur.peek() in _DIGITS:
        coeff = cur.uint()
        cur.expect("*")
    cur.expect("[")
    label = _parse_label(cur)
    cur.expect("]")
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


_GENERATORS = {"g": mono_one(1), "x": mono_x(), "y": mono_y(1), "z": mono_z(1)}


def _parse_pres_factor(cur: _Cursor) -> PresElement:
    cur.skip_ws()
    start = cur.pos
    if cur.take("X_{"):
        npos = cur.pos
        n = cur.uint()
        if n == 0:
            raise ParseError("band size must be positive", npos)
        cur.expect(",")
        e = cur.eta()
        cur.expect("}")
        base = PresElement.from_monomial(mono_band(n, e))
    elif cur.take("1"):
        base = PresElement.unit()
    else:
        ch = cur.peek()
        if ch in _GENERATORS:
            cur.pos += 1
            base = PresElement.from_monomial(_GENERATORS[ch])
        else:
            raise ParseError("expected a generator (1, g, x, y, z or X_{n,eta})", start)
    if cur.take("^"):
        power = cur.uint()
        acc = PresElement.unit()
        for _ in range(power):
            acc = nf_mul(acc, base)
        return acc
    return base


def _parse_pres_term(cur: _Cursor) -> list[tuple[PresMonomial, int]]:
    coeff = 1
    start = cur.pos
    if cur.peek() in _DIGITS:
        coeff = cur.uint()
        if cur.src[start : cur.pos] == "1":
            # the unit factor, as in 1^2*x; any other number, 01 and 12
            # included, is a coefficient
            coeff, cur.pos = 1, start
        elif not cur.take("*"):
            return [(mono_one(), coeff)]
    term = _parse_pres_factor(cur)
    while cur.take("*"):
        term = nf_mul(term, _parse_pres_factor(cur))
    return [(m, coeff * c) for m, c in term.terms()]


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
