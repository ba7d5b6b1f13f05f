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
    LabelKind,
    band,
    omega,
    projective,
    simple_one,
    simple_two,
)
from .presentation import (
    PresElement,
    PresKind,
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
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
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


def parse_element(src: str) -> GreenElement:
    """Parse an integer combination of bracketed labels; '0' is the zero element."""
    if src.strip() == "0":
        return GreenElement.zero()
    cur = _Cursor(src)
    acc = GreenElement.zero()
    sign = -1 if cur.take("-") else 1
    if sign == 1:
        cur.take("+")
    while True:
        cur.skip_ws()
        coeff = 1
        if cur.peek().isdigit():
            coeff = cur.uint()
            cur.expect("*")
        cur.expect("[")
        label = _parse_label(cur)
        cur.expect("]")
        acc = acc + GreenElement.from_label(label, sign * coeff)
        if cur.at_end():
            return acc
        if cur.take("+"):
            sign = 1
        elif cur.take("-"):
            sign = -1
        else:
            raise ParseError("expected '+', '-' or end of input", cur.pos)


def render_label(label: Label) -> str:
    return f"[{label}]"


def render_element(e: GreenElement) -> str:
    """Canonical text form: terms in label order, unit coefficients omitted."""
    terms = e.terms()
    if not terms:
        return "0"
    parts = []
    for i, (label, coeff) in enumerate(terms):
        mag = abs(coeff)
        body = render_label(label) if mag == 1 else f"{mag}*{render_label(label)}"
        if i == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)


def render_eta(e: Eta) -> str:
    return str(e)


def label_to_json(label: Label) -> dict:
    kind = {
        LabelKind.SIMPLE_ONE: "simple_one",
        LabelKind.SIMPLE_TWO: "simple_two",
        LabelKind.PROJECTIVE: "projective",
        LabelKind.SYZYGY: "syzygy",
        LabelKind.COSYZYGY: "cosyzygy",
        LabelKind.BAND: "band",
    }[label.kind]
    out: dict = {"kind": kind, "r": label.r}
    if label.kind in (LabelKind.SYZYGY, LabelKind.COSYZYGY, LabelKind.BAND):
        out["s"] = label.s
    if label.kind is LabelKind.BAND:
        out["eta"] = render_eta(label.eta)
    return out


def element_to_json(e: GreenElement) -> dict:
    return {"terms": [{"label": label_to_json(l), "coeff": c} for l, c in e.terms()]}


# -- presentation side ----------------------------------------------------


_GEN_ELEMENTS = {
    "g": lambda: PresElement.from_monomial(mono_one(1)),
    "x": lambda: PresElement.from_monomial(mono_x()),
    "y": lambda: PresElement.from_monomial(mono_y(1)),
    "z": lambda: PresElement.from_monomial(mono_z(1)),
}


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
        if ch in _GEN_ELEMENTS:
            cur.pos += 1
            base = _GEN_ELEMENTS[ch]()
        else:
            raise ParseError("expected a generator (1, g, x, y, z or X_{n,eta})", start)
    if cur.take("^"):
        power = cur.uint()
        acc = PresElement.unit()
        for _ in range(power):
            acc = nf_mul(acc, base)
        return acc
    return base


def parse_pres_element(src: str) -> PresElement:
    """Parse a presentation expression and reduce it to normal form."""
    if src.strip() == "0":
        return PresElement.zero()
    cur = _Cursor(src)
    acc = PresElement.zero()
    sign = -1 if cur.take("-") else 1
    if sign == 1:
        cur.take("+")
    while True:
        cur.skip_ws()
        coeff = 1
        term = None
        if cur.peek().isdigit() and cur.peek() != "1":
            coeff = cur.uint()
            if not cur.take("*"):
                term = PresElement.unit()
        elif cur.peek() == "1":
            # could be the unit factor or the start of a number like 12
            save = cur.pos
            num = cur.uint()
            if num != 1:
                coeff = num
                if not cur.take("*"):
                    term = PresElement.unit()
            else:
                cur.pos = save
        if term is None:
            term = _parse_pres_factor(cur)
            while cur.take("*"):
                term = nf_mul(term, _parse_pres_factor(cur))
        acc = acc + term.scaled(sign * coeff)
        if cur.at_end():
            return acc
        if cur.take("+"):
            sign = 1
        elif cur.take("-"):
            sign = -1
        else:
            raise ParseError("expected '+', '-' or end of input", cur.pos)


def render_pres_element(p: PresElement) -> str:
    terms = p.terms()
    if not terms:
        return "0"
    parts = []
    for i, (m, coeff) in enumerate(terms):
        mag = abs(coeff)
        body = str(m)
        if mag != 1:
            body = f"{mag}*{body}" if body != "1" else str(mag)
        if i == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)


def pres_monomial_to_json(m: PresMonomial) -> dict:
    kind = {
        PresKind.ONE: "one",
        PresKind.X: "x",
        PresKind.X2: "x2",
        PresKind.Y: "y",
        PresKind.Z: "z",
        PresKind.BAND: "band",
    }[m.kind]
    out: dict = {"g": m.g, "kind": kind}
    if m.kind in (PresKind.Y, PresKind.Z, PresKind.BAND):
        out["n"] = m.n
    if m.kind is PresKind.BAND:
        out["eta"] = render_eta(m.eta)
    return out


def pres_to_json(p: PresElement) -> dict:
    return {"terms": [{"monomial": pres_monomial_to_json(m), "coeff": c} for m, c in p.terms()]}
