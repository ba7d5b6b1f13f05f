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

Whitespace (``str.isspace``) may stand between any two tokens.  Each term is
read in one match of a compiled pattern of its grammar, sign included.  A
term that the pattern does not match, or whose fields break a rule the
pattern does not check, is read again from its sign by the step-by-step
reader (``_Cursor``).  The reader is the reference: it raises every
``ParseError``, so messages and positions do not depend on the pattern, and
both paths build the same element from any term both accept.
"""

from __future__ import annotations

import re
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
    def __init__(self, src: str, pos: int = 0):
        self.src = src
        self.pos = pos

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


# -- one compiled pattern per term -------------------------------------------
#
# Digits are [0-9], not \d, which also matches digits such as '١'; \s is
# exactly str.isspace, which the cursor skips.  Every digit run is followed
# by (?![0-9]), so no backtracking splits one, and a pattern never ends a
# term where the reader would go on reading it.  The rules a pattern does
# not check (a residue above 1, a zero size or denominator) send the term
# to the reader, like a term the pattern does not match.

_UINT = r"([0-9]+)(?![0-9])"
# eta: groups oo, minus sign, numerator, denominator
_ETA = r"(?:(oo)|(-)?\s*" + _UINT + r"(?:\s*/\s*" + _UINT + r")?)"

# groups: sign, coefficient; V(2,r), V(r), P(r); O^ sign, s, r; M_ s, r; eta
_LABEL_TERM = re.compile(
    r"\s*([+-])?\s*(?:" + _UINT + r"\s*\*\s*)?\[\s*(?:"
    r"V\(2,\s*" + _UINT +
    r"|V\(\s*" + _UINT +
    r"|P\(\s*" + _UINT +
    r"|O\^\s*(-)?\s*" + _UINT + r"\s*V\(\s*" + _UINT +
    r"|M_\s*" + _UINT + r"\s*\(\s*" + _UINT + r"\s*,\s*" + _ETA +
    r")\s*\)\s*\]"
)

# One factor with its power; groups: band size, eta, generator, power.
_FACTOR = r"\s*(?:X_\{\s*" + _UINT + r"\s*,\s*" + _ETA + r"\s*\}|([1gxyz]))(?:\s*\^\s*" + _UINT + r")?(?!\s*\^)"
_PRES_FACTOR = re.compile(_FACTOR)
# groups: sign, a coefficient alone, a coefficient before factors, the
# factors (then those of _FACTOR, which _PRES_FACTOR reads again).
# A digit run that is exactly '1' is the unit factor; any other is a
# coefficient, so factors come first only where two digits do not.
_COEFF = r"(?!1(?![0-9]))" + _UINT
_PRES_TERM = re.compile(
    r"\s*([+-])?\s*(?:" + _COEFF + r"(?!\s*\*)"
    r"|(?:" + _COEFF + r"\s*\*|(?!\s*[0-9]{2}))(" + _FACTOR + r"(?:\s*\*" + _FACTOR + r")*)(?!\s*\*))"
)


def _eta_of(inf, neg, num, den) -> Eta | None:
    """The eta of matched eta groups; None for a zero denominator."""
    if inf:
        return ETA_INF
    num = int(num)
    if den:
        den = int(den)
        if not den:
            return None
        value = Fraction(num, den)
    else:
        value = Fraction(num)
    return Eta(-value if neg else value)


def _label_term_of(m: re.Match) -> list[tuple[Label, int]] | None:
    """The pairs of a term matched by _LABEL_TERM; None where a field breaks a
    rule.  Fields are converted in the reader's order, so an integer too
    long for int() raises the reader's ValueError."""
    _, coeff, two, one, proj, neg, s, sr, bs, br, *e = m.groups()
    coeff = 1 if coeff is None else int(coeff)
    if bs is not None:
        s = int(bs)
        if not s:
            return None
        r = int(br)
        if r > 1:
            return None
        value = _eta_of(*e)
        if value is None:
            return None
        return [(band(s, r, value), coeff)]
    if s is not None:
        s = int(s)
        if not s:
            return None
        r = int(sr)
        if r > 1:
            return None
        return [(omega(-s if neg else s, r), coeff)]
    if two is not None:
        text, make = two, simple_two
    elif one is not None:
        text, make = one, simple_one
    else:
        text, make = proj, projective
    r = int(text)
    if r > 1:
        return None
    return [(make(r), coeff)]


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


def _parse_sum(src: str, cls, pattern: re.Pattern, term_of, read_term):
    """Read a signed sum of terms into one ``cls`` element; '0' is zero.

    Each term is first matched by ``pattern``, and ``term_of`` gives the
    match's (key, coefficient) pairs, or None.  A term that does not match,
    or gets None, is read again from its sign by the cursor and
    ``read_term``, which raise every ParseError.
    """
    if src.strip() == "0":
        return cls.zero()
    pairs = []
    pos, first = 0, True
    while True:
        m = pattern.match(src, pos)
        terms = term_of(m) if m is not None and (first or m[1]) else None
        if terms is not None:
            negative = m[1] == "-"
            pos = m.end()
        else:
            cur = _Cursor(src, pos)
            if cur.take("-"):
                negative = True
            elif cur.take("+") or first:
                negative = False
            else:
                raise ParseError("expected '+', '-' or end of input", cur.pos)
            cur.skip_ws()
            terms = read_term(cur)
            pos = cur.pos
        pairs.extend([(key, -c) for key, c in terms] if negative else terms)
        if pos == len(src) or src[pos:].isspace():
            return cls(pairs)
        first = False


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
    return _parse_sum(src, GreenElement, _LABEL_TERM, _label_term_of, _parse_label_term)


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


def _parse_pres_factor(cur: _Cursor) -> tuple[PresElement, int | None]:
    """One factor read by the cursor, as its base and its power (None if absent)."""
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
    else:
        ch = cur.peek()
        if ch in _GENERATORS:
            cur.pos += 1
            base = PresElement.from_monomial(_GENERATORS[ch])
        else:
            raise ParseError("expected a generator (1, g, x, y, z or X_{n,eta})", start)
    return base, cur.uint() if cur.take("^") else None


def _pres_product(coeff: int, factors) -> list[tuple[PresMonomial, int]]:
    """The pairs of coeff times the product of (base, power) factors.

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
    return [(m, coeff * c) for m, c in term._coeffs.items()]


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
    factors = [_parse_pres_factor(cur)]
    while cur.take("*"):
        factors.append(_parse_pres_factor(cur))
    return _pres_product(coeff, factors)


def _pres_term_of(m: re.Match) -> list[tuple[PresMonomial, int]] | None:
    """The pairs of a term matched by _PRES_TERM; None where a band size or
    an eta denominator is zero.  Every field is converted before any
    product is taken, in the reader's order."""
    alone, coeff = m[2], m[3]
    if alone is not None:
        return [(mono_one(), int(alone))]
    factors = []
    coeff = 1 if coeff is None else int(coeff)
    for n, *e, gen, power in _PRES_FACTOR.findall(m.string, *m.span(4)):
        if gen:
            base = PresElement.from_monomial(_GENERATORS[gen])
        else:
            n = int(n)
            value = _eta_of(*e) if n else None
            if value is None:
                return None
            base = PresElement.from_monomial(mono_band(n, value))
        factors.append((base, int(power) if power else None))
    return _pres_product(coeff, factors)


def parse_pres_element(src: str) -> PresElement:
    """Parse a presentation expression and reduce it to normal form."""
    return _parse_sum(src, PresElement, _PRES_TERM, _pres_term_of, _parse_pres_term)


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
