import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import green_elements, labels
from d4green import grammar
from d4green.grammar import (
    ParseError,
    element_to_json,
    label_to_json,
    parse_element,
    parse_eta,
    parse_pres_element,
    pres_monomial_to_json,
    pres_to_json,
    render_element,
    render_label,
    render_pres_element,
)
from d4green.green import ETA_INF, GreenElement, LabelKind, band, eta, omega, projective, simple_one, simple_two
from d4green.presentation import (
    PresElement,
    PresKind,
    from_green,
    mono_band,
    mono_one,
    mono_x,
    mono_x2,
    mono_y,
    mono_z,
)


def test_parse_basic_terms():
    e = parse_element("[V(2,0)] + 2*[P(1)]")
    assert e == GreenElement([(simple_two(0), 1), (projective(1), 2)])


def test_parse_cosyzygy():
    assert parse_element("[O^-3V(1)]") == GreenElement.from_label(omega(-3, 1))


def test_parse_band_difference():
    e = parse_element("[M_2(0,5/7)] - [M_2(0,oo)]")
    assert e.coeff(band(2, 0, '5/7')) == 1
    assert e.coeff(band(2, 0, ETA_INF)) == -1


def test_parse_leading_sign():
    e = parse_element("-2*[V(0)] + [V(1)]")
    assert e.coeff(simple_one(0)) == -2
    assert e.coeff(simple_one(1)) == 1


def test_parse_negative_eta():
    assert parse_element("[M_1(1,-2)]") == GreenElement.from_label(band(1, 1, -2))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_element("[V(3)]")
    assert err.value.pos == 3
    with pytest.raises(ParseError):
        parse_element("[O^0V(0)]")
    with pytest.raises(ParseError):
        parse_element("[M_0(0,1)]")
    with pytest.raises(ParseError):
        parse_element("[V(0)] ++ [V(1)]")
    with pytest.raises(ParseError):
        parse_element("2[V(0)]")


def test_render_zero():
    assert render_element(GreenElement.zero()) == "0"


def test_render_orders_canonically():
    e = GreenElement([(omega(1, 1), 1), (projective(1), 3)])
    assert render_element(e) == "3*[P(1)] + [O^1V(1)]"


def test_render_negative_leading_term():
    e = GreenElement([(simple_one(0), -2), (projective(0), 1)])
    assert render_element(e) == "-2*[V(0)] + [P(0)]"


@given(labels(max_s=12))
@settings(max_examples=150)
def test_label_round_trip(label):
    assert parse_element(render_label(label)) == GreenElement.from_label(label)


@given(green_elements(max_s=6))
@settings(max_examples=150)
def test_element_round_trip(e):
    assert parse_element(render_element(e)) == e


def test_json_schema():
    e = parse_element("[M_2(0,5/7)] + 2*[O^-1V(0)]")
    payload = element_to_json(e)
    assert payload == {
        "terms": [
            {"label": {"kind": "cosyzygy", "r": 0, "s": 1}, "coeff": 2},
            {"label": {"kind": "band", "r": 0, "s": 2, "eta": "5/7"}, "coeff": 1},
        ]
    }
    # deterministic serialisation
    assert json.dumps(payload) == json.dumps(element_to_json(parse_element(render_element(e))))


def test_pres_parse_normalises():
    assert parse_pres_element("y*z") == PresElement(
        [(mono_one(), 1), (mono_x2(), 2)]
    )
    assert parse_pres_element("x^3") == PresElement([(mono_x(), 2), (mono_x(1), 2)])
    assert parse_pres_element("g*g") == PresElement.unit()
    assert parse_pres_element("X_{2,1/3}") == PresElement.from_monomial(mono_band(2, '1/3'))
    assert parse_pres_element("1 + 2*x^2 - 12*g") == PresElement(
        [(mono_one(), 1), (mono_x2(), 2), (mono_one(1), -12)]
    )


def test_pres_parse_errors():
    with pytest.raises(ParseError):
        parse_pres_element("w")
    with pytest.raises(ParseError):
        parse_pres_element("X_{0,1}")
    with pytest.raises(ParseError):
        parse_pres_element("x**2")


def test_pres_render_round_trip():
    e = parse_element("[O^2V(1)] - [P(0)] + 3*[M_1(1,oo)]")
    p = from_green(e)
    assert parse_pres_element(render_pres_element(p)) == p


def test_pres_json():
    p = parse_pres_element("2*g*y^2 - x")
    payload = pres_to_json(p)
    kinds = [t["monomial"]["kind"] for t in payload["terms"]]
    assert kinds == ["x", "y"]
    assert payload["terms"][1]["monomial"] == {"g": 1, "kind": "y", "n": 2}


def pres_elements():
    """from_green of label-model elements, plus coefficient-only and g terms."""
    coeffs = st.integers(min_value=-15, max_value=15)
    return st.tuples(green_elements(), coeffs, coeffs).map(
        lambda t: from_green(t[0]) + PresElement([(mono_one(), t[1]), (mono_one(1), t[2])])
    )


@given(pres_elements())
@settings(max_examples=150)
def test_pres_element_round_trip(p):
    assert parse_pres_element(render_pres_element(p)) == p


@pytest.mark.parametrize(
    "terms, text",
    [
        ([(mono_one(), 1)], "1"),
        ([(mono_one(), -1)], "-1"),
        ([(mono_one(), 12)], "12"),
        ([(mono_one(1), 1)], "g"),
        ([(mono_one(1), 12)], "12*g"),
        ([(mono_one(), -12), (mono_one(1), 1)], "-12 + g"),
        ([(mono_x(1), 10)], "10*g*x"),
    ],
)
def test_pres_render_of_unit_and_g_terms(terms, text):
    p = PresElement(terms)
    assert render_pres_element(p) == text
    assert parse_pres_element(text) == p


@pytest.mark.parametrize(
    "text, terms",
    [
        ("1", [(mono_one(), 1)]),  # the unit factor
        ("1^2*x", [(mono_x(), 1)]),  # the unit factor, raised to a power
        ("1*g", [(mono_one(1), 1)]),
        ("12", [(mono_one(), 12)]),  # any other number is a coefficient
        ("12*x", [(mono_x(), 12)]),
        ("01", [(mono_one(), 1)]),
        ("01*x", [(mono_x(), 1)]),
        ("10*x", [(mono_x(), 10)]),
        ("0*x + 1", [(mono_one(), 1)]),
    ],
)
def test_pres_unit_factor_rule(text, terms):
    assert parse_pres_element(text) == PresElement(terms)


@pytest.mark.parametrize("text, pos", [("1 2", 2), ("12 x", 3), ("01^2", 2)])
def test_pres_number_followed_by_junk(text, pos):
    with pytest.raises(ParseError) as err:
        parse_pres_element(text)
    assert err.value.pos == pos


# Digits outside ASCII 0-9 ('²' superscript two, '١' Arabic-Indic one) are not numbers.
@pytest.mark.parametrize(
    "parse, text, pos",
    [
        (parse_element, "²*[V(0)]", 0),
        (parse_element, "١*[V(0)]", 0),
        (parse_element, "[M_١(0,1)]", 3),
        (parse_element, "[V(٠)]", 3),
        (parse_element, "[M_1(0,1/٧)]", 9),
        (parse_pres_element, "x^²", 2),
        (parse_pres_element, "²*x", 0),
        (parse_pres_element, "X_{١,0}", 3),
    ],
)
def test_non_ascii_digits_are_parse_errors(parse, text, pos):
    with pytest.raises(ParseError, match=rf"\(at position {pos}\)$") as err:
        parse(text)
    assert err.value.pos == pos


# The kind strings documented in the README's JSON section.
LABEL_KINDS = {
    simple_one(0): "simple_one",
    simple_two(1): "simple_two",
    projective(0): "projective",
    omega(2, 1): "syzygy",
    omega(-3, 0): "cosyzygy",
    band(2, 1, ETA_INF): "band",
}
PRES_KINDS = {
    mono_one(1): "one",
    mono_x(): "x",
    mono_x2(1): "x2",
    mono_y(2): "y",
    mono_z(1, 1): "z",
    mono_band(3, "5/7"): "band",
}


def test_json_kind_strings_of_every_label_kind():
    assert {label.kind for label in LABEL_KINDS} == set(LabelKind)
    for label, kind in LABEL_KINDS.items():
        assert label_to_json(label)["kind"] == kind


def test_json_kind_strings_of_every_monomial_kind():
    assert {m.kind for m in PRES_KINDS} == set(PresKind)
    for m, kind in PRES_KINDS.items():
        assert pres_monomial_to_json(m)["kind"] == kind


# -- the reader on spaced, mutated and broken input -----------------------------

WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]  # U+3000 is the last one
# literals the reader takes whole, then digit runs, then any single character
TOKEN = re.compile(r"V\(2,|V\(|P\(|O\^|M_|X_\{|oo|[0-9]+|.", re.S)
MUTATIONS = list("0123456789+-*^/[](){},_VPOMXgxyzo ") + ["١", "²", "\x1c", "　"]


@st.composite
def pres_words(draw):
    """Signed sums of products of generators with small powers, and optional coefficients."""
    factor = st.tuples(
        st.sampled_from(["1", "g", "x", "y", "z", "X_{2,5/7}", "X_{1,-2}", "X_{3,oo}"]),
        st.sampled_from(["", "^0", "^1", "^2", "^3"]),
    ).map("".join)
    coeff = st.sampled_from(["", "0*", "1*", "2*", "01*", "12*"])
    term = st.tuples(coeff, st.lists(factor, min_size=1, max_size=3).map("*".join)).map("".join)
    text = draw(st.sampled_from(["", "-", "+"])) + draw(term)
    for more in draw(st.lists(st.tuples(st.sampled_from([" + ", " - "]), term), max_size=2)):
        text += "".join(more)
    return text


@st.composite
def grammar_inputs(draw):
    """(parser, text, expected element or None): a rendered element, re-spaced
    between tokens (same element) or mutated by single characters (None)."""
    parse, text = draw(
        st.one_of(
            green_elements(max_s=12).map(lambda e: (parse_element, render_element(e))),
            pres_elements().map(lambda p: (parse_pres_element, render_pres_element(p))),
            pres_words().map(lambda w: (parse_pres_element, w)),
        )
    )
    expected = parse(text)
    if draw(st.booleans()):
        ws = st.lists(st.sampled_from(WHITESPACE), max_size=2).map("".join)
        tokens = TOKEN.findall(text)
        spaced = "".join(draw(ws) + tok for tok in tokens if not tok.isspace()) + draw(ws)
        return parse, spaced, expected
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            chars.insert(i, draw(st.sampled_from(MUTATIONS)))
        elif chars and i < len(chars):
            if op == "delete":
                del chars[i]
            else:
                chars[i] = draw(st.sampled_from(MUTATIONS))
    return parse, "".join(chars), None


@given(grammar_inputs())
@settings(max_examples=400, deadline=None)
def test_spaced_input_parses_alike_and_mutated_input_fails_in_range(case):
    parse, text, expected = case
    try:
        got = parse(text)
    except ParseError as err:
        assert expected is None, f"re-spaced {text!r} failed: {err}"
        assert 0 <= err.pos <= len(text)
        return
    if expected is not None:
        assert got == expected


# (parser, input, message, position), recorded with the character-by-character
# reader that came before the token reader: one row per message, and one per
# place where the position is not the start of the offending token.
@pytest.mark.parametrize(
    "parse, text, message, pos",
    [
        (parse_element, "[V(0)", "expected ']'", 5),
        (parse_element, "[V(0]", "expected ')'", 4),
        (parse_element, "2[V(0)]", "expected '*'", 1),
        (parse_element, "2*V(0)", "expected '['", 2),
        (parse_element, "", "expected '['", 0),
        (parse_element, "[M_2 0,1)]", "expected '('", 5),
        (parse_element, "[M_2(0 1)]", "expected ','", 7),
        (parse_element, "[O^2(0)]", "expected 'V('", 4),
        (parse_element, "[V(x)]", "expected an unsigned integer", 3),
        (parse_element, "[V(3)]", "residue must be 0 or 1", 3),
        (parse_element, "[M_1١(0,1)]", "expected '('", 4),  # '١' ends the number
        (parse_element, "[Q(0)]", "expected a module label", 1),
        (parse_element, "[V (0)]", "expected a module label", 1),
        (parse_element, "[V(0)] [V(1)]", "expected '+', '-' or end of input", 7),
        (parse_element, "[O^0V(0)]", "syzygy power must be nonzero", 3),
        (parse_element, "[M_0(0,1)]", "band size must be positive", 3),
        (parse_element, "[M_1(0,1/0)]", "zero denominator", 7),
        # a zero is reported where M_, X_{ or a '-' before it ends, else at the number
        (parse_element, "[O^ 0V(0)]", "syzygy power must be nonzero", 4),
        (parse_element, "[O^- 0V(0)]", "syzygy power must be nonzero", 4),
        (parse_element, "[M_ 0(0,1)]", "band size must be positive", 3),
        (parse_element, "[M_1(0,- 1/0)]", "zero denominator", 8),
        (parse_element, "[M_1(0, 1/0)]", "zero denominator", 8),
        (parse_pres_element, "X_{ 0,1}", "band size must be positive", 3),
        (parse_eta, "-1/0", "zero denominator", 1),
        (parse_eta, "1 /0", "zero denominator", 0),
        # O^s expects 'V(': 'V(2,' is 'V(' and the residue 2
        (parse_element, "[O^1V(2,0)]", "residue must be 0 or 1", 6),
        # a number that starts with 1 in a product is the unit factor, then junk
        (parse_pres_element, "x*11", "expected '+', '-' or end of input", 3),
        (parse_pres_element, "2*12", "expected '+', '-' or end of input", 3),
        (parse_pres_element, "1 2", "expected '+', '-' or end of input", 2),
        (parse_pres_element, "X_{2 1}", "expected ','", 5),
        (parse_pres_element, "X_{2,1", "expected '}'", 6),
        (parse_pres_element, "x^", "expected an unsigned integer", 2),
        (parse_pres_element, "w", "expected a generator (1, g, x, y, z or X_{n,eta})", 0),
        (parse_eta, "oo1", "expected end of input after eta", 2),
        (parse_eta, "-oo", "expected an unsigned integer", 1),
    ],
)
def test_parse_error_messages_and_positions(parse, text, message, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("x^20000 + w", "expected a generator (1, g, x, y, z or X_{n,eta})", 10),
        ("x^20000*12", "expected '+', '-' or end of input", 9),
        ("y^20000 - 2*z^3*w", "expected a generator (1, g, x, y, z or X_{n,eta})", 16),
    ],
)
def test_a_sum_is_read_whole_before_any_product_is_taken(monkeypatch, text, message, pos):
    calls = []

    def nf_mul(*args):
        calls.append(args)
        raise AssertionError("a product was taken before the sum was read")

    monkeypatch.setattr(grammar, "nf_mul", nf_mul)
    with pytest.raises(ParseError) as err:
        parse_pres_element(text)
    assert (str(err.value), err.value.pos, calls) == (f"{message} (at position {pos})", pos, [])
