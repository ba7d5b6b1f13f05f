import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ETA_POOL, labels
from d4green.green import ETA_INF, GreenElement, band, eta, mul, omega, projective, simple_one, simple_two
from d4green import presentation
from d4green._linear import LinearCombination
from d4green.grammar import parse_pres_element
from d4green.presentation import (
    GroupRingPair,
    PresElement,
    PresKind,
    PresMonomial,
    _mul_cores,
    _string_times_band,
    a_seq,
    f_poly,
    from_green,
    mono_band,
    mono_one,
    mono_x,
    mono_x2,
    mono_y,
    mono_z,
    nf_mul,
    to_green,
)


def pe(*terms):
    return PresElement(list(terms))


def test_a_seq_values():
    assert [a_seq(n) for n in (1, 2, 3)] == [0, 1, 4]
    with pytest.raises(ValueError):
        a_seq(0)


def test_a_seq_closed_form_matches_sum():
    for n in range(1, 400):
        assert a_seq(n) == sum((3 ** (i - 1) + 1) * (n - i) for i in range(1, n)) // 2


def test_a_seq_recurrence():
    for n in range(1, 51):
        assert 3 * a_seq(n) - n * (n - 1) // 2 == a_seq(n + 1) - n


def test_f_poly_values():
    assert f_poly(1) == GroupRingPair(0, 0)
    assert f_poly(2) == GroupRingPair(0, 1)
    assert f_poly(3) == GroupRingPair(4, 1)
    with pytest.raises(ValueError):
        f_poly(0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, PresKind.ONE), "g exponent must be 0 or 1"),
        ((-1, PresKind.X), "g exponent must be 0 or 1"),
        ((0, PresKind.Y, 0), "Y needs n >= 1"),
        ((1, PresKind.Z, -3), "Z needs n >= 1"),
        ((0, PresKind.BAND, 0, eta(1)), "BAND needs n >= 1"),
        ((0, PresKind.ONE, 1), "ONE does not take n"),
        ((1, PresKind.X, 2), "X does not take n"),
        ((0, PresKind.X2, 1), "X2 does not take n"),
        ((0, PresKind.BAND, 2), "band monomial needs an Eta parameter"),
        ((0, PresKind.BAND, 2, Fraction(1, 2)), "band monomial needs an Eta parameter"),
        ((0, PresKind.ONE, 0, ETA_INF), "ONE does not take eta"),
        ((1, PresKind.Y, 1, eta(0)), "Y does not take eta"),
    ],
)
def test_invalid_monomials_raise(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PresMonomial(*args)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: mono_y(0), "Y needs n >= 1"),
        (lambda: mono_z(-2, 1), "Z needs n >= 1"),
        (lambda: mono_band(0, "5/7"), "BAND needs n >= 1"),
        (lambda: mono_y(3)._replace(n=0), "Y needs n >= 1"),
        (lambda: mono_x()._replace(g=2), "g exponent must be 0 or 1"),
        (lambda: mono_x2(1)._replace(eta=ETA_INF), "X2 does not take eta"),
        (lambda: mono_band(2, 0)._replace(eta=None), "band monomial needs an Eta parameter"),
        (lambda: PresMonomial._make((0, PresKind.ONE, 1, None)), "ONE does not take n"),
    ],
)
def test_helpers_and_replace_validate(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_kind_is_coerced_to_pres_kind():
    m = PresMonomial(0, 3, 2)
    assert m.kind is PresKind.Y and m == mono_y(2)
    assert nf_mul(pe((PresMonomial(1, 1), 1)), pe((mono_x(), 1))) == pe((mono_x2(1), 1))
    with pytest.raises(ValueError):
        PresMonomial(0, 9)


def test_helpers_reduce_g_mod_2():
    assert mono_x(2) == mono_x() and mono_y(3, 3) == mono_y(3, 1) and mono_band(1, 0, -1) == mono_band(1, 0, 1)


def test_monomial_repr_and_str():
    m = mono_band(2, "1/3", 1)
    assert repr(m) == "PresMonomial(g=1, kind=<PresKind.BAND: 5>, n=2, eta=Eta(value=Fraction(1, 3)))"
    assert repr(mono_x()) == "PresMonomial(g=0, kind=<PresKind.X: 1>, n=0, eta=None)"
    assert [str(m) for m in (mono_one(1), mono_x2(1), mono_y(1), mono_z(4), m)] == ["g", "g*x^2", "y", "z^4", "g*X_{2,1/3}"]


def pres_monomials(max_n=5, etas=ETA_POOL):
    g = st.sampled_from([0, 1])
    n = st.integers(min_value=1, max_value=max_n)
    return st.one_of(
        st.builds(mono_one, g),
        st.builds(mono_x, g),
        st.builds(mono_x2, g),
        st.builds(mono_y, n, g),
        st.builds(mono_z, n, g),
        st.builds(mono_band, st.integers(min_value=1, max_value=3), st.sampled_from(etas), g),
    )


@given(st.lists(pres_monomials(), min_size=1, max_size=8))
@settings(max_examples=200)
def test_monomial_order_is_sort_key(monos):
    # the tuple's own field order (g first) must not leak into comparisons
    assert sorted(monos) == sorted(monos, key=PresMonomial.sort_key)
    for a in monos:
        for b in monos:
            ka, kb = a.sort_key(), b.sort_key()
            assert (a < b, a > b, a <= b, a >= b, a == b) == (ka < kb, ka > kb, ka <= kb, ka >= kb, ka == kb)


@given(pres_monomials())
@settings(max_examples=100)
def test_equal_monomials_hash_equally(m):
    # rebuilt by the public constructor and as a product with the unit
    (product, c), = nf_mul(PresElement.unit(), PresElement.from_monomial(m)).terms()
    for twin in (PresMonomial(*m), product):
        assert c == 1 and twin == m and hash(twin) == hash(m)


def test_nf_mul_yz():
    y = pe((mono_y(1), 1))
    z = pe((mono_z(1), 1))
    assert nf_mul(y, z) == pe((mono_one(), 1), (mono_x2(), 2))


def test_nf_mul_unit():
    p = pe((mono_y(3, 1), 2), (mono_band(2, '5/7'), -1))
    assert nf_mul(PresElement.unit(), p) == p


def test_nf_mul_band_distinct():
    lhs = nf_mul(pe((mono_band(1, 0), 1)), pe((mono_band(1, ETA_INF), 1)))
    assert lhs == pe((mono_x2(1), 1))


def test_nf_mul_x_cubed():
    x = pe((mono_x(), 1))
    assert nf_mul(x, nf_mul(x, x)) == pe((mono_x(), 2), (mono_x(1), 2))


def test_nf_mul_mixed_power():
    # y^2 z reduces through yz = 1 + 2x^2 and the x^2-absorption rules;
    # cross-checked against the label model below
    y, z = pe((mono_y(1), 1)), pe((mono_z(1), 1))
    y2z = nf_mul(nf_mul(y, y), z)
    assert y2z == pe((mono_y(1), 1), (mono_x2(), 2), (mono_x2(1), 4))
    assert to_green(y2z) == mul(
        mul(to_green(y), to_green(y)), to_green(z)
    )


def _mixed_yz_by_peeling(m, n):
    """y^m z^n by peeling one yz = 1 + 2x^2 pair at a time: the reference."""
    if m == 0 or n == 0:
        return nf_mul(pe((mono_y(m), 1)) if m else PresElement.unit(), pe((mono_z(n), 1)) if n else PresElement.unit())
    rest = _mixed_yz_by_peeling(m - 1, n - 1)
    return rest + nf_mul(pe((mono_x2(), 1)), rest).scaled(2)


def test_mixed_yz_closed_form_matches_peeling():
    for m in range(1, 30):
        for n in range(1, 30):
            assert nf_mul(pe((mono_y(m), 1)), pe((mono_z(n), 1))) == _mixed_yz_by_peeling(m, n)


@pytest.mark.parametrize("g", [0, 1])
def test_mixed_yz_matches_label_model(g):
    for m in (1, 2, 5, 13, 40):
        for n in (1, 3, 5, 17, 40):
            y, z = pe((mono_y(m, g), 1)), pe((mono_z(n), 1))
            assert to_green(nf_mul(y, z)) == mul(to_green(y), to_green(z))


def test_mixed_yz_deep_powers():
    # peeling recursed min(m, n) frames deep and raised RecursionError here
    got = nf_mul(pe((mono_y(1500), 1)), pe((mono_z(1200), 1)))
    k = (9**1200 - 8 * 1200 - 1) // 8 * 3**300
    c0, c1 = (3**300 + 1) // 2, (3**300 - 1) // 2
    assert got == pe((mono_y(300), 1), (mono_x2(), 2400 * c0 + k), (mono_x2(1), 2400 * c1 + k))


def _string_times_band_by_steps(kind, max_m, bmono):
    """y^m or z^m times a band monomial for m = 1..max_m, one generator
    step at a time: the reference."""
    n = bmono.n
    if kind is PresKind.Y:
        step = PresElement([(mono_x2(1), n), (PresMonomial(1, PresKind.BAND, n, bmono.eta), 1)])
        gen = PresElement.from_monomial(mono_y(1))
    else:
        step = PresElement([(mono_x2(), n), (PresMonomial(1, PresKind.BAND, n, bmono.eta), 1)])
        gen = PresElement.from_monomial(mono_z(1))
    acc = step
    for _ in range(max_m):
        yield acc
        acc = nf_mul(gen, acc)


@pytest.mark.parametrize("kind", [PresKind.Y, PresKind.Z], ids=["y", "z"])
def test_string_times_band_closed_form_matches_steps(kind):
    for n in (1, 2, 3, 7):
        for e in (0, '5/7', ETA_INF):
            bmono = mono_band(n, e)
            for m, want in enumerate(_string_times_band_by_steps(kind, 120, bmono), 1):
                assert PresElement(_string_times_band(kind, m, bmono)) == want


@pytest.mark.parametrize("power", [mono_y, mono_z])
def test_string_times_band_matches_label_model(power):
    for m in range(1, 40):
        for i in (0, 1):
            for j in (0, 1):
                for n in (1, 2, 3, 7):
                    for e in (0, '5/7', ETA_INF):
                        p, q = pe((power(m, i), 1)), pe((mono_band(n, e, j), 1))
                        assert to_green(nf_mul(p, q)) == mul(to_green(p), to_green(q))


def test_mul_cores_never_calls_nf_mul(monkeypatch):
    def refuse(p, q):
        raise AssertionError("_mul_cores called nf_mul")

    monkeypatch.setattr(presentation, "nf_mul", refuse)
    for power in (mono_y, mono_z):
        got = PresElement(_mul_cores(power(500), mono_band(3, '5/7')))
        assert got.coeff(mono_band(3, '5/7')) == 1


def test_to_green_examples():
    y2 = nf_mul(pe((mono_y(1), 1)), pe((mono_y(1), 1)))
    assert y2 == pe((mono_y(2), 1))
    assert to_green(y2) == GreenElement([(omega(2, 0), 1), (projective(0), 1)])
    assert to_green(pe((mono_x(), 1))) == GreenElement.from_label(simple_two(0))
    assert to_green(pe((mono_band(3, '1/2'), 1))) == GreenElement.from_label(band(3, 0, '1/2'))


def test_from_green_examples():
    assert from_green(GreenElement.from_label(omega(1, 0))) == pe((mono_y(1), 1))
    assert from_green(GreenElement.unit()) == PresElement.unit()
    assert from_green(GreenElement.from_label(omega(2, 0))) == pe((mono_y(2), 1), (mono_x2(1), -1))


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("g", (0, 1))
def test_monomial_round_trips(n, g):
    for e in ETA_POOL:
        for m in (mono_y(n, g), mono_z(n, g), mono_band(n, e, g)):
            p = PresElement.from_monomial(m)
            assert from_green(to_green(p)) == p


@given(labels(max_s=12))
@settings(max_examples=120)
def test_label_round_trips(label):
    e = GreenElement.from_label(label)
    assert to_green(from_green(e)) == e


def _monomials(max_n, etas):
    monos = [mono_one(), mono_one(1), mono_x(), mono_x(1), mono_x2(), mono_x2(1)]
    for n in range(1, max_n + 1):
        for g in (0, 1):
            monos += [mono_y(n, g), mono_z(n, g)]
            monos += [mono_band(n, e, g) for e in etas]
    return monos


MONOS = _monomials(4, [eta(0), eta(1), ETA_INF])


@given(st.sampled_from(MONOS), st.sampled_from(MONOS))
@settings(max_examples=200)
def test_multiplicative_on_monomials(m1, m2):
    p1, p2 = PresElement.from_monomial(m1), PresElement.from_monomial(m2)
    assert to_green(nf_mul(p1, p2)) == mul(to_green(p1), to_green(p2))


@given(st.sampled_from(MONOS), st.sampled_from(MONOS), st.sampled_from(MONOS))
@settings(max_examples=100)
def test_nf_mul_associative_commutative(m1, m2, m3):
    p1, p2, p3 = (PresElement.from_monomial(m) for m in (m1, m2, m3))
    assert nf_mul(p1, p2) == nf_mul(p2, p1)
    assert nf_mul(nf_mul(p1, p2), p3) == nf_mul(p1, nf_mul(p2, p3))


PROPERTY_ETAS = [eta(0), eta(Fraction(5, 7)), ETA_INF]


def pres_elements(max_terms=5):
    term = st.tuples(pres_monomials(max_n=6, etas=PROPERTY_ETAS), st.integers(min_value=-5, max_value=5))
    return st.lists(term, max_size=max_terms).map(PresElement)


@given(pres_elements(), pres_elements())
@settings(max_examples=150)
def test_multiplicative_on_elements(p, q):
    assert to_green(nf_mul(p, q)) == mul(to_green(p), to_green(q))
    assert nf_mul(p, q) == nf_mul(q, p)


def test_nf_mul_builds_one_element_and_no_validated_monomial(monkeypatch):
    p = pe((mono_x(1), 3), (mono_y(4), -2), (mono_band(2, "5/7", 1), 1), (mono_z(3, 1), 5), (mono_one(), 2))
    q = pe((mono_x2(), 2), (mono_z(2), 1), (mono_band(3, "5/7"), -1), (mono_band(1, 0, 1), 4), (mono_one(1), 1))
    want = from_green(mul(to_green(p), to_green(q)))
    built = []

    def refuse(*args, **kwargs):
        raise AssertionError("nf_mul validated a monomial or sorted a term list")

    def counted(method):
        def run(self, *args):
            built.append(type(self))
            return method(self, *args)

        return run

    monkeypatch.setattr(PresMonomial, "__new__", refuse)
    monkeypatch.setattr(LinearCombination, "terms", refuse)
    # an element is built by the summing constructor or by _wrap
    monkeypatch.setattr(LinearCombination, "__init__", counted(LinearCombination.__init__))
    monkeypatch.setattr(LinearCombination, "_wrap", counted(LinearCombination._wrap))
    got = nf_mul(p, q)
    monkeypatch.undo()
    assert got == want
    assert built == [PresElement]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 40, 41, 257, 998, 1001, 1999, 2000])
def test_x_powers_match_closed_forms(n):
    # x^(2k+1) = 2^(2k-1)(x + gx) for k >= 1, x^(2k) = 2^(2k-3)(x^2 + gx^2) for k >= 2
    if n % 2:
        want = pe((mono_x(), 2 ** (n - 2)), (mono_x(1), 2 ** (n - 2)))
    else:
        want = pe((mono_x2(), 2 ** (n - 3)), (mono_x2(1), 2 ** (n - 3)))
    assert parse_pres_element(f"x^{n}") == want


def test_ideal_generators_vanish():
    one = GreenElement.unit()
    g = GreenElement.from_label(simple_one(1))
    x = GreenElement.from_label(simple_two(0))
    y = GreenElement.from_label(omega(1, 0))
    z = GreenElement.from_label(omega(-1, 0))
    x2 = mul(x, x)
    assert mul(g, g) == one
    assert mul(x, x2) == mul(x, one + g).scaled(2)
    assert mul(x, y) == mul(x, one + g.scaled(2))
    assert mul(x, y) == mul(x, z)
    assert mul(y, z) == one + x2.scaled(2)
    for n in (1, 2, 3):
        for e in (eta(0), ETA_INF):
            xn = GreenElement.from_label(band(n, 0, e))
            assert mul(x, xn) == mul(one + g, x).scaled(n)
            assert mul(y, xn) == mul(g, x2).scaled(n) + mul(g, xn)
            assert mul(z, xn) == x2.scaled(n) + mul(g, xn)
            for t in range(n, 4):
                xt = GreenElement.from_label(band(t, 0, e))
                assert mul(xn, xt) == mul(g, x2).scaled(n * (t - 1)) + xn + mul(g, xn)
    assert mul(
        GreenElement.from_label(band(2, 0, eta(0))),
        GreenElement.from_label(band(3, 0, ETA_INF)),
    ) == mul(g, x2).scaled(6)
