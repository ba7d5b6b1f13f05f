import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import ETA_POOL, green_elements, labels
from d4green.green import (
    ETA_INF,
    Eta,
    GreenElement,
    Label,
    LabelKind,
    band,
    case_name,
    composition_factors,
    dimension,
    dual,
    dual_label,
    eta,
    grothendieck_image,
    label_dimension,
    mul,
    mul_labels,
    omega,
    projective,
    simple_one,
    simple_two,
)
from d4green.presentation import PresKind, PresMonomial
from d4green.verify import grid_labels

PROJECTIVE_KINDS = {LabelKind.PROJECTIVE, LabelKind.SIMPLE_TWO}


def el(*terms):
    return GreenElement(list(terms))


def test_label_validation():
    with pytest.raises(ValueError):
        Label(LabelKind.SYZYGY, 0, 0)
    with pytest.raises(ValueError):
        Label(LabelKind.BAND, 0, 1)
    with pytest.raises(ValueError):
        Label(LabelKind.SIMPLE_ONE, 2)
    assert omega(0, 1) == simple_one(1)


def test_label_kind_is_coerced_to_the_enum():
    # a kind given by its value used to print as M_1(0,None) and break _dispatch's identity tests
    label = Label(3, 0, 1)
    assert type(label.kind) is LabelKind and label.kind is LabelKind.SYZYGY
    assert str(label) == "O^1V(0)"
    assert mul_labels(label, simple_one(0)) == el((omega(1, 0), 1))
    with pytest.raises(ValueError):
        Label(7, 0)


SAMPLE_ETAS = [eta(0), eta("5/7"), eta(-2), ETA_INF]
EVERY_KIND = [simple_one(1), simple_two(0), projective(1), omega(2, 0), omega(-3, 1)] + [
    band(2, 1, e) for e in SAMPLE_ETAS
]


@pytest.mark.parametrize("x", [True, 0.1, 0.5, None, "0.5", "1/0", "1e3", "+5", "5/-7", "o o"], ids=repr)
def test_eta_rejects_what_the_grammar_does_not_read(x):
    # a float became a binary fraction, True became 1 and '1/0' a ZeroDivisionError
    with pytest.raises(ValueError):
        eta(x)
    with pytest.raises(ValueError):
        band(1, 0, x)


def test_eta_reads_the_grammar_syntax():
    e = eta(Fraction(5, 7))
    assert eta(e) is e
    assert eta(" 5/7 ") == eta("10/14") == e == Eta(Fraction(5, 7))
    assert (eta("oo"), eta("-2"), eta(-2), eta("0"), eta(0)) == (ETA_INF, Eta(-2), Eta(-2), Eta(0), Eta(0))


@pytest.mark.parametrize("label", EVERY_KIND, ids=str)
def test_labels_survive_pickle_and_copy(label):
    for twin in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)):
        assert type(twin) is Label and twin == label and hash(twin) == hash(label)
        assert type(twin.kind) is LabelKind and str(twin) == str(label)
        if label.eta is not None:
            assert type(twin.eta) is Eta and twin.eta.value == label.eta.value


@pytest.mark.parametrize("e", SAMPLE_ETAS, ids=str)
def test_etas_survive_pickle_and_copy(e):
    for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert type(twin) is Eta and twin == e and hash(twin) == hash(e) and str(twin) == str(e)


def test_label_and_eta_order_is_sort_key():
    # the tuples' own field order (r before s) must not leak into comparisons
    for values in (EVERY_KIND + [omega(1, 1), band(1, 0, 3)], SAMPLE_ETAS):
        assert sorted(values) == sorted(values, key=lambda v: v.sort_key())
        for a in values:
            for b in values:
                ka, kb = a.sort_key(), b.sort_key()
                assert (a < b, a > b, a <= b, a >= b, a == b) == (ka < kb, ka > kb, ka <= kb, ka >= kb, ka == kb)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Label(LabelKind.SYZYGY, 0, True),
        lambda: Label(LabelKind.BAND, True, 1, Eta(0)),
        lambda: Eta(True),
        lambda: Label(LabelKind.SYZYGY, 0, 2.0),
        lambda: Label(LabelKind.BAND, 0, 1.5, Eta(0)),
        lambda: omega(2.0, 0),
        lambda: PresMonomial(True, PresKind.ONE),
        lambda: PresMonomial(0, PresKind.Y, 2.5),
    ],
    ids=["syzygy-s-True", "band-r-True", "Eta-True", "syzygy-s-2.0", "band-s-1.5", "omega-2.0", "g-True", "y-n-2.5"],
)
def test_public_constructors_reject_bools_and_floats(build):
    # O^TrueV(0) printed, and a float size neither parsed back nor multiplied
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: omega(2, 0)._replace(s=0), "SYZYGY needs s >= 1"),
        (lambda: simple_one(0)._replace(r=2), "residue must be 0 or 1"),
        (lambda: projective(0)._replace(s=1), "PROJECTIVE does not take s"),
        (lambda: simple_two(1)._replace(eta=ETA_INF), "SIMPLE_TWO does not take eta"),
        (lambda: band(1, 0, 0)._replace(eta=None), "band label needs an Eta parameter"),
        (lambda: band(1, 0, 0)._replace(kind=7), "7 is not a valid LabelKind"),
        (lambda: Label._make((LabelKind.COSYZYGY, 0, -1, None)), "COSYZYGY needs s >= 1"),
        (lambda: ETA_INF._replace(value=0.5), "eta must be a Fraction, an int or None"),
        (lambda: Eta("1/2"), "eta must be a Fraction, an int or None"),
    ],
)
def test_replace_and_make_validate(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_replace_and_make_build_valid_labels():
    assert omega(2, 0)._replace(s=3) == omega(3, 0)
    assert band(1, 0, 0)._replace(eta=ETA_INF) == band(1, 0, ETA_INF)
    assert Label._make((LabelKind.PROJECTIVE, 1, 0, None)) == projective(1)
    assert Eta(2) == eta(2) and type(Eta(2).value) is Fraction


def test_canonical_order():
    ordering = [
        simple_one(0),
        simple_two(0),
        projective(1),
        omega(1, 0),
        omega(2, 0),
        omega(-1, 0),
        band(1, 0, 0),
        band(1, 0, '5/7'),
        band(1, 0, ETA_INF),
        band(2, 0, 0),
    ]
    assert sorted(ordering) == ordering


def test_element_normalisation():
    assert not el((simple_one(0), 1), (simple_one(0), -1))
    e = el((simple_one(0), 2), (simple_one(0), 3))
    assert e.coeff(simple_one(0)) == 5


# -- multiplication table --------------------------------------------------


def test_simple_two_squares():
    assert mul_labels(simple_two(0), simple_two(0)) == el((projective(1), 1))
    assert case_name(simple_two(0), simple_two(0)) == "C6"


@pytest.mark.parametrize(
    "label",
    [simple_one(1), simple_two(0), projective(1), omega(3, 0), omega(-2, 1), band(2, 1, '5/7')],
)
def test_unit_label(label):
    assert mul_labels(simple_one(0), label) == el((label, 1))


def test_syzygy_square():
    assert mul_labels(omega(1, 0), omega(1, 0)) == el((omega(2, 0), 1), (projective(0), 1))


def test_mixed_syzygy_cosyzygy():
    assert mul_labels(omega(2, 1), omega(-1, 0)) == el((omega(1, 1), 1), (projective(1), 3))
    # equal powers collapse to the residue shift
    assert mul_labels(omega(1, 0), omega(-1, 0)) == el((simple_one(0), 1), (projective(1), 2))


def test_band_distinct_parameters():
    assert mul_labels(band(1, 0, 0), band(1, 0, ETA_INF)) == el((projective(0), 1))


def test_band_equal_parameters():
    e = eta('5/7')
    assert mul_labels(band(1, 0, e), band(1, 0, e)) == el((band(1, 0, e), 1), (band(1, 1, e), 1))
    assert mul_labels(band(3, 0, e), band(2, 1, e)) == el(
        (projective(1), 4), (band(2, 0, e), 1), (band(2, 1, e), 1)
    )


def test_two_dim_against_strings_and_bands():
    assert mul_labels(simple_two(1), omega(3, 0)) == el((simple_two(1), 3), (simple_two(0), 4))
    assert mul_labels(simple_two(1), omega(2, 0)) == el((simple_two(0), 2), (simple_two(1), 3))
    assert mul_labels(simple_two(0), band(2, 1, 0)) == el((simple_two(0), 2), (simple_two(1), 2))
    assert mul_labels(simple_two(0), projective(1)) == el((simple_two(0), 2), (simple_two(1), 2))


def test_projective_cases():
    assert mul_labels(projective(0), projective(1)) == el((projective(0), 2), (projective(1), 2))
    assert mul_labels(projective(1), omega(-2, 0)) == el((projective(0), 2), (projective(1), 3))
    assert mul_labels(projective(0), band(3, 1, ETA_INF)) == el((projective(0), 3), (projective(1), 3))


def test_band_against_strings():
    e = eta(-2)
    assert mul_labels(band(2, 0, e), omega(1, 1)) == el((projective(1), 2), (band(2, 0, e), 1))
    assert mul_labels(band(2, 0, e), omega(2, 1)) == el((projective(0), 4), (band(2, 1, e), 1))
    assert mul_labels(band(2, 0, e), omega(-1, 1)) == el((projective(0), 2), (band(2, 0, e), 1))
    assert mul_labels(band(2, 0, e), omega(-2, 1)) == el((projective(1), 4), (band(2, 1, e), 1))


def test_mul_bilinear():
    two_v1 = el((simple_one(1), 2))
    assert mul(two_v1, el((simple_two(0), 1))) == el((simple_two(1), 2))
    assert mul(GreenElement.zero(), two_v1) == GreenElement.zero()
    lhs = mul(el((omega(1, 0), 1), (simple_one(1), 1)), el((omega(1, 0), 1)))
    assert lhs == el((omega(2, 0), 1), (projective(0), 1), (omega(1, 1), 1))


# -- duality -----------------------------------------------------------------


def test_dual_labels():
    assert dual_label(omega(2, 1)) == omega(-2, 1)
    assert dual_label(simple_one(0)) == simple_one(0)
    assert dual_label(band(3, 0, '5/7')) == band(3, 1, '5/7')
    assert dual_label(projective(0)) == projective(0)
    assert dual_label(simple_two(0)) == simple_two(1)


@given(green_elements())
@settings(max_examples=80)
def test_dual_involution(e):
    assert dual(dual(e)) == e


@given(labels(max_s=3), labels(max_s=3))
@settings(max_examples=80)
def test_dual_multiplicative(l1, l2):
    e1, e2 = GreenElement.from_label(l1), GreenElement.from_label(l2)
    assert dual(mul(e1, e2)) == mul(dual(e1), dual(e2))


def test_dual_of_two_dim_matches_shift():
    lhs = dual(GreenElement.from_label(simple_two(0)))
    rhs = mul(GreenElement.from_label(simple_one(1)), GreenElement.from_label(simple_two(0)))
    assert lhs == rhs


# -- dimensions and factors ----------------------------------------------------


def test_label_dimensions():
    assert label_dimension(omega(3, 0)) == 7
    assert label_dimension(projective(1)) == 4
    assert label_dimension(band(2, 1, ETA_INF)) == 4
    assert label_dimension(simple_one(0)) == 1
    assert label_dimension(simple_two(1)) == 2


def test_composition_factors():
    assert composition_factors(projective(0)) == (2, 2, 0, 0)
    assert composition_factors(omega(1, 0)) == (1, 2, 0, 0)
    assert composition_factors(omega(2, 0)) == (3, 2, 0, 0)
    assert composition_factors(simple_two(1)) == (0, 0, 0, 1)
    assert composition_factors(band(2, 0, eta('1/2'))) == (2, 2, 0, 0)


def test_grothendieck_image():
    e = el((projective(0), 1), (simple_one(1), 1))
    assert grothendieck_image(e) == (2, 3, 0, 0)
    assert grothendieck_image(GreenElement.zero()) == (0, 0, 0, 0)


# G0 structure constants for the four simples, rows/cols indexed by
# (V(0), V(1), V(2,0), V(2,1)); entries are factor 4-vectors.
_SIMPLES = [simple_one(0), simple_one(1), simple_two(0), simple_two(1)]


def _g0_product(u, v):
    out = [0, 0, 0, 0]
    for i, ci in enumerate(u):
        for j, cj in enumerate(v):
            if ci and cj:
                factors = grothendieck_image(mul_labels(_SIMPLES[i], _SIMPLES[j]))
                for k, f in enumerate(factors):
                    out[k] += ci * cj * f
    return tuple(out)


@given(labels(), labels())
@settings(max_examples=120)
def test_grothendieck_is_multiplicative(l1, l2):
    product = grothendieck_image(mul_labels(l1, l2))
    assert product == _g0_product(composition_factors(l1), composition_factors(l2))


@given(labels(), labels())
@settings(max_examples=150)
def test_dimension_homomorphism(l1, l2):
    e = mul_labels(l1, l2)
    assert dimension(e) == label_dimension(l1) * label_dimension(l2)


@given(labels(), labels())
@settings(max_examples=150)
def test_commutativity(l1, l2):
    assert mul_labels(l1, l2) == mul_labels(l2, l1)


@given(labels(max_s=3, etas=ETA_POOL[:2] + [ETA_INF]),
       labels(max_s=3, etas=ETA_POOL[:2] + [ETA_INF]),
       labels(max_s=3, etas=ETA_POOL[:2] + [ETA_INF]))
@settings(max_examples=100)
def test_associativity(l1, l2, l3):
    e1, e2, e3 = (GreenElement.from_label(l) for l in (l1, l2, l3))
    assert mul(mul(e1, e2), e3) == mul(e1, mul(e2, e3))


@given(green_elements())
@settings(max_examples=60)
def test_unit_element(e):
    assert mul(GreenElement.unit(), e) == e


@given(labels())
@settings(max_examples=100)
def test_projectivity_absorption(label):
    absorbers = [projective(0), projective(1), simple_two(0), simple_two(1)]
    for p in absorbers:
        result = mul_labels(p, label)
        assert all(l.kind in PROJECTIVE_KINDS for l, _ in result.terms())


def test_associativity_exhaustive_small_grid():
    etas = [eta(0), eta(1), ETA_INF]
    grid = []
    for r in (0, 1):
        grid += [simple_one(r), simple_two(r), projective(r)]
        for s in (1, 2, 3):
            grid += [omega(s, r), omega(-s, r)] + [band(s, r, e) for e in etas]
    elements = [GreenElement.from_label(l) for l in grid]
    for e1, e2, e3 in itertools.combinations_with_replacement(elements, 3):
        assert mul(mul(e1, e2), e3) == mul(e1, mul(e2, e3))


def test_all_cases_reachable():
    etas = [eta(0), ETA_INF]
    grid = []
    for r in (0, 1):
        grid += [simple_one(r), simple_two(r), projective(r)]
        for s in (1, 2):
            grid += [omega(s, r), omega(-s, r)] + [band(s, r, e) for e in etas]
    seen = {case_name(a, b) for a, b in itertools.combinations_with_replacement(grid, 2)}
    assert seen == {f"C{i}" for i in range(1, 20)}


# -- the stable Green ring ---------------------------------------------------


def _stable(element):
    """The summands of element other than P(r) and V(2, r), with multiplicity."""
    return sorted(l for l, c in element.terms() if l.kind not in PROJECTIVE_KINDS for _ in range(c))


def _string_power(label):
    """s with label = O^s V(r), where O^0 V(r) = V(r); None for a band."""
    return {LabelKind.SIMPLE_ONE: 0, LabelKind.SYZYGY: label.s, LabelKind.COSYZYGY: -label.s}.get(label.kind)


def _stable_product(l1, l2):
    """The stable product: strings form Z x Z/2, act on bands by a residue shift,
    and bands multiply to M_m(0, eta) + M_m(1, eta) for equal eta."""
    if _string_power(l1) is None:
        l1, l2 = l2, l1
    s, t = _string_power(l1), _string_power(l2)
    if s is not None and t is not None:
        return [omega(s + t, l1.r + l2.r)]
    if s is not None:
        return [band(l2.s, l1.r + l2.r + s, l2.eta)]
    if l1.eta != l2.eta:
        return []
    m = min(l1.s, l2.s)
    return [band(m, 0, l1.eta), band(m, 1, l1.eta)]


def test_table_follows_the_stable_multiplication():
    grid = [l for l in grid_labels(4, ETA_POOL) if l.kind not in PROJECTIVE_KINDS]
    pairs = list(itertools.combinations_with_replacement(grid, 2))
    assert (len(grid), len(pairs)) == (58, 1711)
    for l1, l2 in pairs:
        assert _stable(mul_labels(l1, l2)) == sorted(_stable_product(l1, l2)), (str(l1), str(l2))


@pytest.mark.parametrize("e", [eta(0), eta("5/7"), ETA_INF], ids=str)
def test_band_residue_difference_is_nilpotent(e):
    # x is nonzero and x^3 = 0, so the Green ring is not reduced; x^2 = 0 only for s = 1
    for s in range(1, 5):
        x = el((band(s, 0, e), 1), (band(s, 1, e), -1))
        square = mul(x, x)
        assert square == el((projective(0), 2 * s * (s - 1)), (projective(1), -2 * s * (s - 1)))
        assert not mul(square, x)
