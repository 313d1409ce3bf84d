"""Twisted polynomial ring F_q[F]: commutation rule, Euclidean
divisions, evaluation as additive polynomials, center decomposition,
and the textual grammar."""

import random
import re

import pytest
from hypothesis import given, reject, seed, settings, strategies as st

from frobsplit import split
from frobsplit.fields import CapacityError, FieldSpec, RatFun
from frobsplit.mrat import MRatFun
from frobsplit.ore import (F_DEGREE_CAP, OreParseError, OrePoly, format_ore,
                           parse_ore, parse_field_literal)
from frobsplit.skew import CenterPoly

from ore_reference import ReferenceTooLarge, reference_parse_ore

F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)
F4 = FieldSpec.get(2, 2)
F9 = FieldSpec.get(3, 2)


def rand_ore(spec, maxdeg, rng):
    return OrePoly(spec, [spec.random_element(rng)
                          for _ in range(rng.randrange(maxdeg + 1) + 1)])


def test_commutation_rule():
    w = F4.generator()
    F = OrePoly.F(F4)
    a = OrePoly.constant(w)
    # F * a = a^p * F
    assert F * a == OrePoly.constant(w * w) * F


def test_ring_axioms_random():
    rng = random.Random(4)
    for spec in (F2, F4, F9):
        for _ in range(30):
            P = rand_ore(spec, 3, rng)
            Q = rand_ore(spec, 3, rng)
            R = rand_ore(spec, 3, rng)
            assert (P * Q) * R == P * (Q * R)
            assert P * (Q + R) == P * Q + P * R
            assert (P + Q) * R == P * R + Q * R


def test_noncommutative():
    w = F4.generator()
    F = OrePoly.F(F4)
    a = OrePoly.constant(w)
    assert F * a != a * F


def test_evaluation_additive_and_composition():
    rng = random.Random(6)
    big = FieldSpec.get(2, 4)
    for _ in range(30):
        P = rand_ore(F4, 3, rng)
        Q = rand_ore(F4, 3, rng)
        x = big.random_element(rng)
        y = big.random_element(rng)
        assert P(x + y) == P(x) + P(y)
        assert (P * Q)(x) == P(Q(x))


def test_evaluation_on_rational_functions():
    t = MRatFun.var(F2, 1, 0)
    P = parse_ore("F + 1", F2)
    assert P(t) == t * t + t
    inv = MRatFun.one(F2, 1) / t
    assert P(inv) == inv * inv + inv


def test_center_decompose_roundtrip():
    rng = random.Random(7)
    for spec in (F4, F9):
        for _ in range(20):
            P = rand_ore(spec, 5, rng)
            parts = P.center_decompose()
            assert len(parts) == spec.ell
            assert OrePoly.from_parts(spec, parts) == P
    # F^ell is central
    F_ell = OrePoly.F(F4, 2)
    w = OrePoly.constant(F4.generator())
    assert F_ell * w == w * F_ell


def test_parse_format_roundtrip():
    rng = random.Random(8)
    for spec in (F2, F4):
        for _ in range(30):
            P = rand_ore(spec, 4, rng)
            assert parse_ore(format_ore(P), spec) == P
    assert parse_ore("F^2 + [0,1]*F + 1", F4).degree == 2
    # right-coefficient terms are normalized
    w = F4.generator()
    assert parse_ore("F*[0,1]", F4) == OrePoly.constant(w * w) * OrePoly.F(F4)
    # a mixed-order term is the product of its factors as OrePolys
    for spec, text, factors in (
            (F4, "[0,1]*F*[1,1]*F^2", ("[0,1]", "F", "[1,1]", "F^2")),
            (F4, "F^3*[0,1]*[1,1]*F", ("F^3", "[0,1]", "[1,1]", "F")),
            (F9, "-F*[1,2]*F^2*[2,1]", ("2", "F", "[1,2]", "F^2", "[2,1]")),
            (F9, "2*F^0*[0,0]*F", ("2", "F^0", "[0,0]", "F"))):
        ref = OrePoly.one(spec)
        for fac in factors:
            ref = ref * (OrePoly.F(spec, int(fac[2:] or 1))
                         if fac.startswith("F") else
                         OrePoly.constant(parse_field_literal(fac, spec)))
        assert parse_ore(text, spec) == ref, text
        assert parse_ore(format_ore(ref), spec) == ref
    with pytest.raises(OreParseError):
        parse_ore("F^", F4)
    with pytest.raises(OreParseError):
        parse_ore("", F4)
    assert parse_field_literal("[1,1]", F4) == F4.one() + w


def test_sign_rule_and_loose_signs():
    # a term's sign is the product of the signs since the previous term
    F, one = OrePoly.F(F3), OrePoly.one(F3)
    assert parse_ore("F - -1", F3) == F + one
    assert parse_ore("F + - 1", F3) == F - one
    assert parse_ore("- + F", F3) == -F
    assert parse_ore("F -", F3) == F
    assert parse_ore("[1,2] - F*[-1,0]", F9) == \
        OrePoly(F9, [F9.element([1, 2]), F9.from_int(1)])


@pytest.mark.parametrize("text", ["F*-1", "2*-F", "8*", "*8", "F**F",
                                  "1 + F *"])
def test_empty_factor_is_an_error(text):
    # `F*-1` used to read as F - 1 and `8*` as 8: the dangling `*` was
    # dropped
    with pytest.raises(OreParseError, match="^empty factor in term "):
        parse_ore(text, F3)


def test_F_degree_is_capped_before_the_term_is_built():
    assert split.CapacityError is CapacityError
    P = parse_ore("[0,1]*F^%d" % F_DEGREE_CAP, F4)
    assert P.degree == F_DEGREE_CAP == 2 ** 20
    assert P.coeffs[-1] == F4.generator()
    for text in ("F^%d" % (F_DEGREE_CAP + 1), "F^99999999999",
                 "F^600000*F^600000", "F*F^%d" % F_DEGREE_CAP):
        with pytest.raises(CapacityError, match="above the cap 1048576"):
            parse_ore(text, F2)
    # the cap is per term
    assert parse_ore("F^600000 + F^600000", F3).degree == 600000


@seed(24)
@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet="F^*+-[],()0123456789 ", max_size=14),
       st.sampled_from((F2, F4, F9)))
def test_parse_ore_matches_the_reference_grammar(text, spec):
    try:
        want = reference_parse_ore(text, spec)
    except OreParseError:
        want = OreParseError
    except ReferenceTooLarge:
        with pytest.raises(CapacityError):
            parse_ore(text, spec)
        reject()
    try:
        got = parse_ore(text, spec)
    except OreParseError as exc:
        if want is not OreParseError:
            # only a dangling `*`, which the reference dropped, may part
            # the two
            term = re.fullmatch(r"empty factor in term '(.*)'", str(exc))
            assert term and term.group(1).endswith("*"), (text, exc)
        return
    assert got == want, text


def test_poly_text_pins():
    # printed by the hand-written printers that poly_text replaced
    w = F4.generator()
    P = OrePoly(F4, [w, F4.zero(), F4.one(), w + F4.one()])
    assert format_ore(P) == repr(P) == "[0,1] + F^2 + [1,1]*F^3"
    assert format_ore(OrePoly.zero(F4)) == "0"
    s, one = RatFun.s(F9), RatFun.one(F9)
    c = CenterPoly(F9, [one / (s + one), RatFun.zero(F9),
                        RatFun.from_int(F9, 2) * s, one])
    assert repr(c) == "(([1,0]) / ([1,0] + s)) + ([2,0]*s)*x^2 + x^3"
    assert repr(CenterPoly.zero(F9)) == "0"
