"""Twisted polynomial ring F_q[F]: commutation rule, Euclidean
divisions, evaluation as additive polynomials, center decomposition,
and the textual grammar."""

import random

import pytest

from frobsplit.fields import FieldSpec
from frobsplit.mrat import MRatFun
from frobsplit.ore import (OreParseError, OrePoly, format_ore, parse_ore,
                           parse_field_literal)

F2 = FieldSpec.get(2, 1)
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
