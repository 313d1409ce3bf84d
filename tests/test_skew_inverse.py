"""Inverses in the skew field K: the one linear solve against the tilde
matrix, checked against the central-multiplier route it replaced, and
central multipliers read off the inverse."""

import random

import pytest

from frobsplit import skew
from frobsplit.fields import CPoly, FieldSpec, RatFun, solve_linear
from frobsplit.ore import OrePoly
from frobsplit.skew import (SkewElem, SkewMatrix, SplitSelfCheckError,
                            central_multiplier, tilde)

SPECS = [FieldSpec.get(2, 1), FieldSpec.get(3, 1), FieldSpec.get(2, 2),
         FieldSpec.get(2, 3), FieldSpec.get(3, 2)]


def reference_central_multiplier(P):
    """Q * P = c(F^ell) with c in F_p[s] \\ {0}: solve the tilde system
    for Q over F_q(s), clear its denominators, then clear Q * P to the
    prime field by multiplying with the ell - 1 Frobenius conjugates."""
    spec = P.spec
    ell = spec.ell
    if ell == 1:
        Q = OrePoly.constant(P.coeffs[-1].inverse())
        return Q, (Q * P).center_decompose()[0]
    Pt = tilde(SkewMatrix.from_ore(spec, [[P]]))
    y = solve_linear([[Pt[j][i] for j in range(ell)] for i in range(ell)],
                     [RatFun.one(spec)] + [RatFun.zero(spec)] * (ell - 1))
    den = CPoly.one(spec)
    for v in y:
        den = den.lcm(v.den)
    Q = OrePoly.from_parts(spec, [v.num * den.exact_div(v.den) for v in y])
    d = (Q * P).center_decompose()[0]
    cof = CPoly.one(spec)
    for j in range(1, ell):
        cof = cof * d.frobenius(j)
    Q = OrePoly.from_parts(spec, [cof] + [CPoly.zero(spec)] * (ell - 1)) * Q
    return Q, cof * d


def reference_inverse(u):
    """The inverse as c / gamma times Q, with c clearing the central
    denominators of u and Q * (c u) = gamma(F^ell)."""
    c, P = u.clear_central()
    Q, gamma = reference_central_multiplier(P)
    return SkewElem.from_ore(Q).scale_central(RatFun(c) / RatFun(gamma))


def rand_poly(spec, rng, maxdeg):
    return CPoly(spec, [spec.random_element(rng)
                        for _ in range(rng.randrange(maxdeg + 1))])


def rand_fraction(spec, rng):
    """num / den with deg den >= 1 before reduction to lowest terms."""
    num = rand_poly(spec, rng, 3)
    den = CPoly.zero(spec)
    while den.degree < 1:
        den = rand_poly(spec, rng, 3)
    return RatFun(num, den)


def rand_skew(spec, rng):
    while True:
        u = SkewElem(spec, [rand_fraction(spec, rng)
                            for _ in range(spec.ell)])
        if any(not a.den.is_one() for a in u.parts):
            return u


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "F%d" % s.q)
def test_inverse_matches_central_multiplier_route(spec):
    rng = random.Random(900 + spec.q)
    for _ in range(12):
        u = rand_skew(spec, rng)
        ui = u.inverse()
        assert ui == reference_inverse(u)
        assert (u * ui).is_one() and (ui * u).is_one()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "F%d" % s.q)
def test_central_multiplier_from_inverse(spec):
    rng = random.Random(950 + spec.q)
    done = 0
    while done < 6:
        P = OrePoly(spec, [spec.random_element(rng)
                           for _ in range(rng.randrange(4) + 1)])
        if P.is_zero():
            continue
        Q, c = central_multiplier(P)
        parts = (Q * P).center_decompose()
        assert parts[0] == c and c.in_prime_field() and not c.is_zero()
        assert all(a.is_zero() for a in parts[1:])
        # both routes give a multiplier of the same central element, up
        # to the F_p(s) scalar c / gamma
        Q_ref, gamma = reference_central_multiplier(P)
        assert (SkewElem.from_ore(Q).scale_central(RatFun(gamma))
                == SkewElem.from_ore(Q_ref).scale_central(RatFun(c)))
        done += 1


def test_inverse_is_one_tilde_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("inverse left the tilde solve")

    monkeypatch.setattr(skew, "central_multiplier", refuse)
    monkeypatch.setattr(SkewElem, "clear_central", refuse)
    monkeypatch.setattr(CPoly, "norm_to_prime", refuse)
    monkeypatch.setattr(OrePoly, "__init__", refuse)
    rng = random.Random(5)
    for spec in SPECS:
        u = rand_skew(spec, rng)
        assert (u * u.inverse()).is_one()


def test_inverse_raises_on_zero_and_singular_solve(monkeypatch):
    F4 = FieldSpec.get(2, 2)
    with pytest.raises(ZeroDivisionError):
        SkewElem.zero(F4).inverse()
    monkeypatch.setattr(skew, "solve_linear", lambda M, b: None)
    with pytest.raises(SplitSelfCheckError):
        SkewElem.F(F4).inverse()
