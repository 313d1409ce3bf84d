"""Differential test of the remembered power in `LambdaEqInstance`: a
sweep over m takes one product per step, and every order of requests
gives the answers of a fresh instance and the power lambda ** m.

The checks raise explicitly rather than through `assert`, so that they
still run under `python -O`."""

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit.fields import FieldSpec
from frobsplit.fsets import LambdaEqInstance, solve_lambda_eq
from frobsplit.mrat import MPoly, MRatFun
from frobsplit.split import CapacityError

SPECS = [FieldSpec.get(p, ell) for p in (2, 3, 5) for ell in (1, 2)]


@st.composite
def elements(draw, spec):
    return spec.element([draw(st.integers(0, spec.p - 1))
                         for _ in range(spec.ell)])


@st.composite
def upolys(draw, spec, max_degree):
    coeffs = draw(st.lists(elements(spec), min_size=1,
                           max_size=max_degree + 1))
    return MPoly(spec, 1, {(i,): c for i, c in enumerate(coeffs)})


@st.composite
def instances(draw):
    """lambda = num / den with den = 1 or not, constants included, and
    c_0 .. c_r with r <= 3."""
    spec = draw(st.sampled_from(SPECS))
    num = draw(upolys(spec, 2).filter(lambda f: not f.is_zero()))
    den = draw(st.just(MPoly.one(spec, 1))
               | upolys(spec, 1).filter(lambda f: not f.is_zero()))
    c = draw(st.lists(elements(spec), min_size=2, max_size=4))
    return LambdaEqInstance(MRatFun(num, den), c)


def requests(k, jumps):
    """Ascending 1..k, k repeated, descending k..1, then jumps."""
    return (list(range(1, k + 1)) + [k, k] + list(range(k, 0, -1))
            + jumps)


def check(cond, message):
    if not cond:
        raise AssertionError(message)


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(1, 6),
       st.lists(st.integers(1, 12), max_size=6))
def test_remembered_power_matches_a_fresh_instance(inst, k, jumps):
    for m in requests(k, jumps):
        got = solve_lambda_eq(inst, m)
        fresh = LambdaEqInstance(inst.lam, inst.c)
        check(got == solve_lambda_eq(fresh, m), (inst, m, got))
        last_m, lm = inst.last_power
        want = inst.lam ** m
        check(last_m == m, (inst, m, last_m))
        check(lm.num == want.num and lm.den == want.den, (inst, m, lm))


def test_sweep_takes_one_product_per_step(monkeypatch):
    F5 = FieldSpec.get(5, 1)
    t = MRatFun.var(F5, 1, 0)
    inst = LambdaEqInstance(t + MRatFun.one(F5, 1), [F5.one(), F5.one()])
    calls = []
    pow_ = MRatFun.__pow__
    monkeypatch.setattr(MRatFun, "__pow__",
                        lambda self, e: calls.append(e) or pow_(self, e))
    for m in range(1, 30):
        solve_lambda_eq(inst, m)
    check(calls == [], calls)
    solve_lambda_eq(inst, 3)
    check(calls == [3], calls)


def test_capacity_error_comes_before_any_power():
    F2 = FieldSpec.get(2, 1)
    t = MRatFun.var(F2, 1, 0)
    inst = LambdaEqInstance(t, [F2.one()] * 5)
    start = inst.last_power
    with pytest.raises(ValueError, match="m must be >= 1"):
        solve_lambda_eq(inst, 0)
    for m in (1, 2, 7):
        with pytest.raises(CapacityError):
            solve_lambda_eq(inst, m)
    check(inst.last_power is start, inst.last_power)
