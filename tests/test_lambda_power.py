"""Differential tests of the lambda sweep in `LambdaEqInstance`: the
powers of lambda live in one univariate form (a Kronecker-packed int
over F_p, a CPoly over F_q with ell > 1), a sweep over m takes one step
per m, and every order of requests gives the answers of the reference
sweep below (the earlier MRatFun power, kept here only as a reference)
and a power equal to lambda ** m.

The checks raise explicitly rather than through `assert`, so that they
still run under `python -O`."""

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit.fields import FieldSpec
from frobsplit.fsets import LambdaEqInstance, _solve_terms, solve_lambda_eq
from frobsplit.mrat import MPoly, MRatFun
from frobsplit.split import CapacityError

SPECS = [FieldSpec.get(p, ell) for p in (2, 3, 5, 7, 11) for ell in (1, 2)]


def reference_solve(inst, m):
    """solve_lambda_eq as it ran on MRatFun powers: lambda ** m, its
    constant term less c_0, then the same term solver."""
    lm = inst.lam ** m
    if not lm.is_polynomial():
        return []
    spec = inst.spec
    d = dict(lm.num.terms)
    cur = d.get((0,), spec.zero()) - inst.c[0]
    if cur.is_zero():
        d.pop((0,), None)
    else:
        d[(0,)] = cur
    if any(e[0] == 0 for e in d):
        return []
    nmax = max([e[0] for e in d] + [1])
    return _solve_terms(d, inst.c[1:], nmax, spec)


def as_mratfun(inst, x):
    """A power in the instance's univariate form, back as an MRatFun;
    every packed slot must hold a canonical digit."""
    spec = inst.spec
    if spec.ell > 1:
        coeffs = x.coeffs
    else:
        w = inst._powers._w
        digits = [(x >> (w * n)) & ((1 << w) - 1)
                  for n in range(x.bit_length() // w + 1)]
        check(all(d < spec.p for d in digits), (inst, digits))
        coeffs = [spec.from_int(d) for d in digits]
    return MRatFun(MPoly(spec, 1, {(n,): c for n, c in enumerate(coeffs)}))


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
    """lambda = num / den of degree <= 3 (up to 4 terms, so that the slot
    sums of a step pass a byte at p = 11), den = 1 or not, constants
    included; c_0 .. c_r with r <= 3, random or read off the terms of a
    small power of lambda, so that some m are solvable."""
    spec = draw(st.sampled_from(SPECS))
    num = draw(upolys(spec, 3).filter(lambda f: not f.is_zero()))
    den = draw(st.just(MPoly.one(spec, 1))
               | upolys(spec, 1).filter(lambda f: not f.is_zero()))
    lam = MRatFun(num, den)
    c = draw(st.lists(elements(spec), min_size=2, max_size=4))
    if den.is_one() and draw(st.booleans()):
        terms = (num ** draw(st.integers(1, 3))).terms
        c0 = terms.pop((0,), spec.zero())
        if 1 <= len(terms) <= 3:
            c = [c0] + list(terms.values())
    return LambdaEqInstance(lam, c)


def requests(k, jumps):
    """Ascending 1..k, k repeated, descending k..1, then jumps."""
    return (list(range(1, k + 1)) + [k, k] + list(range(k, 0, -1))
            + jumps)


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(1, 6),
       st.lists(st.integers(1, 12), max_size=6))
def test_remembered_power_matches_a_fresh_instance(inst, k, jumps):
    for m in requests(k, jumps):
        got = solve_lambda_eq(inst, m)
        check(got == reference_solve(inst, m), (inst, m, got))
        fresh = LambdaEqInstance(inst.lam, inst.c)
        check(got == solve_lambda_eq(fresh, m), (inst, m, got))
        if inst.lam.is_polynomial():
            last_m, lm = inst.last_power
            want = inst.lam ** m
            check(last_m == m, (inst, m, last_m))
            got_power = as_mratfun(inst, lm)
            check(got_power.num == want.num and got_power.den == want.den,
                  (inst, m, got_power))


def test_sweep_takes_one_product_per_step(monkeypatch):
    F5 = FieldSpec.get(5, 1)
    t = MRatFun.var(F5, 1, 0)
    lam = t + MRatFun.one(F5, 1)
    inst = LambdaEqInstance(lam, [F5.one(), F5.one()])
    steps = []
    step = inst._powers.step
    monkeypatch.setattr(inst._powers, "step",
                        lambda x: steps.append(x) or step(x))
    pows = count_calls(monkeypatch, MRatFun, "__pow__")
    products = count_calls(monkeypatch, MPoly, "__mul__")
    for m in range(1, 30):
        solve_lambda_eq(inst, m)
        check(len(steps) == m, (m, len(steps)))
    check(pows == [] and products == [], (pows, products))
    solve_lambda_eq(inst, 3)
    check(len(steps) == 32, len(steps))
    want = lam ** 3
    got = as_mratfun(inst, inst.last_power[1])
    check(inst.last_power[0] == 3 and got.num == want.num, inst.last_power)


NOT_POLYNOMIAL = {
    "(t^2 + 1) / (t + 2)": lambda t, one: (t * t + one) / (t + one + one),
    "1 / t": lambda t, one: one / t,
}


@pytest.mark.parametrize("lam", sorted(NOT_POLYNOMIAL))
@pytest.mark.parametrize("p, ell", [(2, 1), (3, 1), (3, 2)])
def test_lambda_that_is_no_polynomial_takes_no_power(monkeypatch, lam, p,
                                                     ell):
    spec = FieldSpec.get(p, ell)
    value = NOT_POLYNOMIAL[lam](MRatFun.var(spec, 1, 0),
                                MRatFun.one(spec, 1))
    inst = LambdaEqInstance(value, [spec.one(), spec.one()])
    start = inst.last_power
    pows = count_calls(monkeypatch, MRatFun, "__pow__")
    products = count_calls(monkeypatch, MPoly, "__mul__")
    for m in requests(8, [20, 3, 64]):
        check(solve_lambda_eq(inst, m) == [], (lam, m))
    check(pows == [] and products == [], (pows, products))
    check(inst.last_power is start, inst.last_power)


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
