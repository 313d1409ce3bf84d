"""Exact classification of the irreducible factors of the central minimal
polynomial: the order of one root of unity decides Frobenius type.

The candidate scan that `classify_factor` replaced is kept here as the
reference (`reference_classify_factor`): on every factor that the
benchmark suites meet, the two agree, and the factors on which the scan
ran out of candidates now get an exact answer."""

import math
import os
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit import split
from frobsplit.cli import parse_problem
from frobsplit.fields import (CPoly, FieldSpec, RatFun, char_poly,
                              mat_identity, mat_mul, power)
from frobsplit.skew import CenterPoly, SplitSelfCheckError, companion_matrix
from frobsplit.split import (CapacityError, FactorClassification,
                             classify_factor, factor_center)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)


# ---------------------------------------------------------------------------
# reference: the candidate scan that the exact test replaced


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def reference_classify_factor(g, cap=512):
    """(kind, n, j): the least candidate n = p^e * n' (p^e up to deg g,
    n' dividing lcm{p^k - 1 : k <= min(deg!, 6)}) with char_poly(C^n) =
    (x - s^j)^deg, "unknown" if candidates above `cap` stayed untried."""
    spec = g.spec
    p = spec.p
    deg = g.degree
    if split._monomial_of(g.constant_term()) is None:
        return ("independent", None, None)
    e_max = 0
    while p ** e_max < deg:
        e_max += 1
    kmax = min(math.factorial(deg), 6)
    L = 1
    for k in range(1, kmax + 1):
        L = L * (p ** k - 1) // math.gcd(L, p ** k - 1)
    cands = sorted({p ** e * np for e in range(e_max + 1)
                    for np in _divisors(L)})
    truncated = [n for n in cands if n > cap]
    cands = [n for n in cands if n <= cap]
    C = companion_matrix(g)
    for n in cands:
        Cn = power(C, n, lambda: mat_identity(spec, len(C)), mat_mul)
        hn = CenterPoly(spec, char_poly(Cn))
        m0 = split._monomial_of(hn.coeff(0))
        if m0 is None:
            continue
        _, k = m0
        if k % deg or k < 0:
            continue
        j = k // deg
        target = CenterPoly.x_minus(RatFun(
            CPoly.monomial(spec, spec.one(), j), _canonical=True)) ** deg
        if hn == target:
            return ("frobenius", n, j)
    return ("unknown" if truncated else "independent", None, None)


def answer(cls):
    return (cls.kind, cls.n, cls.j)


def x_s_one(spec):
    return (CenterPoly.x(spec), CenterPoly(spec, [RatFun.s(spec)]),
            CenterPoly.one(spec))


# ---------------------------------------------------------------------------
# differential: every factor the benchmark's split pipeline classifies


def load_suites():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import suites
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.pop(0)
    return suites


@pytest.mark.parametrize("workload", ["certify-bc", "witness-a"])
@pytest.mark.parametrize("seed", [5, 6])
def test_same_answers_as_the_candidate_scan_on_the_bench(workload, seed,
                                                          monkeypatch):
    factors = {}
    real = split.classify_factor

    def record(g):
        cls = real(g)
        factors.setdefault((g.spec, repr(g)), (g, answer(cls)))
        return cls

    monkeypatch.setattr(split, "classify_factor", record)
    for job in load_suites().build(workload, seed):
        if job.kind == "cv":
            split.split_endomorphism(
                parse_problem(job.text).additive_map().to_skew())
    assert len(factors) > 10
    for g, got in factors.values():
        assert got == reference_classify_factor(g), g


# ---------------------------------------------------------------------------
# property: the factors of x^n - c*s^j are of Frobenius type


def _order(c, p):
    k = 1
    while pow(c, k, p) != 1:
        k += 1
    return k


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 9), st.integers(0, 4),
       st.integers(1, 4))
def test_factors_of_x_n_minus_c_s_j_are_frobenius(p, n, j, c):
    c = 1 + (c - 1) % (p - 1)
    spec = FieldSpec.get(p, 1)
    x, s, one = x_s_one(spec)
    f = x ** n - CenterPoly(spec, [RatFun.from_int(spec, c)]) * s ** j
    for g, _ in factor_center(f):
        cls = classify_factor(g)
        assert cls.is_frobenius(), (g, cls.reason)
        # u^n = c*s^j and u^N = s^J give c^N = 1 and j*N = J*n
        assert (n * _order(c, p)) % cls.n == 0
        assert cls.j * n == j * cls.n
        ref = reference_classify_factor(g)
        assert ref[0] == "unknown" or ref == answer(cls)


# ---------------------------------------------------------------------------
# the factors the scan left Unknown (the pinned Frobenius answers are in
# tests/test_split.py)


def _formerly_unknown():
    x, s, one = x_s_one(F2)
    inv_s = CenterPoly(F2, [RatFun.one(F2) / RatFun.s(F2)])
    x3, s3, one3 = x_s_one(F3)
    inv_s1 = CenterPoly(F3, [RatFun.one(F3) / (RatFun.s(F3)
                                                + RatFun.one(F3))])
    return [x ** 3 + x + s, x ** 4 + x + s, x ** 3 + s * s * x + s,
            x ** 3 + inv_s * x + one, x3 ** 5 + inv_s1 * x3 + s3]


@pytest.mark.parametrize("index", range(5))
def test_formerly_unknown_factors_are_independent_in_under_a_second(index):
    g = _formerly_unknown()[index]
    start = time.perf_counter()
    cls = classify_factor(g)
    elapsed = time.perf_counter() - start
    assert cls.kind == FactorClassification.INDEPENDENT
    assert "not a root of unity" in cls.reason
    assert elapsed < 1.0, elapsed


def test_norm_filter_and_negative_powers_of_s_are_independent():
    x, s, one = x_s_one(F2)
    cls = classify_factor(x ** 2 + x + s + one)
    assert cls.kind == FactorClassification.INDEPENDENT
    assert cls.reason.startswith("norm filter: constant term is not")
    cls = classify_factor(x ** 3 + CenterPoly(F2, [RatFun.one(F2)
                                                   / RatFun.s(F2)]))
    assert cls.kind == FactorClassification.INDEPENDENT
    assert cls.reason.endswith("a negative power of s")


def test_a_wrong_order_fails_the_identity_check(monkeypatch):
    # the one check against char_poly(C^n) = (x - s^j)^d still runs
    x, s, one = x_s_one(F2)
    monkeypatch.setattr(split, "_order_of_root", lambda f: 126)
    with pytest.raises(SplitSelfCheckError):
        classify_factor(x ** 7 + x + one)


def test_prime_divisors_by_trial_division_and_its_cap():
    assert split._prime_divisors(1) == []
    assert split._prime_divisors(2 ** 6 - 1) == [3, 7]
    assert split._prime_divisors(5 ** 7 - 1) == [2, 19531]
    # 6700417 is past 2^20 but below 2^40 once the small primes are out
    assert split._prime_divisors(2 ** 64 - 1) == [3, 5, 17, 257, 641, 65537,
                                                  6700417]
    with pytest.raises(CapacityError):
        split._prime_divisors(2 ** 61 - 1)
