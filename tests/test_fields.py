"""Finite fields, univariate polynomials, rational functions, and the
exact linear algebra used everywhere else."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit.fields import (CPoly, FieldSpec, RatFun, _poly, char_poly,
                              kernel_basis, lift_cpoly, mat_mul, power,
                              rref, smallest_irreducible, solve_linear)
from ratmat import determinant, mat_identity, prime_coords

F2 = FieldSpec.get(2, 1)
F4 = FieldSpec.get(2, 2)
F9 = FieldSpec.get(3, 2)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4, 1)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    assert smallest_irreducible(2, 2) == (1, 1, 1)


def test_fq_arithmetic():
    rng = random.Random(0)
    for spec in (F2, F4, F9, FieldSpec.get(5, 1)):
        for _ in range(50):
            a = spec.random_element(rng)
            b = spec.random_element(rng)
            c = spec.random_element(rng)
            assert (a + b) * c == a * c + b * c
            assert a - a == spec.zero()
            if not a.is_zero():
                assert (a * a.inverse()).is_one()
            # Frobenius is the p-power map and F^ell fixes F_q
            assert a.frobenius() == a ** spec.p
            assert a.frobenius(spec.ell) == a


def test_all_elements_count():
    elems = list(F4.all_elements())
    assert len(elems) == 4
    assert len({e.coeffs for e in elems}) == 4


def test_cpoly_divmod_gcd():
    rng = random.Random(1)
    for spec in (F2, F4, F9):
        for _ in range(30):
            f = CPoly(spec, [spec.random_element(rng) for _ in range(5)])
            g = CPoly(spec, [spec.random_element(rng) for _ in range(3)])
            if g.is_zero():
                continue
            q, r = f.divmod(g)
            assert q * g + r == f
            assert r.degree < g.degree
            d = f.gcd(g)
            if not f.is_zero():
                assert f % d == CPoly.zero(spec)
            assert g % d == CPoly.zero(spec)
            dd, u, v = f.xgcd(g)
            assert u * f + v * g == dd


def test_poly_strips_a_long_zero_tail_with_one_slice():
    # one slice however long the tail: a slice per zero was quadratic
    # (3 s on 40000 zeros)
    class Slices(list):
        taken = 0

        def __getitem__(self, i):
            if isinstance(i, slice):
                Slices.taken += 1
                return Slices(list.__getitem__(self, i))
            return list.__getitem__(self, i)

    f = _poly(CPoly, F2, Slices([1, 1] + [0] * 40000))
    assert f._c == (1, 1) and f == CPoly.from_ints(F2, [1, 1])
    assert Slices.taken == 1
    s40000 = CPoly.monomial(F2, F2.one(), 40000)
    assert s40000.divmod(s40000) == (CPoly.one(F2), CPoly.zero(F2))
    for c in ([], [0], (0, 0, 0), (2, 0, 1, 0, 0)):
        want = tuple(c)
        while want and not want[-1]:
            want = want[:-1]
        assert _poly(CPoly, FieldSpec.get(3, 1), c)._c == want


def test_cpoly_norm_to_prime():
    s = CPoly.s(F4)
    w = F4.generator()
    f = s + CPoly.constant(w)
    n = f.norm_to_prime()
    assert n.in_prime_field()
    # norm = product of Frobenius conjugates
    assert n == f * f.frobenius(1)


def test_cpoly_shift_var():
    s = CPoly.s(F9)
    a = F9.generator()
    f = s * s + CPoly.constant(F9.from_int(2))
    g = f.shift_var(a)
    assert g.evaluate(F9.zero()) == f.evaluate(a)
    assert g.shift_var(-a) == f


def test_ratfun_canonical():
    s = CPoly.s(F2)
    one = CPoly.one(F2)
    r = RatFun(s * s + s, s)  # (s^2+s)/s = s+1
    assert r == RatFun(s + one)
    assert r.is_polynomial()
    q = RatFun(one, s)
    assert (q * RatFun(s)).is_one()
    assert q.inverse() == RatFun(s)


KINDS = ("zero", "one", "constant", "polynomial", "fraction")


@st.composite
def ratfun_operands(draw):
    """A field F_q (p in {2, 3}, ell in {1, 2, 3}) and two RatFuns over
    it, each zero, one, a nonzero constant, a polynomial or a fraction."""
    spec = FieldSpec.get(draw(st.sampled_from((2, 3))),
                         draw(st.integers(1, 3)))
    digits = st.lists(st.integers(0, spec.p - 1), min_size=spec.ell,
                      max_size=spec.ell).map(spec.element)
    polys = st.lists(digits, min_size=1, max_size=4).map(
        lambda c: CPoly(spec, c))

    def operand():
        kind = draw(st.sampled_from(KINDS))
        if kind == "zero":
            return RatFun.zero(spec)
        if kind == "one":
            return RatFun.one(spec)
        if kind == "constant":
            return RatFun.constant(draw(digits.filter(
                lambda c: not c.is_zero())))
        if kind == "polynomial":
            return RatFun(draw(polys))
        den = draw(polys.filter(lambda f: f.degree > 0))
        return RatFun(draw(polys), den)

    return operand(), operand()


@settings(max_examples=300, deadline=None)
@given(ratfun_operands())
def test_ratfun_operators_match_the_normalizing_constructor(case):
    # zero and unit operands take early returns; the reference always
    # normalizes, so any shortcut that breaks canonical form shows here
    a, b = case
    refs = {"*": RatFun(a.num * b.num, a.den * b.den),
            "+": RatFun(a.num * b.den + b.num * a.den, a.den * b.den),
            "-": RatFun(a.num * b.den - b.num * a.den, a.den * b.den)}
    for op, got in (("*", a * b), ("+", a + b), ("-", a - b)):
        assert (got.num._c, got.den._c) == (refs[op].num._c,
                                            refs[op].den._c), op


def test_prime_coords_roundtrip():
    rng = random.Random(2)
    w = F4.generator()
    for _ in range(20):
        num = CPoly(F4, [F4.random_element(rng) for _ in range(3)])
        den = CPoly(F4, [F4.random_element(rng) for _ in range(2)])
        if den.is_zero():
            continue
        rf = RatFun(num, den)
        parts = prime_coords(rf)
        assert len(parts) == 2
        assert all(p.in_prime_field() for p in parts)
        back = parts[0] + parts[1] * RatFun.constant(w)
        assert back == rf


def test_kernel_and_solve():
    s = RatFun.s(F2)
    one = RatFun.one(F2)
    z = RatFun.zero(F2)
    M = [[one, s], [s, s * s]]  # rank 1
    assert len(rref(M, 2)[1]) == 1
    ker = kernel_basis(M)
    assert len(ker) == 1
    v = ker[0]
    for row in M:
        acc = z
        for a, x in zip(row, v):
            acc = acc + a * x
        assert acc.is_zero()
    N = [[one, s], [z, one]]
    b = [s, one]
    x = solve_linear(N, b)
    assert x is not None
    assert x[0] + s * x[1] == s and x[1] == one


def test_determinant_char_poly():
    s = RatFun.s(F2)
    one = RatFun.one(F2)
    z = RatFun.zero(F2)
    M = [[s, one], [z, s]]
    assert determinant(M) == s * s
    cp = char_poly(M)  # coefficients of det(xI - M), low to high
    # (x - s)^2 = x^2 + s^2 over F_2 (cross term vanishes: 2sx = 0)
    assert cp[2].is_one() and cp[1].is_zero() and cp[0] == s * s
    rng = random.Random(3)
    for _ in range(10):
        A = [[RatFun(CPoly(F2, [F2.random_element(rng) for _ in range(2)]))
              for _ in range(2)] for _ in range(2)]
        cp = char_poly(A)
        # Cayley-Hamilton
        A2 = mat_mul(A, A)
        I = mat_identity(F2, 2)
        acc = [[cp[0] * I[i][j] + cp[1] * A[i][j] + cp[2] * A2[i][j]
                for j in range(2)] for i in range(2)]
        assert all(e.is_zero() for row in acc for e in row)


def test_lift_cpoly():
    f = CPoly.from_ints(F2, [1, 1])
    g = lift_cpoly(f, F4)
    assert g.spec == F4 and g.degree == 1
    assert g.evaluate(F4.one()).is_zero()


def test_power_costs_no_identity_product_or_spare_square():
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    for e in range(40):
        del products[:]
        assert power(3, e, lambda: 1, mul) == 3 ** e
        expected = 0 if e == 0 else (e.bit_length() - 1
                                     + bin(e).count("1") - 1)
        assert len(products) == expected
    f = CPoly.from_ints(F9, [1, 2, 1])
    assert f ** 5 == f * f * f * f * f and f ** 0 == CPoly.one(F9)
    with pytest.raises(ValueError):
        power(f, -1, lambda: CPoly.one(F9))
