"""Differential property tests: CPoly over packed-int coefficients, and
CenterPoly through the ring hook, against the list-based CPoly they
replaced (a tuple of FqElem or RatFun coefficients, arithmetic through
the coefficients' own operators), kept here as the reference."""

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit.fields import (CPoly, FieldSpec, FqElem, RatFun, _dot,
                              lift_cpoly, lift_element, power)
from frobsplit.skew import CenterPoly
from ratmat import prime_coords


class RefPoly:
    """The list-based CPoly: coefficients are field elements, and a
    subclass sets the field through `_coeff_zero`, `_coeff_one` and
    `_coeff_from_int`."""

    _coeff_zero = staticmethod(FieldSpec.zero)
    _coeff_one = staticmethod(FieldSpec.one)
    _coeff_from_int = staticmethod(FieldSpec.from_int)

    def __init__(self, spec, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.spec = spec
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, spec):
        return cls(spec, ())

    @classmethod
    def one(cls, spec):
        return cls(spec, (cls._coeff_one(spec),))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(self.spec, out)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self._coeff_zero(self.spec)
        out = [(self.coeffs[i] if i < len(self.coeffs) else z)
               - (other.coeffs[i] if i < len(other.coeffs) else z)
               for i in range(n)]
        return type(self)(self.spec, out)

    def __neg__(self):
        return type(self)(self.spec, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        cls = type(self)
        if not isinstance(other, RefPoly):
            return cls(self.spec, tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return cls.zero(self.spec)
        z = self._coeff_zero(self.spec)
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = out[i + j] + x * y
        return cls(self.spec, out)

    def __pow__(self, e):
        return power(self, e, lambda: type(self).one(self.spec))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        cls = type(self)
        if self.degree < other.degree:
            return cls.zero(self.spec), self
        rem = list(self.coeffs)
        dlc = other.leading().inverse()
        dd = other.degree
        quot = [self._coeff_zero(self.spec)] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c.is_zero():
                continue
            q = c * dlc
            quot[k - dd] = q
            for i in range(dd + 1):
                rem[k - dd + i] = rem[k - dd + i] - q * other.coeffs[i]
        return cls(self.spec, quot), cls(self.spec, rem)

    def monic(self):
        if self.is_zero():
            return self
        return self * self.leading().inverse()

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return type(self).zero(self.spec)
        q, r = (self * other).divmod(self.gcd(other))
        assert r.is_zero()
        return q.monic()

    def derivative(self):
        return type(self)(self.spec, [
            self.coeffs[i] * self._coeff_from_int(self.spec, i)
            for i in range(1, len(self.coeffs))])

    def evaluate(self, x):
        acc = x.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + lift_element(c, x.spec)
        return acc

    def frobenius(self, i=1):
        return type(self)(self.spec, tuple(c.frobenius(i)
                                           for c in self.coeffs))

    def norm_to_prime(self):
        out = self
        for j in range(1, self.spec.ell):
            out = out * self.frobenius(j)
        return out

    def in_prime_field(self):
        return all(c.in_prime_field() for c in self.coeffs)

    def shift_var(self, a):
        spec = self.spec
        res = RefPoly.zero(spec)
        base = RefPoly(spec, (a, spec.one()))
        for c in reversed(self.coeffs):
            res = res * base + RefPoly(spec, (c,))
        return res

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(repr(c))
            else:
                sv = "s" if i == 1 else "s^%d" % i
                parts.append(sv if c.is_one() else "%s*%s" % (repr(c), sv))
        return " + ".join(parts)


class RefCenterPoly(RefPoly):
    _coeff_zero = staticmethod(RatFun.zero)
    _coeff_one = staticmethod(RatFun.one)
    _coeff_from_int = staticmethod(RatFun.from_int)


def ref(f):
    cls = RefCenterPoly if isinstance(f, CenterPoly) else RefPoly
    return cls(f.spec, f.coeffs)


def same(f, r):
    """f (CPoly or CenterPoly) holds the coefficients of reference r."""
    assert type(f) is (CenterPoly if isinstance(r, RefCenterPoly) else CPoly)
    assert f.coeffs == r.coeffs and f.degree == r.degree
    assert f == type(f)(r.spec, r.coeffs)


def ref_prime_coords(rf):
    spec = rf.spec
    if spec.ell == 1:
        return [rf]
    num, den = ref(rf.num), ref(rf.den)
    cof = RefPoly.one(spec)
    for j in range(1, spec.ell):
        cof = cof * den.frobenius(j)
    num2, den2 = num * cof, den * cof
    assert den2.in_prime_field()
    return [RatFun(CPoly(spec, [spec.from_int(c.coeffs[k])
                                for c in num2.coeffs]),
                   CPoly(spec, den2.coeffs))
            for k in range(spec.ell)]


# ---------------------------------------------------------------------------
# strategies: p in {2, 3, 5}, ell in {1, 2, 3}, degrees 0..8 and zero

FIELDS = [(p, ell) for p in (2, 3, 5) for ell in (1, 2, 3)]


def elements(spec):
    return st.lists(st.integers(0, spec.p - 1), min_size=spec.ell,
                    max_size=spec.ell).map(spec.element)


def polys(spec, max_degree=8):
    """Polynomials of degree -1 .. max_degree, with zero coefficients
    (trailing ones too) drawn often."""
    coeff = st.one_of(st.just(spec.zero()), elements(spec))
    return st.lists(coeff, max_size=max_degree + 1).map(
        lambda cs: CPoly(spec, cs))


@st.composite
def field_and_polys(draw, count, max_degree=8):
    spec = FieldSpec.get(*draw(st.sampled_from(FIELDS)))
    return spec, [draw(polys(spec, max_degree)) for _ in range(count)]


@st.composite
def ratfuns(draw, spec, max_degree=3):
    num = draw(polys(spec, max_degree))
    den = draw(polys(spec, max_degree))
    return RatFun(num, den if not den.is_zero() else CPoly.one(spec))


def canonical(rf):
    """den monic and gcd(num, den) = 1, by the reference arithmetic."""
    num, den = ref(rf.num), ref(rf.den)
    return (den.leading().is_one()
            and (num.gcd(den).degree == 0 if not num.is_zero()
                 else den.degree == 0))


# ---------------------------------------------------------------------------
# CPoly over F_q


@settings(max_examples=150, deadline=None)
@given(field_and_polys(2), st.data())
def test_ring_operations_match_reference(case, data):
    spec, (f, g) = case
    rf, rg = ref(f), ref(g)
    same(f + g, rf + rg)
    same(f - g, rf - rg)
    same(g - f, rg - rf)
    same(-f, -rf)
    same(f * g, rf * rg)
    c = data.draw(st.one_of(st.just(spec.zero()), elements(spec)))
    same(f * c, rf * c)
    e = data.draw(st.integers(0, 4))
    same(f ** e, rf ** e)


@settings(max_examples=150, deadline=None)
@given(field_and_polys(2))
def test_division_and_gcds_match_reference(case):
    spec, (f, g) = case
    rf, rg = ref(f), ref(g)
    same(f.monic(), rf.monic())
    if not g.is_zero():
        q, r = f.divmod(g)
        rq, rr = rf.divmod(rg)
        same(q, rq)
        same(r, rr)
        same(f // g, rq)
        same(f % g, rr)
        same((f * g).exact_div(g), rf)
        if not r.is_zero():
            with pytest.raises(ValueError):
                f.exact_div(g)
        same(g.monic().monic(), rg.monic())
    same(f.gcd(g), rf.gcd(rg))
    same(f.lcm(g), rf.lcm(rg))
    d, u, v = f.xgcd(g)
    same(d, rf.gcd(rg))
    assert u * f + v * g == d


@settings(max_examples=100, deadline=None)
@given(field_and_polys(1), st.data())
def test_field_maps_match_reference(case, data):
    spec, (f,) = case
    rf = ref(f)
    same(f.derivative(), rf.derivative())
    same(f.norm_to_prime(), rf.norm_to_prime())
    assert f.norm_to_prime().in_prime_field()
    assert f.in_prime_field() == rf.in_prime_field()
    a = data.draw(elements(spec))
    same(f.shift_var(a), rf.shift_var(a))
    for i in range(2 * spec.ell + 2):
        same(f.frobenius(i), rf.frobenius(i))
    assert f.is_one() == (rf.coeffs == (spec.one(),))


@settings(max_examples=100, deadline=None)
@given(field_and_polys(1, max_degree=3), st.integers(-5, -1))
def test_negative_frobenius_exponent_raises(case, i):
    spec, (f,) = case
    with pytest.raises(ValueError):
        f.frobenius(i)
    if not f.is_zero():
        with pytest.raises(ValueError):
            ref(f).frobenius(i)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 1)]), st.data())
def test_evaluate_into_an_extension_field(pe, data):
    p, ell = pe
    spec = FieldSpec.get(p, ell)
    ext = FieldSpec.get(p, 3 * ell)
    f = data.draw(polys(spec))
    x = data.draw(elements(ext))
    y = data.draw(elements(spec))
    assert f.evaluate(y) == ref(f).evaluate(y)
    if f.in_prime_field():
        assert f.evaluate(x) == ref(f).evaluate(x)
    else:
        with pytest.raises(ValueError):
            f.evaluate(x)
        with pytest.raises(ValueError):
            ref(f).evaluate(x)


@settings(max_examples=100, deadline=None)
@given(field_and_polys(2))
def test_equality_hash_and_repr(case):
    spec, (f, g) = case
    h = f + g - g
    assert h == f and hash(h) == hash(f)
    padded = CPoly(spec, f.coeffs + (spec.zero(),) * 3)
    assert padded == f and hash(padded) == hash(f)
    assert (f == g) == (f.coeffs == g.coeffs)
    assert repr(f) == repr(ref(f))


@settings(max_examples=100, deadline=None)
@given(field_and_polys(1))
def test_coeffs_are_field_elements_and_trailing_zeros_are_stripped(case):
    spec, (f,) = case
    assert isinstance(f.coeffs, tuple)
    assert all(type(c) is FqElem and c.spec == spec for c in f.coeffs)
    assert not f.coeffs or not f.coeffs[-1].is_zero()
    assert CPoly(spec, list(f.coeffs) + [spec.zero()] * 2).coeffs == f.coeffs
    assert CPoly(spec, [spec.zero()] * 4).is_zero()
    if not f.is_zero():
        assert f.leading() == f.coeffs[-1]
    assert f.coeff(f.degree + 5) == spec.zero()


@settings(max_examples=100, deadline=None)
@given(field_and_polys(4, max_degree=3))
def test_dot_is_the_sum_of_products(case):
    spec, (a, b, c, d) = case
    assert _dot([a, b], [c, d]) == a * c + b * d


# ---------------------------------------------------------------------------
# lifts and coordinates over the prime field


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]), st.data())
def test_lift_cpoly_matches_reference(pe, data):
    p, ell = pe
    fp, spec = FieldSpec.get(p, 1), FieldSpec.get(p, ell)
    f = data.draw(polys(fp))
    up = lift_cpoly(f, spec)
    assert up.spec == spec
    assert up.coeffs == tuple(lift_element(c, spec) for c in f.coeffs)
    assert lift_cpoly(up, fp) == f
    assert lift_cpoly(up, spec) == up
    g = data.draw(polys(spec))
    if not g.in_prime_field():
        with pytest.raises(ValueError):
            lift_cpoly(g, fp)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_prime_coords_match_reference(pe, data):
    spec = FieldSpec.get(*pe)
    rf = data.draw(ratfuns(spec))
    coords = prime_coords(rf)
    assert coords == ref_prime_coords(rf)
    assert all(c.in_prime_field() and canonical(c) for c in coords)
    # the coordinates recombine to rf over the basis 1, w, ..., w^(ell-1)
    w = RatFun.constant(spec.generator())
    acc = RatFun.zero(spec)
    for k, c in enumerate(coords):
        acc = acc + c * w ** k
    assert acc == rf


# ---------------------------------------------------------------------------
# RatFun on the packed polynomials, and CenterPoly through the ring hook


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_ratfun_results_are_canonical(pe, data):
    spec = FieldSpec.get(*pe)
    a, b = data.draw(ratfuns(spec)), data.draw(ratfuns(spec))
    results = [a + b, a - b, a * b, -a, a ** 2, a.frobenius(1)]
    if not b.is_zero():
        results += [a / b, b.inverse()]
    assert all(canonical(r) for r in results)
    # a * b and a + b agree with the reference products of the fractions
    na, da, nb, db = ref(a.num), ref(a.den), ref(b.num), ref(b.den)
    s, m = a + b, a * b
    assert (ref(s.num) * da * db).coeffs == \
        ((na * db + nb * da) * ref(s.den)).coeffs
    assert (ref(m.num) * da * db).coeffs == (na * nb * ref(m.den)).coeffs
    assert bool(a) == (not a.is_zero())


@st.composite
def center_polys(draw, spec, max_degree=3):
    coeff = st.one_of(st.just(RatFun.zero(spec)), ratfuns(spec, 2))
    return CenterPoly(spec, draw(st.lists(coeff, max_size=max_degree + 2)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]), st.data())
def test_center_poly_arithmetic_matches_reference(pe, data):
    spec = FieldSpec.get(*pe)
    f, g = data.draw(center_polys(spec)), data.draw(center_polys(spec))
    rf, rg = ref(f), ref(g)
    same(f + g, rf + rg)
    same(f - g, rf - rg)
    same(-f, -rf)
    same(f * g, rf * rg)
    c = data.draw(ratfuns(spec, 2))
    same(f * c, rf * c)
    same(f ** 2, rf ** 2)
    same(f.derivative(), rf.derivative())
    same(f.monic(), rf.monic())
    if not g.is_zero():
        q, r = f.divmod(g)
        rq, rr = rf.divmod(rg)
        same(q, rq)
        same(r, rr)
    same(f.gcd(g), rf.gcd(rg))
    d, u, v = f.xgcd(g)
    same(d, rf.gcd(rg))
    assert u * f + v * g == d
    assert f.in_prime_field() == rf.in_prime_field()
    assert CenterPoly.one(spec).coeffs == (RatFun.one(spec),)
    assert f.coeff(f.degree + 1) == RatFun.zero(spec)
    if not f.is_zero():
        assert f.leading() == f.coeffs[-1] and not f.leading().is_zero()
