"""Differential property tests: the packed-int FqElem against a reference
that does schoolbook arithmetic on coefficient tuples."""

from hypothesis import given, settings, strategies as st

from frobsplit.fields import FieldSpec, FqElem


class Ref:
    """F_q as F_p[x]/(modulus) on tuples of ell digits, lowest degree
    first: schoolbook product, then reduction one top coefficient at a
    time."""

    def __init__(self, p, ell, modulus):
        self.p, self.ell, self.modulus = p, ell, modulus
        self.q = p ** ell

    def one(self):
        return (1,) + (0,) * (self.ell - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p, ell, m = self.p, self.ell, self.modulus
        res = [0] * (2 * ell - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    res[i + j] = (res[i + j] + x * y) % p
        for k in range(len(res) - 1, ell - 1, -1):
            c = res[k]
            if c:
                shift = k - ell
                for i in range(ell):
                    res[shift + i] = (res[shift + i] - c * m[i]) % p
            res[k] = 0
        return tuple(res[:ell])

    def pow(self, a, e):
        result, base = self.one(), a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inverse(self, a):
        return self.pow(a, self.q - 2)


SMALL = [(p, ell) for p in (2, 3, 5) for ell in (1, 2, 3, 4)]
SPECIALIZATION = [(2, 20), (2, 21), (3, 13), (3, 14)]


@st.composite
def field_and_elements(draw, count):
    p, ell = draw(st.sampled_from(SMALL + SPECIALIZATION))
    spec = FieldSpec.get(p, ell)
    digits = st.lists(st.integers(0, p - 1), min_size=ell, max_size=ell)
    return spec, [tuple(draw(digits)) for _ in range(count)]


def _ref(spec):
    return Ref(spec.p, spec.ell, spec.modulus)


@settings(max_examples=300, deadline=None)
@given(field_and_elements(2))
def test_ring_operations_match_reference(case):
    spec, (a, b) = case
    ref = _ref(spec)
    x, y = FqElem(spec, a), FqElem(spec, b)
    assert x.coeffs == a and y.coeffs == b
    assert (x * y).coeffs == ref.mul(a, b)
    assert (x + y).coeffs == ref.add(a, b)
    assert (x - y).coeffs == ref.sub(a, b)
    assert (-x).coeffs == ref.neg(a)
    assert (x * y).coeffs == (y * x).coeffs


@settings(max_examples=150, deadline=None)
@given(field_and_elements(1), st.integers(0, 40), st.integers(0, 2 ** 64))
def test_powers_inverse_frobenius_match_reference(case, i, r):
    spec, (a,) = case
    ref = _ref(spec)
    x = FqElem(spec, a)
    e = r % (spec.p ** i + 1)     # exponents up to p^40
    assert (x ** e).coeffs == ref.pow(a, e)
    assert x.frobenius(i).coeffs == ref.pow(a, spec.p ** (i % spec.ell))
    if any(a):
        inv = x.inverse()
        assert inv.coeffs == ref.inverse(a)
        assert (x * inv).is_one()
        assert (x ** -2).coeffs == ref.pow(ref.inverse(a), 2)


@settings(max_examples=300, deadline=None)
@given(field_and_elements(2))
def test_predicates_equality_and_hash(case):
    spec, (a, b) = case
    x, y = FqElem(spec, a), FqElem(spec, b)
    assert x.is_zero() == (not any(a))
    assert x.is_one() == (a == _ref(spec).one())
    assert x.in_prime_field() == (not any(a[1:]))
    assert (x == y) == (a == b)
    assert x == FqElem(spec, a) and hash(x) == hash(FqElem(spec, a))
    assert hash(x) == hash((spec.p, spec.ell, a))
    assert spec.element(a) == x and spec.element(a).coeffs == a
    assert repr(x) == (str(a[0]) if spec.ell == 1
                       else "[" + ",".join(map(str, a)) + "]")


def test_constants_and_enumeration():
    for p, ell in SMALL:
        spec = FieldSpec.get(p, ell)
        ref = _ref(spec)
        assert spec.zero().coeffs == (0,) * ell
        assert spec.one().coeffs == ref.one()
        assert spec.from_int(p + 1).coeffs == ref.one()
        gen = spec.generator().coeffs
        assert gen == (ref.one() if ell == 1 else (0, 1) + (0,) * (ell - 2))
        elems = list(spec.all_elements())
        assert len({e.coeffs for e in elems}) == spec.q
        # the multiplicative group has order q - 1
        for e in elems[1:]:
            assert (e ** (spec.q - 1)).is_one()
