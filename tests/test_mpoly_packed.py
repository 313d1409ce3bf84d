"""Property tests: MPoly's product on the packed ints of its coefficients,
against the termwise FqElem product it replaced, kept here as the
reference.

The checks raise explicitly rather than through `assert`, so that they
still run under `python -O`, and a mutant of the product without its
zero filter is shown to fail them."""

import inspect
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit import mrat
from frobsplit.fields import FieldSpec, FqElem
from frobsplit.mrat import MPoly


def ref_mul(a, b):
    """The termwise product over FqElem coefficients."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if e in out:
                out[e] = out[e] + c1 * c2
            else:
                out[e] = c1 * c2
    return MPoly(a.spec, a.nvars, out)


def check_product(a, b, prod):
    ref = ref_mul(a, b)
    if prod.terms != ref.terms:
        raise AssertionError("terms %r, expected %r" % (prod, ref))
    if list(prod.terms) != list(ref.terms):
        raise AssertionError("term order %r, expected %r"
                             % (list(prod.terms), list(ref.terms)))
    for c in prod.terms.values():
        if not isinstance(c, FqElem) or c.spec is not a.spec:
            raise AssertionError("coefficient %r outside %r" % (c, a.spec))
        if c.is_zero():
            raise AssertionError("zero coefficient stored")


SPECS = [FieldSpec.get(p, ell) for p in (2, 3, 5) for ell in (1, 2, 3)]


@st.composite
def elements(draw, spec):
    return spec.element([draw(st.integers(0, spec.p - 1))
                         for _ in range(spec.ell)])


@st.composite
def mpolys(draw, spec, nvars):
    # small exponents collide and cancel; p-power ones are the huge
    # exponents of iterated Frobenius
    exps = st.tuples(*[st.integers(0, 3) | st.sampled_from([spec.p ** 9])
                       for _ in range(nvars)])
    terms = draw(st.lists(st.tuples(exps, elements(spec)), max_size=5))
    return MPoly(spec, nvars, dict(terms))


@st.composite
def pairs(draw):
    spec = draw(st.sampled_from(SPECS))
    nvars = draw(st.integers(1, 3))
    return draw(mpolys(spec, nvars)), draw(mpolys(spec, nvars))


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_packed_product_equals_termwise_product(ab):
    a, b = ab
    check_product(a, b, a * b)
    check_product(b, a, b * a)
    zero = MPoly.zero(a.spec, a.nvars)
    check_product(a, zero, a * zero)
    check_product(zero, a, zero * a)


@settings(max_examples=100, deadline=None)
@given(pairs())
def test_cross_terms_cancel_and_leave_no_zero(ab):
    # (u + v)(u - v) = u^2 - v^2: every cross term cancels
    u, v = ab
    check_product(u + v, u - v, (u + v) * (u - v))


@settings(max_examples=50, deadline=None)
@given(pairs())
def test_scalar_product(ab):
    a, _ = ab
    zero = a.spec.zero()
    if (a * zero).terms:
        raise AssertionError("a * 0 stored terms")
    c = a.spec.from_int(a.spec.p - 1)
    if (a * c).terms != {e: x * c for e, x in a.terms.items()}:
        raise AssertionError("scalar product")


def test_mutant_without_zero_filter_fails(monkeypatch):
    src = textwrap.dedent(inspect.getsource(MPoly.__mul__))
    mutant_src = src.replace("for e, v in out.items() if v}",
                             "for e, v in out.items()}")
    if mutant_src == src:
        raise AssertionError("the zero filter of MPoly.__mul__ moved")
    namespace = {}
    exec(mutant_src, vars(mrat), namespace)
    monkeypatch.setattr(MPoly, "__mul__", namespace["__mul__"])
    F3 = FieldSpec.get(3, 1)
    t = MPoly.var(F3, 1, 0)
    one = MPoly.one(F3, 1)
    with pytest.raises(AssertionError):
        check_product(t + one, t - one, (t + one) * (t - one))
