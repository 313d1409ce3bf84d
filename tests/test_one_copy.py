"""One copy of each concept: the modulus test runs in FieldSpec's packed
ring (against the int-tuple Rabin test it replaced and against
factorization), the kernel over F_q(s) comes from `rref` (against the
fraction-free Bareiss code it replaced), one `mat_mul` serves every ring,
and the input checks that replaced asserts still run under `python -O`.
The replaced code is kept here as the reference."""

import functools
import itertools
import operator
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import frobsplit
from frobsplit.fields import (CPoly, FieldSpec, RatFun, kernel_basis,
                              mat_mul, power, rref, smallest_irreducible,
                              solve_linear)
from frobsplit.fqfactor import is_irreducible
from frobsplit.ore import OrePoly
from frobsplit.skew import SkewElem, SkewMatrix

SRC = os.path.dirname(os.path.dirname(os.path.abspath(frobsplit.__file__)))


# ---------------------------------------------------------------------------
# reference: the int-tuple F_p[x] Rabin test that FieldSpec replaced


def _fp_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fp_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1]:
            q = a[-1] * inv % p
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - q * c) % p
        a.pop()
    return _fp_trim(a)


def _fp_mulmod(a, b, m, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] = (res[i + j] + x * y) % p
    return _fp_mod(tuple(res), m, p)


def _fp_powmod(a, e, m, p):
    return power(_fp_mod(a, m, p), e, lambda: (1,),
                 lambda x, y: _fp_mulmod(x, y, m, p))


def _fp_gcd(a, b, p):
    a, b = _fp_trim(a), _fp_trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b) and r:
            if r[-1]:
                q = r[-1] * inv % p
                shift = len(r) - len(b)
                for i, c in enumerate(b):
                    r[shift + i] = (r[shift + i] - q * c) % p
            r.pop()
        a, b = b, _fp_trim(r)
    return a


def reference_is_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial over F_p (Rabin's test)."""
    coeffs = _fp_trim(coeffs)
    n = len(coeffs) - 1
    if n < 1:
        return False
    x = (0, 1)
    if _fp_powmod(x, p ** n, coeffs, p) != _fp_mod(x, coeffs, p):
        return False
    r = 2
    factors = []
    m = n
    while r <= m:
        if m % r == 0:
            factors.append(r)
            while m % r == 0:
                m //= r
        r += 1
    if m > 1:
        factors.append(m)
    for r in factors:
        xq = _fp_powmod(x, p ** (n // r), coeffs, p)
        diff = list(xq) + [0] * (2 - len(xq))
        diff[1] = (diff[1] - 1) % p
        if len(_fp_gcd(tuple(diff), coeffs, p)) - 1 != 0:
            return False
    return True


def accepted_as_modulus(p, coeffs):
    try:
        FieldSpec(p, len(coeffs) - 1, coeffs)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("p,degrees", [(2, range(2, 7)), (3, range(2, 7)),
                                       (5, range(2, 5))])
def test_modulus_test_matches_factorization_and_reference(p, degrees):
    fp = FieldSpec.get(p, 1)
    for n in degrees:
        for lower in itertools.product(range(p), repeat=n):
            coeffs = lower + (1,)
            expected = is_irreducible(CPoly.from_ints(fp, coeffs))
            assert accepted_as_modulus(p, coeffs) == expected, coeffs
            assert reference_is_irreducible(coeffs, p) == expected, coeffs


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(2, 12), st.data())
def test_modulus_test_matches_reference_at_higher_degree(p, n, data):
    lower = data.draw(st.lists(st.integers(0, p - 1), min_size=n,
                               max_size=n))
    coeffs = tuple(lower) + (1,)
    assert accepted_as_modulus(p, coeffs) == \
        reference_is_irreducible(coeffs, p)


@pytest.mark.parametrize("p,ell,terms", [
    (2, 20, {0: 1, 3: 1}), (2, 21, {0: 1, 2: 1}), (3, 13, {0: 1, 1: 2}),
    (3, 14, {0: 2, 1: 1}), (5, 9, {0: 3, 1: 2, 2: 1}),
    (2, 69, {0: 1, 2: 1, 5: 1, 6: 1})])
def test_smallest_irreducible_is_pinned(p, ell, terms):
    expected = tuple(terms.get(i, 0) for i in range(ell)) + (1,)
    assert smallest_irreducible(p, ell) == expected
    assert FieldSpec.get(p, ell).modulus == expected


def test_reducible_and_malformed_moduli_are_rejected():
    # (x^3+x+1)(x^3+x^2+1) passes x^(2^6) = x and fails only a gcd
    for p, modulus in ((2, (1, 0, 1)), (3, (0, 1, 1)), (2, (1, 0, 1, 0, 1)),
                       (5, (4, 0, 1)), (2, (1, 1, 1, 1, 1, 1, 1))):
        with pytest.raises(ValueError, match="not irreducible"):
            FieldSpec(p, len(modulus) - 1, modulus)
    with pytest.raises(ValueError, match="monic"):
        FieldSpec(2, 2, (1, 1, 0))


# ---------------------------------------------------------------------------
# reference: the fraction-free kernel that `rref` replaced


def _clear_rows(M):
    out = []
    for row in M:
        den = CPoly.one(row[0].spec)
        for e in row:
            if not e.den.is_one():
                den = den.lcm(e.den)
        out.append([e.num if den.is_one() else e.num * den.exact_div(e.den)
                    for e in row])
    return out


def _echelon_fraction_free(rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    prev = None
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows))
                   if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            head = rows[i][c]
            new = []
            for j in range(ncols):
                v = piv * rows[i][j] - head * rows[r][j]
                if prev is not None and not v.is_zero():
                    v = v.exact_div(prev)
                new.append(v)
            rows[i] = new
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_kernel_basis(M):
    ncols = len(M[0])
    spec = M[0][0].spec
    rows, pivots = _echelon_fraction_free(_clear_rows(M), ncols)
    pivot_cols = [c for (_, c) in pivots]
    zero, one = RatFun.zero(spec), RatFun.one(spec)
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [zero] * ncols
        v[fc] = one
        for (r, c) in reversed(pivots):
            acc = zero
            for j in range(c + 1, ncols):
                if not rows[r][j].is_zero() and not v[j].is_zero():
                    acc = acc + RatFun(rows[r][j], _canonical=True) * v[j]
            v[c] = -(acc / RatFun(rows[r][c], _canonical=True))
        basis.append(v)
    return basis


def reference_rank(M):
    return len(_echelon_fraction_free(_clear_rows(M), len(M[0]))[1])


def reference_solve_linear(M, b):
    ncols = len(M[0])
    for v in reference_kernel_basis([row + [bi] for row, bi in zip(M, b)]):
        if not v[ncols].is_zero():
            scale = -(v[ncols].inverse())
            return [vi * scale for vi in v[:ncols]]
    if all(bi.is_zero() for bi in b):
        return [RatFun.zero(M[0][0].spec)] * ncols
    return None


FIELDS = [FieldSpec.get(p, ell) for p in (2, 3) for ell in (1, 2)]


def _ratfun(rng, spec):
    """A random element of F_q(s) with numerator degree <= 2 and a
    denominator of degree <= 1; zero in about a third of the draws."""
    if rng.random() < 0.35:
        return RatFun.zero(spec)
    num = CPoly(spec, [spec.random_element(rng) for _ in range(3)])
    den = CPoly(spec, [spec.random_element(rng), spec.one()]) \
        if rng.random() < 0.5 else CPoly.one(spec)
    return RatFun(num, den)


def _rank_deficient(rng, spec, nrows, ncols, rank):
    """An nrows x ncols RatFun matrix of rank at most `rank`: a product
    of nrows x rank and rank x ncols random factors."""
    if rank == 0:
        return [[RatFun.zero(spec)] * ncols for _ in range(nrows)]
    left = [[_ratfun(rng, spec) for _ in range(rank)] for _ in range(nrows)]
    right = [[_ratfun(rng, spec) for _ in range(ncols)] for _ in range(rank)]
    return mat_mul(left, right)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_kernel_rank_and_solve_match_fraction_free_reference(
        spec, nrows, ncols, rank, rng):
    M = _rank_deficient(rng, spec, nrows, ncols, rank)
    assert len(rref(M, ncols)[1]) == reference_rank(M)
    basis = kernel_basis(M)
    assert basis == reference_kernel_basis(M)
    for v in basis:
        assert all(e.is_zero() for row in mat_mul(M, [[x] for x in v])
                   for e in row)
    x0 = [[_ratfun(rng, spec)] for _ in range(ncols)]
    for b in ([row[0] for row in mat_mul(M, x0)],
              [_ratfun(rng, spec) for _ in range(nrows)]):
        x = solve_linear(M, b)
        assert x == reference_solve_linear(M, b)
        if x is not None:
            assert [row[0] for row in mat_mul(M, [[xi] for xi in x])] == b


# ---------------------------------------------------------------------------
# one dense matrix product over every ring


def schoolbook(A, B, zero):
    return [[functools.reduce(operator.add,
                              (A[i][t] * B[t][j] for t in range(len(B))),
                              zero)
             for j in range(len(B[0]))] for i in range(len(A))]


def _orepoly(rng, spec):
    if rng.random() < 0.3:
        return OrePoly.zero(spec)
    return OrePoly(spec, [spec.random_element(rng)
                          for _ in range(rng.randrange(1, 4))])


def _skewelem(rng, spec):
    return SkewElem(spec, [_ratfun(rng, spec) for _ in range(spec.ell)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.randoms(use_true_random=False))
def test_mat_mul_matches_schoolbook_over_every_ring(spec, n, k, m, rng):
    for make, cls in ((_ratfun, RatFun), (_orepoly, OrePoly),
                      (_skewelem, SkewElem)):
        A = [[make(rng, spec) for _ in range(k)] for _ in range(n)]
        B = [[make(rng, spec) for _ in range(m)] for _ in range(k)]
        assert mat_mul(A, B) == schoolbook(A, B, cls.zero(spec))
        if cls is SkewElem:
            product = SkewMatrix(spec, A) * SkewMatrix(spec, B)
            assert [list(r) for r in product.entries] == mat_mul(A, B)


def test_skew_matrix_products_with_an_empty_side():
    F4 = FieldSpec.get(2, 2)
    empty, column = SkewMatrix.zero(F4, 0, 0), SkewMatrix.zero(F4, 2, 0)
    assert (column * empty).rows == 2 and (column * empty).cols == 0
    assert (empty * empty).rows == 0


def test_mismatched_shapes_raise_instead_of_truncating():
    F2 = FieldSpec.get(2, 1)
    I1, I2 = SkewMatrix.identity(F2, 1), SkewMatrix.identity(F2, 2)
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="2 x 2 plus 1 x 1"):
            op(I2, I1)
    one = OrePoly.one(F2)
    with pytest.raises(ValueError, match="3-column times 1-row"):
        mat_mul([[one, one, one]], [[one]])


# ---------------------------------------------------------------------------
# the input checks that replaced asserts run under python -O


_OPTIMIZED_CHECKS = """
import pytest
from frobsplit.classify import AdditiveMap
from frobsplit.fields import FieldSpec
from frobsplit.fsets import (FpFModule, FSetDescriptor, LambdaEqInstance,
                             lambda_density, module_contains,
                             solve_lambda_eq, vandermonde_check)
from frobsplit.mrat import MRatFun
from frobsplit.ore import OrePoly
if __debug__:
    raise SystemExit("must run under -O")
F2 = FieldSpec.get(2, 1)
t = MRatFun.var(F2, 1, 0)
one = MRatFun.constant(F2.one(), 1)
module = FpFModule([(t,)])
inst = LambdaEqInstance(t + one, [F2.one(), F2.one()])
checks = [
    lambda: FpFModule([(t,), (t, t)]),
    lambda: module.elements(-1),
    lambda: FSetDescriptor((t,), [(t,)], []),
    lambda: FSetDescriptor((t,), [(t, t)], [1]),
    lambda: FSetDescriptor((t,), [(t,)], [1], FpFModule([(t, t)])),
    lambda: module_contains(module, (t,), -1),
    lambda: LambdaEqInstance(MRatFun.var(F2, 2, 0), [F2.one(), F2.one()]),
    lambda: LambdaEqInstance(MRatFun.zero(F2, 1), [F2.one(), F2.one()]),
    lambda: LambdaEqInstance(t, [F2.one()]),
    lambda: solve_lambda_eq(inst, 0),
    lambda: lambda_density(inst, 0),
    lambda: vandermonde_check([F2.one()], 0, 2),
    lambda: AdditiveMap([[OrePoly.one(F2), OrePoly.one(F2)]]),
]
for check in checks:
    with pytest.raises(ValueError):
        check()
print("ok")
"""


def test_input_checks_raise_value_error_under_optimize_flag():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
