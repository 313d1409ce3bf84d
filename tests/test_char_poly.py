"""`char_poly` by Berkowitz's division-free recurrence over F_q[s], and
`determinant` on top of it, against the evaluation/interpolation
`char_poly` and the fraction-free (Bareiss) determinant they replaced.
The replaced code is kept here as the reference."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit.fields import (CPoly, FieldSpec, RatFun, char_poly,
                              mat_mul, power)
from frobsplit.skew import CenterPoly, companion_matrix
from ratmat import determinant, mat_identity

FIELDS = [FieldSpec.get(p, ell) for p in (2, 3, 5) for ell in (1, 2)]


# ---------------------------------------------------------------------------
# reference: det(x_i I - M) at n+1 points by Bareiss, then Lagrange


def reference_bareiss_det(rows_from, spec):
    n = len(rows_from)
    dens = CPoly.one(spec)
    rows = []
    for row in rows_from:
        den = CPoly.one(spec)
        for e in row:
            if not e.den.is_one():
                den = den.lcm(e.den)
        dens = dens * den
        rows.append([e.num * den.exact_div(e.den) if not den.is_one() else e.num
                     for e in row])
    sign = 1
    prev = None
    for k in range(n - 1):
        if rows[k][k].is_zero():
            for i in range(k + 1, n):
                if not rows[i][k].is_zero():
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return RatFun.zero(spec)
        piv = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                v = piv * rows[i][j] - rows[i][k] * rows[k][j]
                if prev is not None:
                    v = v.exact_div(prev)
                rows[i][j] = v
            rows[i][k] = CPoly.zero(spec)
        prev = piv
    det = rows[n - 1][n - 1]
    if sign < 0:
        det = -det
    return RatFun(det, dens)


def reference_char_poly(M):
    n = len(M)
    spec = M[0][0].spec
    pts = []
    code = 0
    while len(pts) < n + 1:
        # enumerate polynomials in s over F_p by base-p digits
        digits, c = [], code
        while True:
            digits.append(c % spec.p)
            c //= spec.p
            if c == 0:
                break
        pts.append(RatFun(CPoly.from_ints(spec, digits), _canonical=True))
        code += 1
    vals = []
    for x in pts:
        A = [[(x if i == j else RatFun.zero(spec)) - M[i][j] for j in range(n)]
             for i in range(n)]
        vals.append(reference_bareiss_det(A, spec))
    coeffs = [RatFun.zero(spec)] * (n + 1)
    for i, xi in enumerate(pts):
        # basis polynomial prod_{j!=i} (x - xj)/(xi - xj)
        basis = [RatFun.one(spec)]
        denom = RatFun.one(spec)
        for j, xj in enumerate(pts):
            if j == i:
                continue
            new = [RatFun.zero(spec)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] = new[k] - c * xj
                new[k + 1] = new[k + 1] + c
            basis = new
            denom = denom * (xi - xj)
        scale = vals[i] / denom
        for k, c in enumerate(basis):
            coeffs[k] = coeffs[k] + c * scale
    return coeffs


# ---------------------------------------------------------------------------
# random matrices


def _ratfun(rng, spec, dens):
    """A random element of F_q(s): numerator degree <= 2, with a random
    denominator of degree <= 2 if `dens`; zero in about a third of the
    draws."""
    if rng.random() < 0.35:
        return RatFun.zero(spec)
    num = CPoly(spec, [spec.random_element(rng) for _ in range(3)])
    if not dens or rng.random() < 0.5:
        return RatFun(num)
    den = CPoly(spec, [spec.random_element(rng) for _ in range(
        rng.randrange(1, 3))] + [spec.one()])
    return RatFun(num, den)


def _matrix(rng, spec, n, dens):
    """A random n x n RatFun matrix, with some rows and columns zeroed."""
    M = [[_ratfun(rng, spec, dens) for _ in range(n)] for _ in range(n)]
    z = RatFun.zero(spec)
    for i in range(n):
        if rng.random() < 0.15:
            M[i] = [z] * n
        if rng.random() < 0.15:
            for row in M:
                row[i] = z
    return M


def _companion_power(rng, spec, deg, e):
    """C_g^e for a random monic g of degree `deg` whose coefficients have
    central denominators (s + a)."""
    coeffs = []
    for _ in range(deg):
        den = CPoly(spec, [spec.random_element(rng), spec.one()])
        num = CPoly(spec, [spec.random_element(rng) for _ in range(2)])
        coeffs.append(RatFun(num, den))
    g = CenterPoly(spec, coeffs + [RatFun.one(spec)])
    C = companion_matrix(g)
    return power(C, e, lambda: mat_identity(spec, deg), mat_mul)


def _check(M):
    cp = char_poly(M)
    assert cp == reference_char_poly(M)
    assert len(cp) == len(M) + 1 and cp[-1].is_one()
    assert determinant(M) == reference_bareiss_det(M, M[0][0].spec)


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 6), st.booleans(),
       st.randoms(use_true_random=False))
def test_char_poly_and_determinant_match_reference(spec, n, dens, rng):
    _check(_matrix(rng, spec, n, dens))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 6),
       st.randoms(use_true_random=False))
def test_companion_powers_with_denominators_match_reference(spec, deg, e,
                                                            rng):
    _check(_companion_power(rng, spec, deg, e))


@pytest.mark.parametrize("spec", FIELDS)
def test_zero_and_identity_matrices(spec):
    z, one = RatFun.zero(spec), RatFun.one(spec)
    for n in range(1, 5):
        _check([[z] * n for _ in range(n)])
        _check(mat_identity(spec, n))
    assert determinant([[z]]).is_zero()
    assert char_poly([[one]]) == [-one, one]


def test_determinant_of_empty_matrix_is_value_error():
    with pytest.raises(ValueError, match="empty"):
        determinant([])


def test_polynomial_entries_make_no_gcd_call(monkeypatch):
    rng = random.Random(7)
    spec = FieldSpec.get(3, 2)
    M = _matrix(rng, spec, 6, dens=False)
    M[0][0] = RatFun.s(spec)  # at least one entry of positive degree
    expected = reference_char_poly(M)
    calls = []
    gcd = CPoly.gcd

    def counted(self, other):
        calls.append(1)
        return gcd(self, other)

    monkeypatch.setattr(CPoly, "gcd", counted)
    assert char_poly(M) == expected
    assert determinant(M) == expected[0]  # (-1)^6 cp[0]
    assert calls == []
