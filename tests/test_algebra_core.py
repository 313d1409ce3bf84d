"""One algebra core: the field row reduction `rref` against the two
pivot loops it replaced (kept here as references), division-ring
elimination over the skew field, CenterPoly on CPoly's arithmetic, the
per-layer tracer's hooks into that arithmetic, and the engine's checks
under `python -O`."""

import importlib.util
import os
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import frobsplit
import frobsplit.cli  # noqa: F401  (the tracer wraps functions of cli too)
from frobsplit.fields import CPoly, FieldSpec, RatFun, rref, rref_kernel
from frobsplit.mrat import fp_kernel
from frobsplit.ore import OrePoly
from frobsplit.skew import (CenterPoly, SkewElem, SkewMatrix,
                            gauss_eliminate, right_kernel)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(frobsplit.__file__)))


# ---------------------------------------------------------------------------
# references: the pivot loops that `rref` replaced


def reference_fq_rref(rows, spec):
    """(rank, kernel basis) of a matrix over F_q."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [spec.zero()] * ncols
        v[fc] = spec.one()
        for rr, cc in pivots:
            v[cc] = -rows[rr][fc]
        basis.append(v)
    return len(pivots), basis


def reference_fp_kernel(matrix, p):
    """Kernel basis of an integer matrix mod p (rows x cols)."""
    if not matrix:
        return []
    rows = [list(r) for r in matrix]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    pivot_cols = {c for (_, c) in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [0] * ncols
        v[fc] = 1
        for (rr, cc) in pivots:
            v[cc] = (-rows[rr][fc]) % p
        basis.append(v)
    return basis


FIELDS = [FieldSpec.get(p, ell) for p in (2, 3) for ell in (1, 2)]


@st.composite
def fq_matrices(draw):
    """A matrix over F_q, q in {2, 3, 4, 9}; often rank deficient, since
    rows are drawn from a small pool and zero entries are likely."""
    spec = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    elems = list(spec.all_elements())
    entry = st.one_of(st.just(spec.zero()), st.sampled_from(elems))
    pool = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=nrows))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=nrows, max_size=nrows))
    return spec, [list(pool[i]) for i in picks], ncols


@settings(max_examples=300, deadline=None)
@given(fq_matrices())
def test_rref_rank_and_kernel_match_reference_over_fq(case):
    spec, rows, ncols = case
    rank, basis = reference_fq_rref(rows, spec)
    R, pivots = rref(rows, ncols)
    assert len(pivots) == rank
    assert rref_kernel(R, pivots, ncols, spec.zero(), spec.one()) == basis
    for v in basis:
        for row in rows:
            acc = spec.zero()
            for a, x in zip(row, v):
                acc = acc + a * x
            assert acc.is_zero()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(1, 6), st.integers(1, 7),
       st.data())
def test_fp_kernel_matches_reference(p, nrows, ncols, data):
    # ints outside [0, p), negative ones included, as linearize_fractions
    # and module_contains may hand over
    entry = st.integers(-2 * p, 2 * p)
    matrix = data.draw(st.lists(st.lists(entry, min_size=ncols,
                                         max_size=ncols),
                                min_size=nrows, max_size=nrows))
    assert fp_kernel(matrix, p) == reference_fp_kernel(matrix, p)
    assert fp_kernel([], p) == []


# ---------------------------------------------------------------------------
# elimination over the skew field K


F2 = FieldSpec.get(2, 1)
F4 = FieldSpec.get(2, 2)
F3 = FieldSpec.get(3, 1)


def _skew_matrix(spec, rng, nrows, ncols):
    """Random Ore entries; one row is a left K-multiple of another (or
    zero) when rng says so, to make the matrix rank deficient."""
    def elem():
        return SkewElem.from_ore(OrePoly(
            spec, [spec.random_element(rng)
                   for _ in range(rng.randrange(3))]))
    rows = [[elem() for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.randrange(2):
        c = elem()
        rows[-1] = [c * x for x in rows[0]]
    return SkewMatrix(spec, rows)


def test_gauss_eliminate_and_right_kernel_over_skew_field():
    rng = random.Random(11)
    deficient = 0
    for spec in (F2, F4, F3):
        for _ in range(4):
            M = _skew_matrix(spec, rng, rng.randrange(1, 4),
                             rng.randrange(1, 4))
            rank, R, T = gauss_eliminate(M)
            assert (T * M).entries == R.entries
            for i, row in enumerate(R.entries[:rank]):
                pc = next(j for j, e in enumerate(row) if not e.is_zero())
                assert row[pc].is_one()
                assert all(R.entries[k][pc].is_zero()
                           for k in range(M.rows) if k != i)
            assert all(e.is_zero() for row in R.entries[rank:] for e in row)
            ker = right_kernel(M)
            assert len(ker) == M.cols - rank
            deficient += rank < min(M.rows, M.cols)
            for v in ker:
                col = SkewMatrix(spec, [[x] for x in v])
                assert (M * col).is_zero() and not col.is_zero()
    assert deficient  # the generator reaches rank-deficient matrices


# ---------------------------------------------------------------------------
# CenterPoly: the coefficient hook on CPoly's arithmetic


def _ratfun(spec, rng):
    num = CPoly(spec, [spec.random_element(rng)
                       for _ in range(rng.randrange(3))])
    den = CPoly(spec, [spec.random_element(rng)
                       for _ in range(rng.randrange(1, 3))])
    if den.is_zero():
        return RatFun(num)
    return RatFun(num, den)


def _center_poly(spec, rng, maxdeg):
    return CenterPoly(spec, [_ratfun(spec, rng)
                             for _ in range(rng.randrange(maxdeg + 2))])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((F2, F3, F4)), st.integers(0, 2 ** 32 - 1))
def test_center_poly_division_and_xgcd(spec, seed):
    rng = random.Random(seed)
    a = _center_poly(spec, rng, 4)
    b = _center_poly(spec, rng, 3)
    if not b.is_zero():
        q, r = a.divmod(b)
        assert type(q) is CenterPoly and type(r) is CenterPoly
        assert a == q * b + r and r.degree < b.degree
    g, u, v = a.xgcd(b)
    assert all(type(x) is CenterPoly for x in (g, u, v))
    assert u * a + v * b == g
    assert g == a.gcd(b)
    if not g.is_zero():
        assert g.leading().is_one()
        assert (a % g).is_zero() and (b % g).is_zero()
    assert type(a.derivative()) is CenterPoly
    assert type(a ** 2) is CenterPoly and type(-a) is CenterPoly


def test_center_poly_and_cpoly_stay_distinct():
    for spec in (F2, F4):
        assert CPoly.zero(spec) != CenterPoly.zero(spec)
        assert CPoly.one(spec) != CenterPoly.one(spec)
        assert CenterPoly.one(spec).coeffs == (RatFun.one(spec),)
        assert CPoly.one(spec).coeffs == (spec.one(),)
        x = CenterPoly.x(spec)
        assert repr(x ** 2 - CenterPoly(spec, [RatFun.s(spec)])) == \
            "(s) + x^2"
        assert repr((x + CenterPoly.one(spec)).lcm(x)) == "x + x^2"
    assert (CenterPoly.x(F3) ** 3).derivative().is_zero()
    assert (CenterPoly.x(F3) ** 2).derivative() == \
        CenterPoly(F3, [RatFun.zero(F3), RatFun.from_int(F3, 2)])


# ---------------------------------------------------------------------------
# the per-layer tracer wraps methods and functions by their own names


def test_tracer_installs_on_the_algebra_core():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("frobsplit_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, cls, meth, _ in tracer.COUNTERS:
        klass = getattr(sys.modules["frobsplit." + modname], cls)
        assert meth in klass.__dict__, (cls, meth)
    t = tracer.Tracer()
    t.install()
    try:
        assert CPoly.__dict__["__mul__"].__wrapped__ is not None
        x = CenterPoly.x(F2)
        assert (x * x).degree == 2 and (CPoly.s(F2) * CPoly.s(F2)).degree == 2
        assert t.counts["fields.CPoly.mul.calls"][0] >= 2
    finally:
        t.uninstall()
    assert not hasattr(CPoly.__dict__["__mul__"], "__wrapped__")


# ---------------------------------------------------------------------------
# the checks that replaced asserts still run under python -O


_OPTIMIZED_CHECKS = """
import pytest
from frobsplit import skew, split
from frobsplit.fields import FieldSpec, RatFun
from frobsplit.ore import OrePoly
from frobsplit.skew import (SkewElem, SkewMatrix, SplitSelfCheckError,
                            matrix_inverse, tilde)
if __debug__:
    raise SystemExit("must run under -O")
F4 = FieldSpec.get(2, 2)
one = SkewElem.one(F4)
checks = [
    lambda: SkewElem(F4, (RatFun.one(F4),)),
    lambda: SkewMatrix(F4, [[one, one], [one]]),
    lambda: SkewMatrix.identity(F4, 2) * SkewMatrix.identity(F4, 3),
    lambda: SkewMatrix(F4, [[one, one]]) ** 2,
    lambda: tilde(SkewMatrix(F4, [[one, one]])),
    lambda: matrix_inverse(SkewMatrix(F4, [[one, one]])),
]
for check in checks:
    with pytest.raises(ValueError):
        check()
assert split.SplitSelfCheckError is SplitSelfCheckError
skew.solve_linear = lambda M, b: None
with pytest.raises(SplitSelfCheckError):
    skew.central_multiplier(OrePoly.F(F4))
print("ok")
"""


def test_shape_and_invariant_checks_run_under_optimize_flag():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
