"""One denominator for many fractions: `mrat.common_denominator` and
`mrat.frobenius_cofactors`, and the three callers built on them.

The references are the routines they replaced, kept here:
`reference_linearize_fractions` (the product of the other denominators
rebuilt for each function, coefficients read through `FqElem.coeffs`),
`reference_check_independence` (every Frobenius power g^(p^e) over its
own denominator den^(p^e)) and `reference_orbit` (every point through
`ratmat.apply_map`, which multiplies the denominators of a sum)."""

import contextlib
import importlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit.cli import main
from frobsplit.fields import FieldSpec
from frobsplit.mrat import (MPoly, MRatFun, common_denominator, fp_kernel,
                            frobenius_cofactors, linearize_fractions)
from frobsplit.ore import OrePoly
from ratmat import apply_map

C = importlib.import_module("frobsplit.classify")
S = importlib.import_module("frobsplit.fsets")
CLI = importlib.import_module("frobsplit.cli")


# ---------------------------------------------------------------------------
# references: the routines that were replaced


def reference_linearize_fractions(funcs):
    if not funcs:
        return []
    spec = funcs[0].spec
    nvars = funcs[0].nvars
    dens = []
    for f in funcs:
        if not any(f.den == d for d in dens):
            dens.append(f.den)
    numerators = []
    for f in funcs:
        extra = MPoly.one(spec, nvars)
        skipped = False
        for d in dens:
            if not skipped and d == f.den:
                skipped = True
                continue
            extra = extra * d
        numerators.append(f.num * extra)
    monomials = sorted({e for n in numerators for e in n.terms},
                       key=lambda e: (sum(e), e))
    rows = []
    for e in monomials:
        for comp in range(spec.ell):
            row = []
            for n in numerators:
                c = n.terms.get(e)
                row.append(0 if c is None else c.coeffs[comp])
            rows.append(row)
    return rows


def reference_check_independence(gammas, deltas, D, k):
    if not gammas:
        return True, None
    base = gammas[0].spec
    big = FieldSpec.get(base.p, k) if base.ell == 1 else \
        FieldSpec.get(base.p, k * base.ell)
    w = big.generator()
    funcs = []
    tags = []
    for label, fam in (("gamma", gammas), ("delta", deltas)):
        for i, g in enumerate(fam):
            ge = C._mrat_embed(g, big)
            for e in range(D + 1):
                gfe = ge.frobenius_pow(e)
                for b in range(big.ell):
                    funcs.append(gfe * w ** b)
                    tags.append((label, i, e, b))
    matrix = reference_linearize_fractions(funcs)
    for vec in fp_kernel(matrix, big.p):
        if any(c and t[0] == "gamma" for t, c in zip(tags, vec)):
            return False, [(label, i, e, w ** b * big.from_int(c))
                           for (label, i, e, b), c in zip(tags, vec) if c]
    return True, None


def reference_orbit(A, alpha, M):
    pts = [list(alpha)]
    for _ in range(M - 1):
        pts.append(apply_map(A, pts[-1]))
    return pts


# ---------------------------------------------------------------------------
# strategies: small fractions whose denominators repeat


def _element(data, spec):
    return spec.element(data.draw(st.lists(st.integers(0, spec.p - 1),
                                           min_size=spec.ell,
                                           max_size=spec.ell)))


def _mpoly(data, spec, nvars, max_terms, max_deg):
    terms = {}
    for _ in range(data.draw(st.integers(0, max_terms))):
        e = tuple(data.draw(st.integers(0, max_deg)) for _ in range(nvars))
        terms[e] = _element(data, spec)
    return MPoly(spec, nvars, terms)


def _fractions(data, spec, nvars, count):
    """`count` fractions over a pool of at most three denominators (one of
    them 1), so that repeated and distinct denominators both occur."""
    pool = [MPoly.one(spec, nvars)]
    for _ in range(data.draw(st.integers(0, 2))):
        d = _mpoly(data, spec, nvars, 2, 2)
        if not d.is_zero():
            pool.append(d)
    return [MRatFun(_mpoly(data, spec, nvars, 3, 2),
                    data.draw(st.sampled_from(pool)))
            for _ in range(count)]


FIELDS = st.sampled_from(((2, 1), (2, 2), (3, 1), (3, 2)))


# ---------------------------------------------------------------------------
# the helpers


@settings(max_examples=100, deadline=None)
@given(FIELDS, st.integers(1, 2), st.integers(1, 6), st.data())
def test_common_denominator_keeps_every_value(pe, nvars, count, data):
    spec = FieldSpec.get(*pe)
    funcs = _fractions(data, spec, nvars, count)
    L, nums = common_denominator(funcs)
    dens = []
    for f in funcs:
        if not any(f.den == d for d in dens):
            dens.append(f.den)
    prod = MPoly.one(spec, nvars)
    for d in dens:
        prod = prod * d
    assert L == prod
    assert all(MRatFun(n, L) == f for n, f in zip(nums, funcs))


@settings(max_examples=60, deadline=None)
@given(FIELDS, st.integers(1, 2), st.integers(0, 3), st.data())
def test_frobenius_cofactors_put_every_power_over_the_top(pe, nvars, top,
                                                         data):
    spec = FieldSpec.get(*pe)
    L = _mpoly(data, spec, nvars, 3, 2)
    if L.is_zero():
        L = MPoly.one(spec, nvars)
    Ltop, cofs = frobenius_cofactors(L, top)
    assert Ltop == L ** (spec.p ** top) and len(cofs) == top + 1
    for k, c in enumerate(cofs):
        assert L.frobenius_pow(k) * c == Ltop


# ---------------------------------------------------------------------------
# linearize_fractions, check_independence and module_contains


@settings(max_examples=150, deadline=None)
@given(FIELDS, st.integers(1, 2), st.integers(1, 6), st.data())
def test_linearize_fractions_matches_reference(pe, nvars, count, data):
    spec = FieldSpec.get(*pe)
    funcs = _fractions(data, spec, nvars, count)
    # relations: Frobenius powers and F_p-combinations of earlier functions
    for _ in range(data.draw(st.integers(0, 3))):
        f = data.draw(st.sampled_from(funcs))
        if data.draw(st.booleans()):
            funcs.append(f.frobenius_pow(1))
        else:
            g = data.draw(st.sampled_from(funcs))
            c = spec.from_int(data.draw(st.integers(1, spec.p - 1)))
            funcs.append(f + g * c)
    want = reference_linearize_fractions(funcs)
    got = linearize_fractions(funcs)
    assert got == want
    assert fp_kernel(got, spec.p) == fp_kernel(want, spec.p)


@settings(max_examples=80, deadline=None)
@given(FIELDS, st.integers(1, 3), st.integers(0, 2), st.integers(0, 2),
       st.integers(1, 2), st.data())
def test_check_independence_matches_reference(pe, ngam, ndel, D, k, data):
    spec = FieldSpec.get(*pe)
    funcs = _fractions(data, spec, 1, ngam + ndel)
    if data.draw(st.booleans()):  # a forced relation among the gammas
        funcs[ngam - 1] = funcs[0].frobenius_pow(min(D, 1))
    gammas, deltas = funcs[:ngam], funcs[ngam:]
    assert repr(C.check_independence(gammas, deltas, D, k)) == \
        repr(reference_check_independence(gammas, deltas, D, k))


def test_tools_independence_is_byte_identical_to_reference(tmp_path,
                                                           monkeypatch):
    def run(path, k, D):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["tools", "independence", str(path), "--M", str(k),
                       "--D", str(D)])
        return rc, out.getvalue()
    cases = []
    for p in (2, 3, 5):
        path = tmp_path / ("f%d.txt" % p)
        path.write_text("[field]\np = %d\nell = 1\n" % p)
        cases += [(path, k, D) for k in (2, 3) for D in range(5)]
    got = [run(*c) for c in cases]
    monkeypatch.setattr(CLI, "check_independence",
                        reference_check_independence)
    want = [run(*c) for c in cases]
    assert got == want
    assert all(rc == 0 and out.endswith("independent = true\n")
               for rc, out in got)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((2, 1), (3, 1), (2, 2))), st.integers(1, 2),
       st.integers(1, 2), st.integers(0, 2), st.data())
def test_module_contains_answers_are_unchanged(pe, N, ngen, bound, data):
    spec = FieldSpec.get(*pe)
    gens = [tuple(_fractions(data, spec, 1, N)) for _ in range(ngen)]
    Gamma = S.FpFModule(gens)
    if data.draw(st.booleans()):  # an element of the module, often
        x = gens[0]
        for g in gens[1:]:
            x = tuple(a + b.frobenius_pow(data.draw(st.integers(0, 2)))
                      for a, b in zip(x, g))
    else:
        x = tuple(_fractions(data, spec, 1, N))
    got = S.module_contains(Gamma, x, bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "linearize_fractions", reference_linearize_fractions)
        assert got == S.module_contains(Gamma, x, bound)


# ---------------------------------------------------------------------------
# orbit


def _map(data, spec, N, top):
    return C.AdditiveMap([[OrePoly(spec, [_element(data, spec) for _ in
                                          range(data.draw(
                                              st.integers(0, top + 1)))])
                           for _ in range(N)] for _ in range(N)])


@settings(max_examples=100, deadline=None)
@given(FIELDS, st.integers(1, 2), st.integers(1, 2), st.integers(1, 4),
       st.data())
def test_orbit_matches_reference(pe, nvars, N, M, data):
    spec = FieldSpec.get(*pe)
    A = _map(data, spec, N, 2 if spec.p == 2 else 1)
    alpha = _fractions(data, spec, nvars, N)
    got = C.orbit(A, alpha, M)
    want = reference_orbit(A, alpha, M)
    assert len(got) == M
    if all(c.is_polynomial() for c in alpha):
        assert repr(got) == repr(want)
        return
    L, _ = common_denominator(alpha)
    for pg, pw in zip(got, want):
        assert len(pg) == N and all(a == b for a, b in zip(pg, pw))
        assert all(len(c.den.terms) <= len(L.terms) for c in pg)


def test_orbit_denominators_keep_the_term_count_of_alpha():
    # the shape that stalled the symbolic orbit under the density test:
    # F_4, N = 3, a dense map of F-degree 2, a density check of degree
    # D = 1 on M = 6 points, and three coordinates with distinct
    # denominators in two variables
    F4 = FieldSpec.get(2, 2)
    rng = random.Random("orbit F4 N3 M6")

    def elem():
        return F4.element([rng.randrange(2), rng.randrange(2)])

    def poly(terms):
        while True:
            f = MPoly(F4, 2, {(rng.randrange(3), rng.randrange(3)): elem()
                              for _ in range(terms)})
            if not f.is_zero():
                return f
    A = C.AdditiveMap([[OrePoly(F4, [elem() for _ in range(3)])
                        for _ in range(3)] for _ in range(3)])
    alpha = [MRatFun(poly(3), poly(2)) for _ in range(3)]
    L, _ = common_denominator(alpha)
    pts = C.orbit(A, alpha, 6)
    assert len(pts) == 6 and max(P.degree for r in A.entries for P in r) == 2
    for pt in pts:
        assert all(c.is_zero() or len(c.den.terms) == len(L.terms)
                   for c in pt)
    assert all(a == b for a, b in zip(pts[1], apply_map(A, alpha)))
    report = C.density_check_orbit(A, alpha, 6, 1)
    assert report.is_dense()
