"""Center factorization, eigenvalue classification, Jordan form over
the center, and the full splitting of a dominant endomorphism."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from frobsplit import split
from frobsplit.cli import main
from frobsplit.fields import CPoly, FieldSpec, RatFun, rref
from frobsplit.ore import OrePoly, parse_ore
from frobsplit.skew import CenterPoly, SkewElem, SkewMatrix, min_poly_center
from frobsplit.split import (FactorClassification, NonDominantError,
                             classify_factor, factor_center,
                             jordan_form_central, split_endomorphism)

F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)
F4 = FieldSpec.get(2, 2)
F8 = FieldSpec.get(2, 3)
F9 = FieldSpec.get(3, 2)


def x_s_one(spec):
    return (CenterPoly.x(spec), RatFun.s(spec), CenterPoly.one(spec))


def test_factor_center_irreducible():
    x, s, one = x_s_one(F2)
    f = x ** 2 - CenterPoly(F2, [s])
    assert factor_center(f) == [(f, 1)]


def test_factor_center_small_cases():
    x, s, one = x_s_one(F2)
    assert factor_center(x ** 2 - one) == [(x - one, 2)]
    g1 = x - CenterPoly(F2, [s])
    g2 = x - CenterPoly(F2, [s + RatFun.one(F2)])
    facs = factor_center(g1 * g2)
    assert sorted(facs, key=lambda t: repr(t[0])) == \
        sorted([(g1, 1), (g2, 1)], key=lambda t: repr(t[0]))


def test_factor_center_bivariate():
    x, s, one = x_s_one(F2)
    h1 = x ** 2 + x + CenterPoly(F2, [s])
    h2 = x + CenterPoly(F2, [s * s])
    facs = factor_center(h1 * h2)
    assert len(facs) == 2 and {f.degree for f, _ in facs} == {1, 2}
    prod = CenterPoly.one(F2)
    for g, m in facs:
        prod = prod * g ** m
    assert prod == h1 * h2


def test_factor_center_with_denominators():
    x, s, one = x_s_one(F2)
    h1 = x - CenterPoly(F2, [RatFun(CPoly.one(F2), CPoly.s(F2))])
    h2 = x - CenterPoly(F2, [s])
    assert len(factor_center(h1 * h2)) == 2


def test_factor_center_p_power_multiplicity():
    x, s, one = x_s_one(F2)
    f = (x - CenterPoly(F2, [s])) ** 2  # = x^2 - s^2
    assert factor_center(f) == [(x - CenterPoly(F2, [s]), 2)]
    x3, s3, _ = x_s_one(F3)
    f3 = (x3 - CenterPoly(F3, [s3])) ** 3
    assert factor_center(f3) == [(x3 - CenterPoly(F3, [s3]), 3)]


def test_factor_center_random_products():
    rng = random.Random(5)

    def rand_center(spec, dx, ds):
        coeffs = [RatFun(CPoly(spec, [spec.random_element(rng)
                                      for _ in range(ds + 1)]))
                  for _ in range(dx)]
        coeffs.append(RatFun.one(spec))
        f = CenterPoly(spec, coeffs)
        assert f.degree == dx
        return f

    for spec in (F2, F3):
        for _ in range(4):
            f1 = rand_center(spec, rng.randrange(1, 3), 2)
            f2 = rand_center(spec, rng.randrange(1, 3), 2)
            facs = factor_center(f1 * f2)
            prod = CenterPoly.one(spec)
            for g, m in facs:
                prod = prod * g ** m
            assert prod == f1 * f2


@st.composite
def known_factorizations(draw):
    """A field F_p and a dict of distinct monic irreducibles over F_p(s)
    with multiplicities 1-3, of total x-degree at most 12: x - a for an
    a in F_p(s), and x^m - c*s^j with gcd(m, j) = 1, irreducible by the
    s-adic Newton polygon (x^2 - s over F_2 is inseparable)."""
    p = draw(st.sampled_from([2, 3, 5]))
    spec = FieldSpec.get(p, 1)
    x = CenterPoly.x(spec)
    small = st.lists(st.integers(0, p - 1), min_size=1, max_size=3)
    want = {}
    degree = 0
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            num = CPoly.from_ints(spec, draw(small))
            den = CPoly.from_ints(spec, draw(small))
            if den.is_zero():
                den = CPoly.one(spec)
            g = x - CenterPoly(spec, [RatFun(num, den)])
        else:
            m = draw(st.integers(1, 4))
            j = draw(st.integers(0, 6).filter(lambda j: math.gcd(m, j) == 1))
            c = spec.from_int(draw(st.integers(1, p - 1)))
            g = x ** m - CenterPoly(spec, [RatFun(CPoly.monomial(spec, c, j))])
        e = draw(st.integers(1, 3))
        if degree + e * g.degree > 12:
            break
        degree += e * g.degree
        want[g] = want.get(g, 0) + e
    return spec, want


@settings(max_examples=100, deadline=None)
@given(known_factorizations())
def test_factor_center_finds_known_factorization(case):
    spec, want = case
    r = CenterPoly.one(spec)
    for g, e in want.items():
        r = r * g ** e
    got = factor_center(r)
    assert len(got) == len(want)
    assert dict(got) == want


def _center(spec, coeffs):
    """A CenterPoly from its x-coefficients, lowest first: each a list of
    the F_p digits of a polynomial in s, or a (num, den) pair of them."""
    return CenterPoly(spec, [
        RatFun(CPoly.from_ints(spec, c[0]), CPoly.from_ints(spec, c[1]))
        if isinstance(c, tuple) else RatFun(CPoly.from_ints(spec, c))
        for c in coeffs])


# Minimal polynomials that the certify-bc and witness-a jobs of the
# benchmark factor (over F_2, F_3, F_4, F_8, F_9), two with repeated
# factors from small maps over the same fields, and their factor lists
# exactly as the factorization over F_p(s) returned them: factors,
# multiplicities and order (sorted by degree and multiplicity, ties in
# the order found), which `tools split` prints as factor_i.
FACTOR_ORDER_PINS = [
    (F2, [[0, 0, 0, 1, 1], [0, 1], [1, 0, 1], [1]],
     [([[0, 0, 1], [1]], 1), ([[0, 1], [1]], 1), ([[1, 1], [1]], 1)]),
    (F2, [[0, 1], [1], [0, 1], [1]],
     [([[0, 1], [1]], 1), ([[1], [1]], 2)]),
    (F3, [[0, 0, 0, 2, 2], [0, 1, 2, 2], [2, 1, 2], [1]],
     [([[2, 2], [1]], 1), ([[0, 2], [1]], 1), ([[0, 0, 2], [1]], 1)]),
    (F3, [[2], [2], [1], [2], [], [1]],
     [([[2], [2], [1], [2], [], [1]], 1)]),
    (F4, [[0, 0, 1, 1], [0, 1], [0, 0, 1], [1], [1]],
     [([[0, 1], [1]], 1), ([[1, 1], [1]], 1), ([[0, 1], [], [1]], 1)]),
    (F4, [[0, 0, 0, 1, 0, 1], [0, 1, 1, 0, 1], [1, 1], [1]],
     [([[0, 0, 1], [1]], 1), ([[0, 1], [1]], 1), ([[1, 0, 1], [1]], 1)]),
    (F4, [[1, 1, 1, 1], [], [0, 1, 1], [], [0, 1], [], [1]],
     [([[1, 1], [], [1]], 1), ([[1, 1], [1], [1]], 2)]),
    # x^7 + x^6 + (s+s^2)x^4 + (s+s^2)x^3 + s^3*x + s^3
    (F8, [[0, 0, 0, 1], [0, 0, 0, 1], [], [0, 1, 1], [0, 1, 1], [], [1],
          [1]],
     [([[1], [1]], 1), ([[0, 1], [], [], [1]], 1),
      ([[0, 0, 1], [], [], [1]], 1)]),
    (F8, [[0, 0, 0, 1], [], [], [0, 1, 1], [], [], [1]],
     [([[0, 1], [], [], [1]], 1), ([[0, 0, 1], [], [], [1]], 1)]),
    (F9, [[0, 0, 2], [0, 1, 1], [], [2, 2], [1]],
     [([[0, 2], [1]], 1), ([[2], [1]], 1), ([[0, 2], [], [1]], 1)]),
    (F9, [[0, 1, 2, 1], [2, 0, 2], [1]],
     [([[0, 2], [1]], 1), ([[2, 1, 2], [1]], 1)]),
]


def test_factor_center_pinned_order():
    for spec, r, want in FACTOR_ORDER_PINS:
        assert factor_center(_center(spec, r)) == \
            [(_center(spec, g), m) for g, m in want]
    # a minimal polynomial has coefficients in F_p[s] (the map's entries
    # are integral over F_p[s]), so the case with denominators is built:
    # (x - 1/s)^2 * (x^2 + x/(s+1) + s) * (x - (s+2)/(s^2+1)) over F_3
    r = (_center(F3, [([2], [0, 1]), [1]]) ** 2
         * _center(F3, [[0, 1], ([1], [1, 1]), [1]])
         * _center(F3, [([1, 2], [1, 0, 1]), [1]]))
    assert factor_center(r) == [
        (_center(F3, [([1, 2], [1, 0, 1]), [1]]), 1),
        (_center(F3, [([2], [0, 1]), [1]]), 2),
        (_center(F3, [[0, 1], ([1], [1, 1]), [1]]), 1)]


def test_specialization_search_gives_up_past_degree_8():
    # x^2 + s^2 = (x + s)^2: its image at every a in F_2, F_4, ..., F_256
    # is the square (x + a)^2
    s = CPoly.s(F2)
    with pytest.raises(split.CapacityError,
                       match="no squarefree specialization found up to "
                             "degree 8"):
        split._find_good_specialization(
            [s * s, CPoly.zero(F2), CPoly.one(F2)], F2)


def test_classify_factor():
    x, s, one = x_s_one(F2)
    c = classify_factor(x - CenterPoly(F2, [s]))
    assert c.is_frobenius() and c.n == 1 and c.j == 1
    c = classify_factor(x ** 2 - CenterPoly(F2, [s]))
    assert c.is_frobenius() and c.n == 2 and c.j == 1
    c = classify_factor(x - CenterPoly(F2, [s + RatFun.one(F2)]))
    assert c.kind == FactorClassification.INDEPENDENT
    c = classify_factor(x - one)
    assert c.is_frobenius() and c.n == 1 and c.j == 0
    # 1/s eigenvalue: negative monomial exponent is not a Frobenius power
    c = classify_factor(x - CenterPoly(F2, [RatFun(CPoly.one(F2),
                                                   CPoly.s(F2))]))
    assert c.kind == FactorClassification.INDEPENDENT
    # root-of-unity coefficient over F_3: (2s)^2 = s^2
    x3, s3, _ = x_s_one(F3)
    c = classify_factor(x3 - CenterPoly(F3, [s3 * RatFun.from_int(F3, 2)]))
    assert c.is_frobenius() and c.n == 2 and c.j == 2


def test_classify_factor_of_g_f_over_f4_is_exact():
    # (g*F)^2 = g^3 * F^2 = s: the root u of x^2 - s has u^2 = s, n = 2
    A = SkewMatrix.from_ore(F4, [[parse_ore("[0,1]*F", F4)]])
    g = min_poly_center(A)
    c = classify_factor(g)
    assert c.is_frobenius() and (c.n, c.j) == (2, 1)


def test_classify_factor_pinned_answers():
    x, s, _ = x_s_one(F3)
    c = classify_factor(x ** 9 + CenterPoly(F3, [s]))
    assert c.is_frobenius() and (c.n, c.j) == (18, 2)
    x, s, one = x_s_one(F2)
    c = classify_factor(x ** 6 + x + one)
    assert c.is_frobenius() and (c.n, c.j) == (63, 0)
    # a root of y^7 + y + 1 has order 127; a root u of x^11 + s has u^11 = s
    c = classify_factor(x ** 7 + x + one)
    assert c.is_frobenius() and (c.n, c.j) == (127, 0)
    c = classify_factor(x ** 11 + CenterPoly(F2, [s]))
    assert c.is_frobenius() and (c.n, c.j) == (11, 1)
    # x^3 / s is not a root of unity: no power of a root is a power of s
    c = classify_factor(x ** 3 + x + CenterPoly(F2, [s]))
    assert c.kind == FactorClassification.INDEPENDENT


def test_jordan_form_central():
    # B^(p^a) is the scalar s^(k*p^a) on each generalized eigenspace:
    # a = 0 for distinct simple eigenvalues, then 1 and 2 for Jordan
    # blocks of sizes 2 and 3 over F_2, and 1 for size 3 over F_3
    sr = RatFun.s(F2)
    D = SkewMatrix(F2, [[SkewElem.from_ratfun(sr), SkewElem.zero(F2)],
                        [SkewElem.zero(F2),
                         SkewElem.from_ratfun(sr * sr)]])
    a, cols, blocks = jordan_form_central(D, _eigen_bounds(D), 2)
    assert (a, blocks) == (0, [(1, 1), (2, 1)])
    assert cols == [[SkewElem.one(F2), SkewElem.zero(F2)],
                    [SkewElem.zero(F2), SkewElem.one(F2)]]
    for spec, size, a_want in ((F2, 2, 1), (F2, 3, 2), (F3, 3, 1)):
        J = _jordan_matrix(spec, [(1, size)])
        a, cols, blocks = jordan_form_central(J, _eigen_bounds(J), size)
        q = spec.p ** a
        assert (a, blocks) == (a_want, [(q, size)])
        Jq = J ** q
        sq = SkewElem.from_ratfun(RatFun.s(spec) ** q)
        for v in cols:
            assert [sum((Jq.entries[i][t] * v[t] for t in range(size)),
                        SkewElem.zero(spec)) for i in range(size)] == \
                [sq * e for e in v]


def test_jordan_form_central_takes_known_factors():
    # the result does not depend on the order of the eigenvalues and
    # agrees with the greedy Jordan chains; only the given eigenvalues'
    # eigenspaces are returned; a comes from the kernels, not from the
    # bounds, and kernels that stay short of dim are a self-check failure
    for blocks in ([(1, 2)], [(1, 1), (2, 2)]):
        A0 = _jordan_matrix(F2, blocks)
        eigen = _eigen_bounds(A0)
        dim = A0.rows
        got = jordan_form_central(A0, eigen, dim)
        assert got == jordan_form_central(A0, eigen[::-1], dim)
        q = 2 ** got[0]
        factors = factor_center(min_poly_center(A0))
        assert got[2] == [(k * q, m) for k, m in _greedy_jordan(A0, factors)]
    A0 = _jordan_matrix(F2, [(1, 1), (2, 2)])
    e1 = [[SkewElem.one(F2), SkewElem.zero(F2), SkewElem.zero(F2)]]
    assert jordan_form_central(A0, [(1, 1)], 1) == (0, e1, [(1, 1)])
    assert jordan_form_central(A0, [(1, 4)], 1) == (0, e1, [(1, 1)])
    a, cols, blocks = jordan_form_central(A0, [(2, 2)], 2)
    assert (a, blocks, len(cols)) == (1, [(4, 2)], 2)
    with pytest.raises(split.SplitSelfCheckError,
                       match="kernels do not span"):
        jordan_form_central(A0, [(2, 1)], 2)


def _eigen_bounds(A):
    """The (k, e_k) pairs of the factors (x - s^k)^(e_k) of A's central
    minimal polynomial."""
    return [(split._monomial_of(-g.coeff(0))[1], e)
            for g, e in factor_center(min_poly_center(A))]


def _greedy_jordan(A0, factors):
    """Reference Jordan chains: each candidate of ker M^j heads a chain
    when it raises the column rank of the base, one elimination per
    candidate.  Returns the (exponent k, chain length) pairs."""
    spec, n = A0.spec, A0.rows

    def col_rank(vecs):
        return len(rref([[v[i] for v in vecs] for i in range(n)],
                        len(vecs))[1])

    eigen = sorted((split._monomial_of(-g.coeff(0))[1], -g.coeff(0), e)
                   for g, e in factors)
    blocks = []
    for k, root, e in eigen:
        M = A0 - SkewMatrix(spec, [[SkewElem.from_ratfun(root) if i == j
                                    else SkewElem.zero(spec)
                                    for j in range(n)] for i in range(n)])
        kernels, Mp = [[]], SkewMatrix.identity(spec, n)
        for _ in range(e):
            Mp = Mp * M
            kernels.append(split.right_kernel(Mp))
        chains = []
        for j in range(e, 0, -1):
            base = list(kernels[j - 1]) + [c[len(c) - j] for c in chains
                                           if len(c) >= j]
            rank0 = col_rank(base)
            for v in kernels[j]:
                if col_rank(base + [v]) > rank0:
                    chain = [v]
                    for _ in range(j - 1):
                        chain.append([sum((M.entries[i][t] * chain[-1][t]
                                           for t in range(n)),
                                          SkewElem.zero(spec))
                                      for i in range(n)])
                    chains.append(chain)
                    base.append(v)
                    rank0 += 1
        blocks.extend((k, len(chain)) for chain in chains)
    return blocks


def _jordan_matrix(spec, blocks):
    n = sum(m for _, m in blocks)
    ent = [[SkewElem.zero(spec)] * n for _ in range(n)]
    i = 0
    for k, m in blocks:
        sk = SkewElem.from_ratfun(RatFun.s(spec) ** k)
        for t in range(m):
            ent[i + t][i + t] = sk
            if t + 1 < m:
                ent[i + t][i + t + 1] = SkewElem.one(spec)
        i += m
    return SkewMatrix(spec, ent)


F9 = FieldSpec.get(3, 2)


@st.composite
def _jordan_blocks(draw):
    """Jordan blocks (exponent k, size) of total size 2 to 4, sizes up to
    3, with repeated eigenvalues likely."""
    blocks = [(draw(st.integers(0, 2)), draw(st.integers(1, 3)))]
    while sum(m for _, m in blocks) < 2 or (
            sum(m for _, m in blocks) < 4 and draw(st.booleans())):
        blocks.append((draw(st.integers(0, 2)),
                       draw(st.integers(1, 4 - sum(m for _, m in blocks)))))
    return blocks


@pytest.mark.parametrize("spec", [F2, F3, F4, F9],
                         ids=["F2", "F3", "F4", "F9"])
@settings(max_examples=25, deadline=None)
@given(blocks=_jordan_blocks(), rng=st.randoms(use_true_random=False))
def test_jordan_form_central_matches_greedy_reference(spec, blocks, rng):
    # a unimodular conjugate of J (+) (1 + F^ell): a mixed split whose
    # Frobenius part needs a > 0 when a block is larger than 1
    J = _jordan_matrix(spec, blocks)
    indep = SkewElem.from_ore(parse_ore("1 + F^%d" % spec.ell, spec))
    D = J.direct_sum(SkewMatrix(spec, [[indep]]))
    G, Ginv = _unimodular(spec, D.rows, rng)
    A = G * D * Ginv
    sp = split_endomorphism(A)
    a = 0
    while spec.p ** a < max(m for _, m in blocks):
        a += 1
    q = spec.p ** a
    assert (sp.a, sp.n, sp.N1) == (a, q, 1)
    # the per-eigenvalue dimensions of the greedy Jordan basis
    factors = [(CenterPoly.x_minus(RatFun.s(spec) ** k),
                max(m for kk, m in blocks if kk == k))
               for k in sorted({k for k, _ in blocks})]
    chains = _greedy_jordan(A, factors)
    assert sorted(chains) == sorted(blocks)
    dims = {}
    for k, m in chains:
        dims[k * q] = dims.get(k * q, 0) + m
    assert sp.blocks == sorted(dims.items())
    diag = [k for k, m in sp.blocks for _ in range(m)]
    A0 = SkewMatrix(spec, [[SkewElem.F(spec, diag[i] * spec.ell) if i == j
                            else SkewElem.zero(spec)
                            for j in range(len(diag))]
                           for i in range(len(diag))])
    assert sp.P * A ** q * sp.P_inv == A0.direct_sum(sp.A1)


def test_split_factors_each_minimal_polynomial_once(monkeypatch):
    # one front-end round: B = A^n takes its eigenvalues from A's own
    # factors, so F over F_4 (n = 2) computes and factors one minimal
    # polynomial, A's, and never A^2's
    calls = {"factor_center": [], "min_poly_center": []}
    for name in calls:
        real = getattr(split, name)
        monkeypatch.setattr(split, name, lambda r, real=real, name=name:
                            calls[name].append(r) or real(r))
    sp = split_endomorphism([[OrePoly.F(F4)]])
    assert sp.n == 2 and sp.blocks == [(1, 1)]
    assert [len(c) for c in calls.values()] == [1, 1]
    assert calls["min_poly_center"][0] == SkewMatrix.from_ore(
        F4, [[OrePoly.F(F4)]])


def test_power_up():
    # the power-up exponent a is the least with p^a >= the largest Jordan
    # block, and each eigenvalue s^k becomes s^(k*p^a)
    for spec, blocks, want in (
            (F2, [(1, 1), (2, 1)], (0, [(1, 1), (2, 1)])),
            (F2, [(1, 2)], (1, [(2, 2)])),
            (F2, [(1, 3)], (2, [(4, 3)])),
            (F2, [(1, 1), (2, 3)], (2, [(4, 1), (8, 3)])),
            (F3, [(1, 2), (1, 1)], (1, [(3, 3)])),
            (F3, [(1, 4)], (2, [(9, 4)]))):
        J = _jordan_matrix(spec, blocks)
        a, _, got = jordan_form_central(J, _eigen_bounds(J), J.rows)
        assert (a, got) == want


def test_split_pure_frobenius():
    sp = split_endomorphism([[OrePoly.F(F4)]])
    assert sp.blocks == [(1, 1)]
    assert sp.N1 == 0 and sp.N0 == 1
    assert sp.n == 2  # A^2 = F^2 = s


def test_split_mixed_over_F4():
    A = [[parse_ore("F^2", F4), OrePoly.zero(F4)],
         [OrePoly.zero(F4), parse_ore("F^2 + 1", F4)]]
    sp = split_endomorphism(A)
    assert sp.blocks == [(1, 1)]
    assert sp.N1 == 1 and sp.r1.degree == 1 and sp.n == 1


def test_split_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        split_endomorphism([[OrePoly.zero(F4)]])


def _unimodular(spec, n, rng, steps=4):
    M = SkewMatrix.identity(spec, n)
    Minv = SkewMatrix.identity(spec, n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        P = OrePoly(spec, [spec.random_element(rng)
                           for _ in range(rng.randrange(2) + 1)])
        ent = [list(r) for r in SkewMatrix.identity(spec, n).entries]
        ent[i][j] = SkewElem.from_ore(P)
        E = SkewMatrix(spec, ent)
        ent2 = [list(r) for r in SkewMatrix.identity(spec, n).entries]
        ent2[i][j] = -SkewElem.from_ore(P)
        M = M * E
        Minv = SkewMatrix(spec, ent2) * Minv
    return M, Minv


def test_split_conjugation_invariance():
    A = [[parse_ore("F^2", F4), OrePoly.zero(F4)],
         [OrePoly.zero(F4), parse_ore("F^2 + 1", F4)]]
    sp = split_endomorphism(A)
    D = SkewMatrix.from_ore(F4, A)
    rng = random.Random(42)
    for _ in range(3):
        G, Ginv = _unimodular(F4, 2, rng)
        sp2 = split_endomorphism(G * D * Ginv)
        assert sp2.blocks == sp.blocks
        assert sp2.r0 == sp.r0 and sp2.r1 == sp.r1


def test_split_identity_and_repeated_frobenius():
    sp = split_endomorphism([[OrePoly.one(F2)]])
    assert sp.blocks == [(0, 1)]
    sp = split_endomorphism([[OrePoly.F(F2), OrePoly.zero(F2)],
                             [OrePoly.zero(F2), OrePoly.F(F2)]])
    assert sp.blocks == [(1, 2)] and sp.n == 1


def test_split_pure_independent():
    sp = split_endomorphism([[parse_ore("F + 1", F2)]])
    assert sp.blocks == [] and sp.N1 == 1
    assert sp.r1 == CenterPoly.x(F2) - \
        CenterPoly(F2, [RatFun.s(F2) + RatFun.one(F2)])


def test_split_jordan_block_powers_up():
    sp = split_endomorphism([[OrePoly.F(F2), OrePoly.one(F2)],
                             [OrePoly.zero(F2), OrePoly.F(F2)]])
    assert sp.a == 1 and sp.n == 2
    assert sp.blocks == [(2, 2)]


def test_split_exact_block_diagonal_identity():
    entries = [[OrePoly.F(F2), OrePoly.zero(F2)],
               [OrePoly.zero(F2), parse_ore("F+1", F2)]]
    sp = split_endomorphism(entries)
    assert sp.blocks == [(1, 1)] and sp.N1 == 1
    A = SkewMatrix.from_ore(F2, entries)
    lhs = sp.P * A ** sp.n * sp.P_inv
    assert lhs.entries[0][0] == sp.A0.entries[0][0]
    assert lhs.entries[1][1] == sp.A1.entries[0][0]
    assert lhs.entries[0][1].is_zero() and lhs.entries[1][0].is_zero()
    assert sp.r0.gcd(sp.r1).degree == 0


def _problem(p, rows, d=1):
    n = len(rows)
    entries = "".join("entry_%d_%d = %s\n" % (i + 1, j + 1, e)
                      for i, row in enumerate(rows) for j, e in enumerate(row))
    return ("[field]\np = %d\nell = 1\n\n[map]\nn = %d\n%s\n"
            "[question]\nd = %d\n" % (p, n, entries, d))


@pytest.mark.parametrize("p, rows, a", [
    (2, [["F", "1"], ["0", "F"]], 1),
    (3, [["F", "1"], ["0", "F"]], 1),
    (2, [["F", "1", "0"], ["0", "F", "1"], ["0", "0", "F"]], 2),
], ids=["F2-J2", "F3-J2", "F2-J3"])
def test_jordan_blocks_classify_and_verify(tmp_path, capsys, p, rows, a):
    prob = tmp_path / "p.txt"
    prob.write_text(_problem(p, rows))
    cert = tmp_path / "c.txt"
    assert main(["tools", "split", str(prob)]) == 0
    assert "a = %d\n" % a in capsys.readouterr().out
    assert main(["classify", str(prob), "--out", str(cert)]) == 0
    assert main(["verify", str(cert), str(prob)]) == 0
    assert capsys.readouterr().err == ""


def test_power_up_that_does_not_settle_is_a_self_check_failure(
        tmp_path, capsys, monkeypatch):
    real = split.classify_factor

    def always_two(g):
        cls = real(g)
        if not cls.is_frobenius():
            return cls
        return FactorClassification(g, FactorClassification.FROBENIUS,
                                    n=2, j=cls.j)

    # forced n = 2 on F over F_2: B = F^2 = s^2 has no eigenvector for
    # the claimed eigenvalue s^1, whose bound 1 stops the search at a = 0
    monkeypatch.setattr(split, "classify_factor", always_two)
    with pytest.raises(split.SplitSelfCheckError,
                       match="kernels do not span"):
        split_endomorphism([[OrePoly.F(F2)]])
    prob = tmp_path / "p.txt"
    prob.write_text(_problem(2, [["F"]]))
    cert = tmp_path / "c.txt"
    assert main(["classify", str(prob), "--out", str(cert)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: split self-check failed: ")
    assert err.count("\n") == 1
    assert not cert.exists()


def test_wrong_root_order_fails_the_defining_identity(monkeypatch):
    # [[0, 1], [1, 1]] over F_2 has minimal polynomial x^2 + x + 1, whose
    # roots have order 3: with the order forced to 1, x^1 is not s^0
    # modulo that polynomial
    monkeypatch.setattr(split, "_order_of_root", lambda f: 1)
    with pytest.raises(split.SplitSelfCheckError,
                       match="to the power 1 are not s\\^0"):
        split_endomorphism([[OrePoly.zero(F2), OrePoly.one(F2)],
                            [OrePoly.one(F2), OrePoly.one(F2)]])


def test_wrong_r1_of_the_powered_map_is_a_self_check_failure(monkeypatch):
    # diag(F, 1 + F) over F_2 has r = (x - s)(x - s - 1); an r1 of x - 1
    # for A1 = 1 + F is coprime to r0 = x - s, but r does not divide
    # r0*r1
    real = split.min_poly_center
    monkeypatch.setattr(split, "min_poly_center", lambda A: real(A) if
                        A.rows == 2 else CenterPoly.x_minus(RatFun.one(F2)))
    with pytest.raises(split.SplitSelfCheckError, match="not r0\\*r1"):
        split_endomorphism([[OrePoly.F(F2), OrePoly.zero(F2)],
                            [OrePoly.zero(F2), parse_ore("F+1", F2)]])


def _cert(body, split_lines, digest):
    return ("[certificate]\n%s\n[split]\n%sh = [1]\n%s\n[meta]\n"
            "version = 0.1.0\ndigest = %s\n" % (body, split_lines[0],
                                                split_lines[1], digest))


def _t_identity(n):
    return "".join("t_%d_%d = %d\n" % (i, j, int(i == j))
                   for i in range(1, n + 1) for j in range(1, n + 1))


# Shapes that no bench problem has, with certificates and split lines
# captured from the split that re-factored B = A^n:
# - e_k below the multiplicity m of A's factor: n = 2 for the swap
#   [[0,F],[1,0]], and the Jordan block of F over F_2 (m = 2) squares to
#   the scalar s^2, so a = 0;
# - two factors of A sharing one k: x - s and x - 2s over F_3 both give
#   s^2 in A^2;
# - a shared k with a > 0;
# - a k shared by factors of two degrees, the larger multiplicity first:
#   (x - s)^2 and x^2 + s^2 over F_3 both give s^4 in A^4.
OFF_BENCH = [
    (2, [["F", "1", "0", "0"], ["0", "F", "0", "0"],
         ["0", "0", "0", "F"], ["0", "0", "1", "0"]], 2,
     ("n = 2\na = 0\nblocks = (1,2) ; (2,2)\n",
      "r0 = (s^3) + (s + s^2)*x + x^2\nr1 = (1)\n"),
     "kind = A\napplicable = A\nnvars = 2\nalpha_1 = t1\nalpha_2 = t2\n"
     "alpha_3 = t1\nalpha_4 = t2\ndensity_m = 20\ndensity_d = 2\n"
     "outcome = dense-up-to-D\n",
     "132227cb208717a6fa25ce78304e60c4e664f31f91419347e938041b2936791a"),
    (3, [["F", "0"], ["0", "2*F"]], 1,
     ("n = 2\na = 0\nblocks = (2,2)\n", "r0 = (2*s^2) + x\nr1 = (1)\n"),
     "kind = C\napplicable = C\nm = 2\nr = 2\n" + _t_identity(2),
     "ba93c9b02ecc84357016f890bb486797da0e6e0dd8c6a133ad52d6b8486b41d2"),
    (3, [["F", "1", "0"], ["0", "F", "0"], ["0", "0", "2*F"]], 1,
     ("n = 6\na = 1\nblocks = (6,3)\n", "r0 = (2*s^6) + x\nr1 = (1)\n"),
     "kind = C\napplicable = C\nm = 6\nr = 6\n" + _t_identity(3),
     "c15f21822ae9537a341d4d0e2ada0c5c9fef49080d5c0ef93a9099b7cae29a00"),
    (3, [["F", "1", "0", "0"], ["0", "F", "0", "0"],
         ["0", "0", "0", "2*F^2"], ["0", "0", "1", "0"]], 1,
     ("n = 12\na = 1\nblocks = (12,4)\n",
      "r0 = (2*s^12) + x\nr1 = (1)\n"),
     "kind = C\napplicable = C\nm = 12\nr = 12\n" + _t_identity(4),
     "ccd61bfc060e3ba3e02d8f43da9b8551edbe6290507822d291bff415b8d6f973"),
]


@pytest.mark.parametrize("p, rows, d, split_lines, body, digest", OFF_BENCH,
                         ids=["F2-e-below-m", "F3-shared-k",
                              "F3-shared-k-a1", "F3-shared-k-two-degrees"])
def test_off_bench_splits_are_pinned(tmp_path, capsys, p, rows, d,
                                     split_lines, body, digest):
    prob = tmp_path / "p.txt"
    prob.write_text(_problem(p, rows, d))
    cert = tmp_path / "c.txt"
    assert main(["tools", "split", str(prob)]) == 0
    assert capsys.readouterr().out.startswith("".join(split_lines))
    assert main(["classify", str(prob), "--out", str(cert)]) == 0
    assert cert.read_bytes() == _cert(body, split_lines, digest).encode()
    assert main(["verify", str(cert), str(prob)]) == 0
    assert capsys.readouterr().err == ""


# diag(aF^2, bF^3, 1 + cF^4) over F_8 with (a, b, c) the first three draws
# of gen.GF.rand from random.Random(1), conjugated by perfbench's
# gen.conjugate(F, diag, rng, [(0, 1), (1, 2)], max_deg=1) with the same
# rng: the slow instance of a mixed split with n = 21
F8_SLOW = """\
[field]
p = 2
ell = 3
modulus = [1,1,0,1]

[map]
n = 3
entry_1_1 = [0,0,1]*F^2
entry_1_2 = [1,0,1]*F^2 + [0,1,1]*F^3 + [0,1,1]*F^4
entry_1_3 = [0,1,1]*F^2 + [0,1,0]*F^3 + [0,0,1]*F^4 + [1,0,1]*F^5
entry_2_1 = 0
entry_2_2 = [0,1,1]*F^3
entry_2_3 = [1,1,0] + [0,1,0]*F + [1,0,0]*F^3 + [0,1,0]*F^4 + [1,0,0]*F^5
entry_3_1 = 0
entry_3_2 = 0
entry_3_3 = [1,0,0] + [1,1,0]*F^4

[question]
d = 1
density_m = 20
density_d = 2
"""

F8_SLOW_CERTIFICATE = (
    "[certificate]\n"
    "kind = A\n"
    "applicable = A\n"
    "nvars = 1\n"
    "alpha_1 = [1,1,0]*t1^2 + [1,1,0]*t1\n"
    "alpha_2 = (t1^4 + t1^3 + [0,1,0]*t1^2 + [1,1,0]*t1 + [1,0,0]) / "
    "(t1^3 + t1^2 + t1 + [1,0,0])\n"
    "alpha_3 = ([1,0,0]) / (t1 + [1,0,0])\n"
    "density_m = 20\n"
    "density_d = 2\n"
    "outcome = dense-up-to-D\n"
    "\n"
    "[split]\n"
    "n = 21\n"
    "a = 0\n"
    "blocks = (14,1) ; (21,1)\n"
    "h = [1]\n"
    "r0 = (s^35) + (s^14 + s^21)*x + x^2\n"
    "r1 = ([1,0,0] + s^4 + s^16 + s^20 + s^64 + s^68 + s^80 + s^84) + "
    "([1,0,0] + s^8 + s^12 + s^24 + s^28 + s^32 + s^44 + s^48 + s^56)*x "
    "+ ([1,0,0] + s^28)*x^2 + x^3\n"
    "\n"
    "[meta]\n"
    "version = 0.1.0\n"
    "digest = d456e2b4331eecdd12ebfe564718582dd6bef7660dfe5739c76d2734964cef7d"
    "\n")


def test_f8_slow_tail_certificate_is_pinned(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text(F8_SLOW)
    cert = tmp_path / "c.txt"
    assert main(["classify", str(prob), "--out", str(cert)]) == 0
    assert cert.read_bytes() == F8_SLOW_CERTIFICATE.encode()
    assert main(["verify", str(cert), str(prob)]) == 0
    assert capsys.readouterr().err == ""
