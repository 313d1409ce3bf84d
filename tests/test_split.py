"""Center factorization, eigenvalue classification, Jordan form over
the center, and the full splitting of a dominant endomorphism."""

import random

import pytest

from frobsplit import split
from frobsplit.cli import main
from frobsplit.fields import CPoly, FieldSpec, RatFun, rref
from frobsplit.ore import OrePoly, parse_ore
from frobsplit.skew import CenterPoly, SkewElem, SkewMatrix, min_poly_center
from frobsplit.split import (FactorClassification, NonDominantError,
                             classify_factor, factor_center,
                             jordan_form_central, power_up,
                             split_endomorphism)

F2 = FieldSpec.get(2, 1)
F3 = FieldSpec.get(3, 1)
F4 = FieldSpec.get(2, 2)


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
    sr = RatFun.s(F2)
    A0 = SkewMatrix(F2, [[SkewElem.from_ratfun(sr), SkewElem.one(F2)],
                         [SkewElem.zero(F2), SkewElem.from_ratfun(sr)]])
    Pj, Pj_inv, blocks = jordan_form_central(
        A0, factor_center(min_poly_center(A0)))
    assert blocks == [(1, 2)]
    J = Pj_inv * A0 * Pj
    assert J.entries[0][0] == SkewElem.from_ratfun(sr)
    assert J.entries[0][1].is_one()
    assert J.entries[1][0].is_zero()
    D = SkewMatrix(F2, [[SkewElem.from_ratfun(sr), SkewElem.zero(F2)],
                        [SkewElem.zero(F2),
                         SkewElem.from_ratfun(sr * sr)]])
    _, _, blocks = jordan_form_central(D, factor_center(min_poly_center(D)))
    assert sorted(blocks) == [(1, 1), (2, 1)]


def test_jordan_form_central_takes_known_factors():
    sr = RatFun.s(F2)
    z, o = SkewElem.zero(F2), SkewElem.one(F2)
    s1, s2 = SkewElem.from_ratfun(sr), SkewElem.from_ratfun(sr * sr)
    for A0 in (SkewMatrix(F2, [[s1, o], [z, s1]]),
               SkewMatrix(F2, [[s1, z, z], [z, s2, o], [z, z, s2]])):
        factors = factor_center(min_poly_center(A0))
        expected = _greedy_jordan(A0, factors)
        assert jordan_form_central(A0, factors) == expected
        assert jordan_form_central(A0, factors[::-1]) == expected


def _greedy_jordan(A0, factors):
    """Reference Jordan basis: each candidate of ker M^j is kept when it
    raises the column rank of the base, one elimination per candidate."""
    spec, n = A0.spec, A0.rows

    def col_rank(vecs):
        return len(rref([[v[i] for v in vecs] for i in range(n)],
                        len(vecs))[1])

    eigen = sorted((split._monomial_of(-g.coeff(0))[1], -g.coeff(0), e)
                   for g, e in factors)
    cols, blocks = [], []
    for k, root, e in eigen:
        M = A0 - SkewMatrix.identity(spec, n).scale_central(root)
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
        for chain in chains:
            blocks.append((k, len(chain)))
            cols.extend(reversed(chain))
    Pj = SkewMatrix(spec, [[v[i] for v in cols] for i in range(n)])
    return Pj, split.matrix_inverse(Pj), blocks


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


@pytest.mark.parametrize("spec", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_jordan_form_central_matches_greedy_reference(spec):
    # one elimination per Jordan level picks exactly the chain heads of
    # the greedy rank test, on conjugates of Jordan matrices with blocks
    # up to size 3 and repeated eigenvalues
    rng = random.Random(1000 + spec.q)
    for _ in range(10):
        blocks = []
        while sum(m for _, m in blocks) < 2 or rng.random() < 0.4:
            blocks.append((rng.randrange(3), rng.randrange(1, 4)))
            if sum(m for _, m in blocks) >= 4:
                break
        J = _jordan_matrix(spec, blocks)
        G, Ginv = _unimodular(spec, J.rows, rng)
        A0 = G * J * Ginv
        factors = []
        for k in sorted({k for k, _ in blocks}):
            root = RatFun.s(spec) ** k
            e = max(m for kk, m in blocks if kk == k)
            factors.append((CenterPoly.x_minus(root), e))
        Pj, Pj_inv, got = jordan_form_central(A0, factors)
        assert (Pj, Pj_inv, got) == _greedy_jordan(A0, factors)
        assert sorted(got) == sorted(blocks)
        assert Pj_inv * A0 * Pj == _jordan_matrix(spec, got)


def test_split_factors_each_minimal_polynomial_once(monkeypatch):
    # the Jordan step reuses the power-up round's factors of r: one
    # factor_center call for A and one for A^n (F over F_4 needs n = 2)
    calls = []
    real = split.factor_center
    monkeypatch.setattr(split, "factor_center",
                        lambda r: calls.append(r) or real(r))
    sp = split_endomorphism([[OrePoly.F(F4)]])
    assert sp.n == 2 and sp.blocks == [(1, 1)]
    assert len(calls) == 2


def test_power_up():
    assert power_up(2, [(1, 1), (2, 1)]) == (0, [(1, 1), (2, 1)])
    assert power_up(2, [(1, 2)]) == (1, [(2, 2)])
    assert power_up(2, [(1, 3)]) == (2, [(4, 3)])


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


def _problem(p, rows):
    n = len(rows)
    entries = "".join("entry_%d_%d = %s\n" % (i + 1, j + 1, e)
                      for i, row in enumerate(rows) for j, e in enumerate(row))
    return ("[field]\np = %d\nell = 1\n\n[map]\nn = %d\n%s\n"
            "[question]\nd = 1\n" % (p, n, entries))


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

    monkeypatch.setattr(split, "classify_factor", always_two)
    with pytest.raises(split.SplitSelfCheckError, match="A\\^2"):
        split_endomorphism([[OrePoly.F(F2)]])
    prob = tmp_path / "p.txt"
    prob.write_text(_problem(2, [["F"]]))
    cert = tmp_path / "c.txt"
    assert main(["classify", str(prob), "--out", str(cert)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: split self-check failed: ")
    assert err.count("\n") == 1
    assert not cert.exists()
