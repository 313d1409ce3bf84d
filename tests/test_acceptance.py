"""Acceptance gate: one test per criterion, each printing a single
PASS line (run pytest with -s or read captured output).  All checks are
exact; criteria with runtime budgets assert them."""

import io
import contextlib
import random
import time

from frobsplit.fields import FieldSpec, RatFun, CPoly, mat_mul
from frobsplit.mrat import MRatFun
from frobsplit.ore import OrePoly, parse_ore
from frobsplit.skew import (CenterPoly, SkewElem, SkewMatrix,
                            central_multiplier, char_poly_tilde,
                            min_poly_center, tilde)
from frobsplit.split import split_endomorphism
from frobsplit.classify import (check_independence,
                                construct_independent_points,
                                derive_iterate_certificate,
                                verify_certificate, classify, AdditiveMap)
from frobsplit.fsets import (LambdaEqInstance, lambda_density,
                             vandermonde_check)
from frobsplit.cli import main as cli_main


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def rand_ore(spec, maxdeg, rng):
    return OrePoly(spec, [spec.random_element(rng)
                          for _ in range(rng.randrange(maxdeg + 1) + 1)])


def test_criterion_1_ore_ring_and_evaluation():
    start = time.monotonic()
    rng = random.Random(101)
    specs = [FieldSpec.get(p, ell) for p in (2, 3, 5) for ell in (1, 2, 3)]
    for i in range(1000):
        spec = specs[i % len(specs)]
        big = FieldSpec.get(spec.p, spec.ell * 2)
        P = rand_ore(spec, 6, rng)
        Q = rand_ore(spec, 6, rng)
        R = rand_ore(spec, 6, rng)
        x = big.random_element(rng)
        assert (P * Q) * R == P * (Q * R)
        assert P * (Q + R) == P * Q + P * R
        assert (P + Q) * R == P * R + Q * R
        assert (P * Q)(x) == P(Q(x))
    elapsed = time.monotonic() - start
    assert elapsed < 10, elapsed
    print("CRITERION 1 PASS: 1000 random Ore triples satisfy ring axioms "
          "and eval(P*Q, x) = eval(P, eval(Q, x)) exactly (%.1fs)" % elapsed)


def test_criterion_2_tilde_embedding():
    start = time.monotonic()
    rng = random.Random(102)
    specs = [FieldSpec.get(2, 1), FieldSpec.get(2, 2), FieldSpec.get(3, 2)]
    for i in range(500):
        spec = specs[i % len(specs)]
        n = 1 + (i % 3)
        A = SkewMatrix.from_ore(spec, [[rand_ore(spec, 2, rng)
                                        for _ in range(n)]
                                       for _ in range(n)])
        B = SkewMatrix.from_ore(spec, [[rand_ore(spec, 2, rng)
                                        for _ in range(n)]
                                       for _ in range(n)])
        assert tilde(A * B) == mat_mul(tilde(A), tilde(B))
        assert tilde(A + B) == mat_add(tilde(A), tilde(B))
        if not A.is_zero():
            assert any(not e.is_zero() for row in tilde(A) for e in row)
    elapsed = time.monotonic() - start
    assert elapsed < 30, elapsed
    print("CRITERION 2 PASS: 500 random pairs — tilde is multiplicative, "
          "additive, and injective, exactly (%.1fs)" % elapsed)


def test_criterion_3_center_and_inverses():
    rng = random.Random(103)
    specs = [FieldSpec.get(2, 2), FieldSpec.get(2, 3), FieldSpec.get(3, 2)]
    done = 0
    while done < 500:
        spec = specs[done % len(specs)]
        P = rand_ore(spec, 3, rng)
        if P.is_zero():
            continue
        Q, c = central_multiplier(P)
        parts = (Q * P).center_decompose()
        assert all(a.is_zero() for a in parts[1:])
        assert parts[0] == c and c.in_prime_field() and not c.is_zero()
        done += 1
    done = 0
    while done < 200:
        spec = specs[done % len(specs)]
        P = rand_ore(spec, 3, rng)
        if P.is_zero():
            continue
        u = SkewElem.from_ore(P)
        ui = u.inverse()
        assert (ui * u).is_one() and (u * ui).is_one()
        done += 1
    print("CRITERION 3 PASS: 500 central multipliers land in "
          "F_p[F^ell] \\ {0}; 200 skew elements have exact two-sided "
          "inverses")


def test_criterion_4_minimal_polynomials():
    rng = random.Random(104)
    for p, ell in ((2, 2), (2, 3), (3, 2)):
        spec = FieldSpec.get(p, ell)
        mp = min_poly_center(SkewMatrix.from_ore(spec, [[OrePoly.F(spec)]]))
        assert mp == CenterPoly.x(spec) ** ell - \
            CenterPoly(spec, [RatFun.s(spec)])
    done = 0
    specs = [FieldSpec.get(2, 1), FieldSpec.get(2, 2), FieldSpec.get(3, 1)]
    while done < 100:
        spec = specs[done % len(specs)]
        n = 1 + done % 2
        A = SkewMatrix.from_ore(spec, [[rand_ore(spec, 1, rng)
                                        for _ in range(n)]
                                       for _ in range(n)])
        Q = min_poly_center(A)
        assert Q.evaluate_matrix(A).is_zero()
        assert Q.in_prime_field()
        cp = char_poly_tilde(A)
        q, r = cp.divmod(Q)
        assert r.is_zero()
        done += 1
    print("CRITERION 4 PASS: min_poly_center([F]) = x^ell - s exactly; "
          "100 random maps annihilated by Q with Q | char(tilde A)")


def _unimodular(spec, n, rng, steps=3):
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
        ent2 = [list(r) for r in SkewMatrix.identity(spec, n).entries]
        ent2[i][j] = -SkewElem.from_ore(P)
        M = M * SkewMatrix(spec, ent)
        Minv = SkewMatrix(spec, ent2) * Minv
    return M, Minv


def test_criterion_5_splitting():
    start = time.monotonic()
    F2 = FieldSpec.get(2, 1)
    F4 = FieldSpec.get(2, 2)
    fixtures = [
        (F2, [[OrePoly.F(F2), OrePoly.zero(F2)],
              [OrePoly.zero(F2), parse_ore("F+1", F2)]]),
        (F4, [[parse_ore("F^2", F4), OrePoly.zero(F4)],
              [OrePoly.zero(F4), parse_ore("F^2 + 1", F4)]]),
    ]
    rng = random.Random(105)
    for trial in range(50):
        spec, base = fixtures[trial % len(fixtures)]
        D = SkewMatrix.from_ore(spec, base)
        G, Ginv = _unimodular(spec, 2, rng)
        A = G * D * Ginv
        sp = split_endomorphism(A)
        # exact block diagonality of P A^n P^-1
        lhs = sp.P * A ** sp.n * sp.P_inv
        N0 = sp.N0
        for i in range(lhs.rows):
            for j in range(lhs.cols):
                e = lhs.entries[i][j]
                if (i < N0) != (j < N0):
                    assert e.is_zero()
                elif i < N0:
                    assert e == sp.A0.entries[i][j]
                else:
                    assert e == sp.A1.entries[i - N0][j - N0]
        # gcd(r0, r1) = 1
        assert sp.r0.gcd(sp.r1).degree == 0
        # A0 is exactly diagonal F^{n_i * ell} blocks
        idx = 0
        for k, m in sp.blocks:
            for t in range(m):
                for j in range(sp.N0):
                    e = sp.A0.entries[idx][j]
                    if j == idx:
                        assert e == SkewElem.F(spec, k * spec.ell)
                    else:
                        assert e.is_zero()
                idx += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120, elapsed
    print("CRITERION 5 PASS: 50 random conjugates split into exact "
          "Frobenius-diagonal + independent blocks, gcd(r0, r1) = 1 "
          "(%.1fs)" % elapsed)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_6_trichotomy_fixtures(tmp_path):
    fixtures = [
        ("B", "[field]\np = 2\nell = 1\n\n[map]\nn = 1\nentry_1_1 = 1\n\n"
              "[question]\nd = 1\n"),
        ("C", "[field]\np = 2\nell = 1\n\n[map]\nn = 2\nentry_1_1 = F\n"
              "entry_1_2 = 0\nentry_2_1 = 0\nentry_2_2 = F\n\n"
              "[question]\nd = 1\n"),
        ("A", "[field]\np = 2\nell = 1\n\n[map]\nn = 1\n"
              "entry_1_1 = 1 + F\n\n[question]\nd = 1\ndensity_m = 25\n"
              "density_d = 3\n"),
        ("A", "[field]\np = 2\nell = 1\n\n[map]\nn = 1\nentry_1_1 = F\n\n"
              "[question]\nd = 1\n"),
    ]
    for i, (expected, text) in enumerate(fixtures):
        prob = tmp_path / ("p%d.txt" % i)
        prob.write_text(text)
        cert = tmp_path / ("c%d.txt" % i)
        code, out = _run_cli(["classify", str(prob), "--out", str(cert)])
        assert code == 0
        assert ("verdict = %s" % expected) in out
        code, out = _run_cli(["verify", str(cert), str(prob)])
        assert code == 0, out
        if i == 1:  # diag(F, F): T * A = F^1 * T
            assert "T*A^1 = F^1*T" in out
    print("CRITERION 6 PASS: identity -> B, diag(F,F) -> C with "
          "T*A = F*T, [F+1] -> A (D=3, M=25), [F] -> A; all exit 0 and "
          "re-verify from file")


def test_criterion_7_iterate_compatibility():
    F2 = FieldSpec.get(2, 1)
    emitted = []
    A1 = AdditiveMap([[OrePoly.F(F2), OrePoly.zero(F2)],
                      [OrePoly.zero(F2), OrePoly.F(F2)]])
    emitted.append((A1, classify(A1, 1).certificate))
    A2 = AdditiveMap([[OrePoly.F(F2, 2), OrePoly.zero(F2)],
                      [OrePoly.zero(F2), OrePoly.F(F2, 2)]])
    emitted.append((A2, classify(A2, 1).certificate))
    for A, cert in emitted:
        assert verify_certificate(A, cert)[0]
        derived = derive_iterate_certificate(cert, 2)
        assert derived.m == 2 * cert.m and derived.r == 2 * cert.r
        ok, reason = verify_certificate(A, derived)
        assert ok, reason
    print("CRITERION 7 PASS: every emitted certificate C verifies for "
          "the doubled iterate (2m, 2r) exactly")


def test_criterion_8_lambda_density():
    start = time.monotonic()
    F2 = FieldSpec.get(2, 1)
    t = MRatFun.var(F2, 1, 0)
    one = MRatFun.constant(F2.one(), 1)
    inst = LambdaEqInstance(t + one, [F2.one(), F2.one()])
    S, dens = lambda_density(inst, 512)
    assert S == [1] + [2 ** k for k in range(1, 10)]
    assert dens == 10 / 512
    inst2 = LambdaEqInstance(t, [F2.zero(), F2.one()])
    _, dens2 = lambda_density(inst2, 512)
    assert dens2 == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 60, elapsed
    print("CRITERION 8 PASS: solvable set for lambda = t+1 in [1,512] is "
          "exactly {1} U {2^k}, density 10/512; control lambda = t gives "
          "1.0 (%.1fs)" % elapsed)


def test_criterion_9_vandermonde():
    rng = random.Random(109)
    for trial in range(200):
        spec = FieldSpec.get(*rng.choice([(5, 1), (7, 1), (3, 2), (2, 3)]))
        r = rng.randint(1, min(4, spec.q - 1))
        pool = []
        while len(pool) < r:
            x = spec.random_element(rng)
            if x.is_zero() or any(x == y for y in pool):
                continue
            pool.append(x)
        assert vandermonde_check(pool, rng.randint(0, 6), r)
    print("CRITERION 9 PASS: 200 random distinct-nonzero tuples (r <= 4) "
          "have only the trivial kernel")


def test_criterion_10_independence():
    F2 = FieldSpec.get(2, 1)
    F3 = FieldSpec.get(3, 1)
    for spec in (F2, F3):
        gammas = construct_independent_points(3, [], spec, 1)
        ok, rel = check_independence(gammas, [], 4, 2)
        assert ok, rel
    t = MRatFun.var(F2, 1, 0)
    ok, rel = check_independence([t, t * t], [], 2, 2)
    assert not ok and rel
    labels = {(lab, i, e) for lab, i, e, c in rel}
    assert ("gamma", 0, 1) in labels and ("gamma", 1, 0) in labels
    print("CRITERION 10 PASS: constructed points pass independence at "
          "D = 4 over F_{p^2}; planted (gamma, gamma^p) detected with an "
          "explicit relation")
