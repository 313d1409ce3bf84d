"""Minimal polynomials over the center: `min_poly_center` on the top row
block of tilde(A)^k against a reference that eliminates afresh at every
power, the direct `tilde` against the products F^i * a in K it replaced,
and the split pipeline's reuse of the minimal polynomials it already
holds."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frobsplit import split
from frobsplit.cli import main
from frobsplit.fields import CPoly, FieldSpec, RatFun, kernel_basis
from frobsplit.ore import OrePoly, parse_ore
from frobsplit.skew import (CenterPoly, SkewElem, SkewMatrix, min_poly_center,
                            tilde)
from ratmat import prime_coords


def reference_min_poly(A):
    """The first relation among I, A, A^2, ... from `kernel_basis` on the
    coordinate columns of all powers so far, rebuilt at every power."""
    spec = A.spec
    n = A.rows

    def vec(M):
        return [c for row in M.entries for e in row for part in e.parts
                for c in prime_coords(part)]

    vecs = [vec(SkewMatrix.identity(spec, n))]
    B = SkewMatrix.identity(spec, n)
    for k in range(1, n * spec.ell + 1):
        B = B * A
        vk = vec(B)
        matrix = [[vecs[j][i] for j in range(k)] + [vk[i]]
                  for i in range(len(vk))]
        for w in kernel_basis(matrix):
            if not w[k].is_zero():
                inv = w[k].inverse()
                return CenterPoly(spec, [w[i] * inv for i in range(k)]
                                  + [RatFun.one(spec)])
        vecs.append(vk)
    raise AssertionError("no relation below the Cayley-Hamilton bound")


CASES = [(p, ell, N) for p in (2, 3) for ell in (1, 2, 3)
         for N in (1, 2, 3, 4)]

# the largest N * ell, by p and mode, at which the reference takes about
# a second or less: central denominators make its RatFun elimination costlier
REFERENCE_CAP = {2: (12, 8, 4), 3: (9, 6, 4)}


def _ore(spec, rng, maxdeg=1):
    return OrePoly(spec, [spec.random_element(rng)
                          for _ in range(rng.randrange(maxdeg + 1) + 1)])


def _central_fraction(spec, rng):
    """1 / (s + a) or s / (s^2 + a) for a random nonzero a in F_p."""
    a = spec.from_int(rng.randrange(1, spec.p))
    if rng.randrange(2):
        return RatFun(CPoly.one(spec), CPoly(spec, (a, spec.one())))
    return RatFun(CPoly.s(spec), CPoly(spec, (a, spec.zero(), spec.one())))


def _elementary(spec, N, i, j, x):
    rows = [list(r) for r in SkewMatrix.identity(spec, N).entries]
    rows[i][j] = x
    return SkewMatrix(spec, rows)


def build_matrix(case, seed, mode):
    """mode 0: Ore entries; 1: a conjugate G*D*G^-1 by elementary G whose
    off-diagonal entry has a central denominator; 2: entries with their
    own central denominators."""
    p, ell, N = case
    spec = FieldSpec.get(p, ell)
    rng = random.Random(seed)
    A = SkewMatrix.from_ore(spec, [[_ore(spec, rng) for _ in range(N)]
                                   for _ in range(N)])
    if mode == 1 and N > 1:
        i, j = rng.sample(range(N), 2)
        x = SkewElem.F(spec, rng.randrange(2)).scale_central(
            _central_fraction(spec, rng))
        A = _elementary(spec, N, i, j, x) * A * _elementary(spec, N, i, j, -x)
    elif mode == 2:
        A = SkewMatrix(spec, [[e.scale_central(_central_fraction(spec, rng))
                               if rng.randrange(2) else e for e in row]
                              for row in A.entries])
    return A


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(CASES), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0, 1, 2]))
# a content of the top row block taken over F_q, not F_p, is no F_p(s)
# scalar and puts the coefficients outside F_p(s): (2, 2, 2), 53, mode 2
# fails that way; (3, 2, 1), 1_000_528_354, mode 2 did in an earlier
# form of the routine
@example((3, 2, 1), 1_000_528_354, 2)
@example((2, 2, 2), 53, 2)
def test_min_poly_center_matches_reference(case, seed, mode):
    assume(case[1] * case[2] <= REFERENCE_CAP[case[0]][mode])
    A = build_matrix(case, seed, mode)
    Q = min_poly_center(A)
    assert Q == reference_min_poly(A)
    assert Q.leading().is_one() and Q.in_prime_field()
    assert Q.evaluate_matrix(A).is_zero()


def reference_tilde(A):
    """tilde(A) from the products F^i * A[m][c] in K: row i*n + m holds
    the parts of F^i times row m."""
    spec, n, ell = A.spec, A.rows, A.spec.ell
    out = [[None] * (n * ell) for _ in range(n * ell)]
    for i in range(ell):
        Fi = SkewElem.F(spec, i)
        for m in range(n):
            for c in range(n):
                prod = Fi * A.entries[m][c]
                for j in range(ell):
                    out[i * n + m][j * n + c] = prod.parts[j]
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(p, ell, N) for p in (2, 3) for ell in (1, 2, 3)
                        for N in (1, 2, 3)]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1, 2]))
def test_tilde_matches_products_in_K(case, seed, mode):
    A = build_matrix(case, seed, mode)
    assert tilde(A) == reference_tilde(A)


def test_non_polynomial_entries_are_covered():
    """The generator really yields entries outside F_q[s] in modes 1, 2,
    and their tilde has central denominators."""
    for mode in (1, 2):
        A = build_matrix((3, 2, 2), 7, mode)
        assert any(not part.is_polynomial() for row in A.entries
                   for e in row for part in e.parts)
        assert any(not e.is_polynomial() for row in tilde(A) for e in row)


# ---------------------------------------------------------------------------
# one minimal polynomial per matrix in split_endomorphism

FIXTURES = ["1", "F ; 0 ; 0 ; F", "1 + F", "F"]  # criterion 6, row-major


def _map(spec, text):
    entries = [parse_ore(t.strip(), spec) for t in text.split(";")]
    N = int(len(entries) ** 0.5)
    return SkewMatrix.from_ore(spec, [entries[i * N:(i + 1) * N]
                                      for i in range(N)])


def _split_inputs():
    F2 = FieldSpec.get(2, 1)
    F4 = FieldSpec.get(2, 2)
    F3 = FieldSpec.get(3, 1)
    out = [_map(F2, text) for text in FIXTURES]
    rng = random.Random(11)
    for spec, diag in ((F2, "F ; 0 ; 0 ; F + 1"), (F4, "F^2 ; 0 ; 0 ; 1"),
                       (F3, "F ; 0 ; 0 ; 2*F"), (F2, "1 ; 1 ; 0 ; 1")):
        D = _map(spec, diag)
        x = SkewElem.from_ore(_ore(spec, rng))
        G, Ginv = _elementary(spec, 2, 0, 1, x), _elementary(spec, 2, 0, 1, -x)
        out.append(G * D * Ginv)
    return out


def test_split_never_recomputes_a_minimal_polynomial(monkeypatch):
    seen = []
    real = split.min_poly_center

    def recording(M):
        seen.append(M)
        return real(M)

    monkeypatch.setattr(split, "min_poly_center", recording)
    for A in _split_inputs():
        del seen[:]
        data = split.split_endomorphism(A)
        assert len(set(seen)) == len(seen), A
        if data.n == 1 and data.a == 0:
            assert len(seen) <= 2


def test_split_self_check_failure_raises_and_exits_4(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(split, "_direct_sum_check", lambda *args: False)
    with pytest.raises(split.SplitSelfCheckError,
                       match="block-diagonal identity failed"):
        split.split_endomorphism(_map(FieldSpec.get(2, 1), "F ; 0 ; 0 ; F"))
    prob = tmp_path / "p.txt"
    prob.write_text("[field]\np = 2\nell = 1\n\n[map]\nn = 1\n"
                    "entry_1_1 = 1\n\n[question]\nd = 1\n")
    cert = tmp_path / "c.txt"
    assert main(["classify", str(prob), "--out", str(cert)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("error: split self-check failed: "
                            "block-diagonal identity failed\n")
    assert not cert.exists()
