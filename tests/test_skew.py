"""The skew field K = F_q[F] (x) F_p(F^ell): tilde embedding, central
multipliers, inverses, minimal polynomials, and division-ring
elimination."""

import random

from hypothesis import given, settings, strategies as st

from frobsplit.fields import CPoly, FieldSpec, RatFun, char_poly, mat_mul
from frobsplit.ore import OrePoly, parse_ore
from frobsplit.skew import (CenterPoly, SkewElem, SkewMatrix,
                            central_multiplier, char_poly_tilde,
                            companion_matrix, gauss_eliminate,
                            matrix_inverse, min_poly_center, right_kernel,
                            tilde)

F2 = FieldSpec.get(2, 1)
F4 = FieldSpec.get(2, 2)
F8 = FieldSpec.get(2, 3)


def rand_ore(spec, maxdeg, rng):
    return OrePoly(spec, [spec.random_element(rng)
                          for _ in range(rng.randrange(maxdeg + 1) + 1)])


def test_tilde_of_F_squares_to_s():
    Ft = tilde(SkewMatrix.from_ore(F4, [[OrePoly.F(F4)]]))
    Ft2 = mat_mul(Ft, Ft)
    s = RatFun.s(F4)
    assert Ft2[0][0] == s and Ft2[1][1] == s
    assert Ft2[0][1].is_zero() and Ft2[1][0].is_zero()


def test_tilde_of_constant_is_conjugate_diagonal():
    w = F4.generator()
    Wt = tilde(SkewMatrix.from_ore(F4, [[OrePoly.constant(w)]]))
    assert Wt[0][0] == RatFun.constant(w)
    assert Wt[1][1] == RatFun.constant(w * w)
    assert Wt[0][1].is_zero() and Wt[1][0].is_zero()


def test_tilde_multiplicative_additive_injective():
    rng = random.Random(7)
    for _ in range(6):
        A = SkewMatrix.from_ore(F4, [[rand_ore(F4, 2, rng)
                                      for _ in range(2)] for _ in range(2)])
        B = SkewMatrix.from_ore(F4, [[rand_ore(F4, 2, rng)
                                      for _ in range(2)] for _ in range(2)])
        assert tilde(A * B) == mat_mul(tilde(A), tilde(B))
        assert tilde(A + B) == [[a + b for a, b in zip(ra, rb)]
                                for ra, rb in zip(tilde(A), tilde(B))]
        if not A.is_zero():
            assert any(not e.is_zero() for row in tilde(A) for e in row)


def test_central_multiplier():
    for spec in (F4, FieldSpec.get(3, 2), F8):
        rng = random.Random(11)
        for _ in range(6):
            P = rand_ore(spec, 3, rng)
            if P.is_zero():
                continue
            Q, c = central_multiplier(P)
            parts = (Q * P).center_decompose()
            assert all(a.is_zero() for a in parts[1:])
            assert parts[0] == c
            assert c.in_prime_field() and not c.is_zero()


def test_inverse_of_F():
    u = SkewElem.F(F4, 1)
    ui = u.inverse()
    assert (ui * u).is_one() and (u * ui).is_one()
    expected = SkewElem(F4, [RatFun.zero(F4),
                             RatFun(CPoly.one(F4), CPoly.s(F4))])
    assert ui == expected


def test_two_sided_inverses_random():
    rng = random.Random(13)
    for _ in range(8):
        P = rand_ore(F4, 3, rng)
        if P.is_zero():
            continue
        u = SkewElem.from_ore(P)
        ui = u.inverse()
        assert (ui * u).is_one() and (u * ui).is_one()


def reference_mul(x, y):
    """The part-by-part product of SkewElem.__mul__, with no early
    return: F^i * b = phi^i(b) * F^i, and F^ell = s."""
    spec = x.spec
    ell = spec.ell
    out = [RatFun.zero(spec)] * ell
    for i, a in enumerate(x.parts):
        for j, b in enumerate(y.parts):
            k, r = divmod(i + j, ell)
            s_k = RatFun(CPoly.monomial(spec, spec.one(), k))
            out[r] = out[r] + a * b.frobenius(i) * s_k
    return SkewElem(spec, out)


def rand_skew(spec, rng):
    """An element of K with a random central denominator on each part."""
    den = CPoly(spec, [spec.random_element(rng) for _ in range(2)]
                + [spec.one()])
    return SkewElem(spec, [RatFun(CPoly(spec, [spec.random_element(rng)
                                               for _ in range(3)]), den)
                           for _ in range(spec.ell)])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((F2, F4, F8, FieldSpec.get(3, 2))),
       st.sampled_from(("zero", "one", "element")),
       st.sampled_from(("zero", "one", "element")),
       st.randoms(use_true_random=False))
def test_skew_operators_on_zero_and_one_match_the_part_loop(spec, ka, kb,
                                                            rng):
    make = {"zero": lambda: SkewElem.zero(spec),
            "one": lambda: SkewElem.one(spec),
            "element": lambda: rand_skew(spec, rng)}
    x, y = make[ka](), make[kb]()
    assert x * y == reference_mul(x, y)
    assert x * y.parts[0] == reference_mul(x, SkewElem.from_ratfun(
        y.parts[0]))
    assert x + y == SkewElem(spec, [a + b for a, b in zip(x.parts, y.parts)])
    assert x - y == SkewElem(spec, [a - b for a, b in zip(x.parts, y.parts)])


def test_min_poly_of_F_is_x_ell_minus_s():
    x = CenterPoly.x(F4)
    mp = min_poly_center(SkewMatrix.from_ore(F4, [[OrePoly.F(F4)]]))
    assert mp == x ** 2 - CenterPoly(F4, [RatFun.s(F4)])
    mp3 = min_poly_center(SkewMatrix.from_ore(F8, [[OrePoly.F(F8)]]))
    assert mp3 == CenterPoly.x(F8) ** 3 - CenterPoly(F8, [RatFun.s(F8)])


def test_min_poly_of_generator():
    # w satisfies x^2 + x + 1 over F_2
    x = CenterPoly.x(F4)
    w = F4.generator()
    mpw = min_poly_center(SkewMatrix.from_ore(F4, [[OrePoly.constant(w)]]))
    assert mpw == x ** 2 + x + CenterPoly.one(F4)


def test_min_poly_divides_char_poly_and_annihilates():
    A = SkewMatrix.from_ore(F4, [[parse_ore("F + [0,1]", F4),
                                  OrePoly.one(F4)],
                                 [OrePoly.zero(F4), parse_ore("F^2", F4)]])
    m = min_poly_center(A)
    assert m.evaluate_matrix(A).is_zero()
    assert m.in_prime_field()
    single = SkewMatrix.from_ore(F4, [[parse_ore("F^2 + [0,1]*F + 1", F4)]])
    cp = char_poly_tilde(single)
    mp = min_poly_center(single)
    q, r = cp.divmod(mp)
    assert r.is_zero()


def test_gauss_eliminate_and_inverse():
    A = SkewMatrix.from_ore(F4, [[parse_ore("F + [0,1]", F4),
                                  OrePoly.one(F4)],
                                 [OrePoly.zero(F4), parse_ore("F^2", F4)]])
    rank, R, T = gauss_eliminate(A)
    assert rank == 2
    assert (T * A).entries == R.entries
    inv = matrix_inverse(A)
    I2 = SkewMatrix.identity(F4, 2)
    assert (inv * A).entries == I2.entries
    assert (A * inv).entries == I2.entries


def test_rank_deficient_kernel_and_solve():
    S = SkewMatrix.from_ore(F4, [[OrePoly.F(F4), OrePoly.F(F4)],
                                 [parse_ore("F^2", F4),
                                  parse_ore("F^2", F4)]])
    rank, R, T = gauss_eliminate(S)
    assert rank == 1
    ker = right_kernel(S)
    assert len(ker) == 1
    for i in range(2):
        acc = SkewElem.zero(F4)
        for j in range(2):
            acc = acc + S.entries[i][j] * ker[0][j]
        assert acc.is_zero()


def test_center_poly_arithmetic():
    x = CenterPoly.x(F4)
    one = CenterPoly.one(F4)
    assert (x + one) ** 2 == x ** 2 + one  # char 2
    g, u, v = (x ** 3 + one).xgcd(x ** 2 + one)
    assert g == x + one
    assert u * (x ** 3 + one) + v * (x ** 2 + one) == g


def test_companion_matrix_char_poly():
    x = CenterPoly.x(F4)
    f = x ** 2 + CenterPoly(F4, [RatFun.s(F4)])
    cm = companion_matrix(f)
    assert CenterPoly(F4, char_poly(cm)) == f
