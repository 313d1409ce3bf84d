"""F-sets, F_p[F]-module membership, brute-force intersections, and
the lambda-equation density lab."""

import random

import pytest

from frobsplit.fields import FieldSpec
from frobsplit.mrat import MRatFun
from frobsplit.fsets import (FpFModule, FSetDescriptor, LambdaEqInstance,
                             brute_force_intersection, fset_enumerate,
                             lambda_density, module_contains,
                             solve_lambda_eq, vandermonde_check)

F2 = FieldSpec.get(2, 1)
F5 = FieldSpec.get(5, 1)


def var(spec):
    return MRatFun.var(spec, 1, 0)


def const(spec, n):
    return MRatFun.constant(spec.from_int(n), 1)


def test_fset_fixed_point():
    desc = FSetDescriptor((const(F2, 0),), [(const(F2, 1),)], [1])
    pts = fset_enumerate(desc, 5, 0)
    assert len(pts) == 1 and pts[0][0] == const(F2, 1)


def test_fset_frobenius_powers():
    t = var(F2)
    desc = FSetDescriptor((const(F2, 0),), [(t,)], [1])
    pts = fset_enumerate(desc, 3, 0)
    assert len(pts) == 3
    for w in (t ** 2, t ** 4, t ** 8):
        assert any(p[0] == w for p in pts)
    # the 0-inclusive convention adds t itself
    pts0 = fset_enumerate(desc, 3, 0, include_zero=True)
    assert len(pts0) == 4 and any(p[0] == t for p in pts0)


def test_fset_two_generators():
    t = var(F5)
    desc = FSetDescriptor((const(F5, 0),),
                          [(t,), (t * const(F5, 2),)], [1, 1])
    pts = fset_enumerate(desc, 2, 0)
    assert len(pts) == 4


def test_fset_dedup_in_char_2():
    # F(t) + F(t+1) = 1 = F^2(t) + F^2(t+1): sums collapse
    t = var(F2)
    desc = FSetDescriptor((const(F2, 0),),
                          [(t,), (t + const(F2, 1),)], [1, 1])
    pts = fset_enumerate(desc, 2, 0)
    assert len(pts) == 2


def test_module_contains():
    t = var(F2)
    g1, g2 = (t,), (t + const(F2, 1),)
    Gamma = FpFModule([g1, g2])
    assert module_contains(Gamma, g1, 0)
    x = (t ** 2 + t + const(F2, 1),)  # F(g1) + g2
    assert module_contains(Gamma, x, 1)
    assert not module_contains(Gamma, x, 0)
    inv = (MRatFun.one(F2, 1) / t,)
    assert not module_contains(FpFModule([(t,)]), inv, 6)


def test_fset_contained_in_module():
    t = var(F2)
    desc = FSetDescriptor((const(F2, 0),), [(t,)], [2])
    pts = fset_enumerate(desc, 3, 0)
    G = FpFModule([(t,)])
    assert all(module_contains(G, p, 8) for p in pts)


def test_intersection_cyclic():
    t = var(F2)
    one = const(F2, 1)
    Gamma = FpFModule([(t, t ** 2)])
    V = [[(one, (0, 1)), (one, (2, 0))]]  # x_2 = x_1^2 in char 2
    rep = brute_force_intersection(V, Gamma, 2)
    assert len(rep) == 8  # the full cyclic submodule up to degree 2


def test_intersection_zero_and_single():
    t = var(F2)
    one = const(F2, 1)
    rep = brute_force_intersection([[(one, (1,))]], FpFModule([(t,)]), 2)
    assert len(rep) == 1 and rep.solutions[0][0][0].is_zero()
    V = [[(one, (1,)), (t ** 2, (0,))]]  # x_1 = t^2 in char 2
    rep = brute_force_intersection(V, FpFModule([(t,)]), 2)
    assert len(rep) == 1 and rep.solutions[0][0][0] == t ** 2
    assert list(rep.patterns) == [((1,),)]  # exactly F^1 applied


def test_solve_lambda_eq():
    t = var(F2)
    lam = t + const(F2, 1)
    inst = LambdaEqInstance(lam, [F2.one(), F2.one()])
    assert solve_lambda_eq(inst, 4) == [(4,)]
    inst2 = LambdaEqInstance(t, [F2.zero(), F2.one()])
    for m in (1, 2, 3, 7):
        assert solve_lambda_eq(inst2, m) == [(m,)]
    inst3 = LambdaEqInstance(lam, [F2.zero(), F2.one()])
    assert solve_lambda_eq(inst3, 3) == []
    with pytest.raises(ValueError):
        LambdaEqInstance(MRatFun.zero(F2, 1), [F2.one(), F2.one()])


def test_lambda_density_sparse_and_control():
    t = var(F2)
    inst = LambdaEqInstance(t + const(F2, 1), [F2.one(), F2.one()])
    S, dens = lambda_density(inst, 512)
    assert S == [1] + [2 ** k for k in range(1, 10)]
    assert dens == 10 / 512
    inst2 = LambdaEqInstance(t, [F2.zero(), F2.one()])
    _, dens2 = lambda_density(inst2, 100)
    assert dens2 == 1.0


def test_lambda_density_monotone_decay():
    t = var(F2)
    inst = LambdaEqInstance(t + const(F2, 1), [F2.one(), F2.one()])
    prev = 1.0
    for M in (64, 128, 256, 512):
        _, d = lambda_density(inst, M)
        assert d <= prev
        prev = d


def test_lambda_density_agrees_with_solver():
    t = var(F2)
    inst = LambdaEqInstance(t ** 2 + t + const(F2, 1),
                            [F2.one(), F2.one()])
    S, _ = lambda_density(inst, 64)
    for m in range(1, 65):
        assert (m in S) == bool(solve_lambda_eq(inst, m))


def test_vandermonde():
    l1, l2 = F5.from_int(1), F5.from_int(2)
    assert vandermonde_check([l1, l2], 1, 2)
    assert vandermonde_check([F5.from_int(3)], 7, 1)
    with pytest.raises(ValueError):
        vandermonde_check([l1, l1], 1, 2)
    with pytest.raises(ValueError):
        vandermonde_check([F5.zero(), l2], 1, 2)


def test_vandermonde_random():
    rng = random.Random(7)
    for trial in range(50):
        p = rng.choice([3, 5])
        spec = FieldSpec.get(p, rng.choice([1, 2]))
        r = rng.randint(1, min(4, spec.q - 1))
        pool = []
        while len(pool) < r:
            x = spec.random_element(rng)
            if x.is_zero() or any(x == y for y in pool):
                continue
            pool.append(x)
        assert vandermonde_check(pool, rng.randint(0, 5), r)
