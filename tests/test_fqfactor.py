"""Univariate factorization over F_q and field embeddings."""

import random

from frobsplit.fields import CPoly, FieldSpec
from frobsplit.fqfactor import (embedding, factor, factor_squarefree,
                                is_irreducible, monic_irreducibles, roots)

F2 = FieldSpec.get(2, 1)
F4 = FieldSpec.get(2, 2)
F3 = FieldSpec.get(3, 1)


def test_factor_roundtrip_random():
    rng = random.Random(9)
    for spec in (F2, F4, F3):
        for _ in range(25):
            f = CPoly(spec, [spec.random_element(rng) for _ in range(6)])
            if f.degree < 1:
                continue
            lc, facs = factor(f)
            prod = CPoly.constant(lc)
            for g, m in facs:
                assert is_irreducible(g)
                assert g.leading().is_one()
                prod = prod * g ** m
            assert prod == f


def test_factor_squarefree_equals_factor_on_squarefree_inputs():
    rng = random.Random(21)
    seen = 0
    for spec in (F2, F4, F3):
        for deg in range(1, 9):
            for _ in range(6):
                f = CPoly(spec, [spec.random_element(rng)
                                 for _ in range(deg)] + [spec.one()])
                if f.gcd(f.derivative()).degree:
                    continue
                seen += 1
                _, facs = factor(f)
                assert factor_squarefree(f) == [g for g, _ in facs]
                assert all(m == 1 for _, m in facs)
    assert seen > 60


def test_known_factorizations():
    # x^2 + 1 = (x+1)^2 over F_2
    f = CPoly.from_ints(F2, [1, 0, 1])
    _, facs = factor(f)
    assert facs == [(CPoly.from_ints(F2, [1, 1]), 2)]
    # x^2 + x + 1 irreducible over F_2, splits over F_4
    g = CPoly.from_ints(F2, [1, 1, 1])
    assert is_irreducible(g)
    from frobsplit.fields import lift_cpoly
    g4 = lift_cpoly(g, F4)
    _, facs = factor(g4)
    assert len(facs) == 2 and all(m == 1 and h.degree == 1
                                  for h, m in facs)


def test_roots():
    # x^2 - 1 over F_3 has roots 1 and 2
    f = CPoly.from_ints(F3, [-1, 0, 1])
    rs = roots(f)
    assert len(rs) == 2
    assert all(f.evaluate(r).is_zero() for r in rs)


def test_embedding_is_hom():
    rng = random.Random(10)
    big = FieldSpec.get(2, 4)
    emb = embedding(F4, big)
    for _ in range(20):
        a = F4.random_element(rng)
        b = F4.random_element(rng)
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)
    assert emb(F4.one()).is_one()
    # injective on a full sweep
    images = [emb(a).coeffs for a in F4.all_elements()]
    assert len(set(images)) == 4


def test_monic_irreducibles_stream():
    gen = monic_irreducibles(F2, 1)
    first = [next(gen) for _ in range(4)]
    assert all(is_irreducible(g) for g in first)
    assert first[0].degree <= first[-1].degree
    degrees = [g.degree for g in first]
    assert degrees == sorted(degrees)
    # degree-1 monics over F_2: x, x+1
    assert {repr(g) for g in first[:2]} == {"s", "1 + s"}
