"""The dense-orbit trichotomy: verdicts, certificates, witness points,
density checks, and the independence machinery."""

import importlib
import random

from frobsplit.fields import FieldSpec
from frobsplit.fqfactor import embedding
from frobsplit.mrat import MRatFun
from frobsplit.ore import OrePoly, parse_ore
from frobsplit.classify import (AdditiveMap, CertificateC, classify,
                                check_independence,
                                construct_independent_points,
                                density_check_orbit,
                                derive_iterate_certificate, orbit,
                                verify_certificate, witness_A)
from frobsplit.split import split_endomorphism

C = importlib.import_module("frobsplit.classify")

F2 = FieldSpec.get(2, 1)
F4 = FieldSpec.get(2, 2)


def test_identity_is_B():
    A = AdditiveMap([[OrePoly.one(F2)]])
    v = classify(A, 1)
    assert v.kind == "B"
    assert v.certificate.n == 1
    ok, reason = verify_certificate(A, v.certificate)
    assert ok, reason


def test_diag_F_F_is_C_with_iterates():
    A = AdditiveMap([[OrePoly.F(F2), OrePoly.zero(F2)],
                     [OrePoly.zero(F2), OrePoly.F(F2)]])
    v = classify(A, 1)
    assert v.kind == "C"
    c = v.certificate
    assert c.m == 1 and c.r == 1
    assert verify_certificate(A, c)[0]
    for k in (2, 3):
        assert verify_certificate(A, derive_iterate_certificate(c, k))[0]
    bad = CertificateC(c.T, c.m, c.r + 1)
    ok, reason = verify_certificate(A, bad)
    assert not ok and "identity fails" in reason


def test_F_plus_one_is_A():
    A = AdditiveMap([[parse_ore("F + 1", F2)]])
    v = classify(A, 1, density_M=25, density_D=3)
    assert v.kind == "A"
    assert v.certificate.report.is_dense()


def test_pure_frobenius_is_A():
    A = AdditiveMap([[OrePoly.F(F2)]])
    v = classify(A, 1)
    assert v.kind == "A"
    assert v.certificate.report.is_dense()
    assert repr(v.certificate.alpha[0]) == "t1"


def test_two_frobenius_blocks_is_A():
    A = AdditiveMap([[OrePoly.F(F2), OrePoly.zero(F2)],
                     [OrePoly.zero(F2), OrePoly.F(F2, 2)]])
    v = classify(A, 1)
    assert v.kind == "A"
    assert v.certificate.report.is_dense()


def test_mixed_map_is_A():
    A = AdditiveMap([[OrePoly.F(F2), OrePoly.zero(F2)],
                     [OrePoly.zero(F2), parse_ore("F+1", F2)]])
    v = classify(A, 1)
    assert v.kind == "A"
    assert v.certificate.report.is_dense()


def test_mixed_map_is_B():
    D = [[OrePoly.one(F4), OrePoly.zero(F4)],
         [OrePoly.zero(F4), parse_ore("F^2 + 1", F4)]]
    v = classify(AdditiveMap(D), 1)
    assert v.kind == "B"
    assert verify_certificate(AdditiveMap(D), v.certificate)[0]


def test_verdict_priority_and_applicable():
    # identity on G_a^2: invariant functions exist (B) and the map
    # semiconjugates onto F^0 on 2 > d coordinates (C); B wins
    A = AdditiveMap.identity(F2, 2)
    v = classify(A, 1)
    assert v.kind == "B"
    assert "C" in v.applicable


def test_density_check_dense():
    t = MRatFun.var(F2, 1, 0)
    rep = density_check_orbit(AdditiveMap([[OrePoly.F(F2)]]), [t], 5, 2)
    assert rep.is_dense() and rep.ranks[0] == 3


def test_density_check_finds_vanishing_polynomial():
    z = MRatFun.zero(F2, 1)
    rep = density_check_orbit(AdditiveMap([[OrePoly.F(F2)]]), [z], 4, 1)
    assert rep.outcome == "vanishing-polynomial"
    assert any(m == (1,) for m, c in rep.polynomial)
    t = MRatFun.var(F2, 1, 0)
    A = AdditiveMap([[OrePoly.F(F2), OrePoly.zero(F2)],
                     [OrePoly.zero(F2), OrePoly.F(F2)]])
    rep = density_check_orbit(A, [t, t], 6, 1)
    assert rep.outcome == "vanishing-polynomial"
    mons = dict(rep.polynomial)
    assert (1, 0) in mons and (0, 1) in mons and (0, 0) not in mons


def test_density_check_orbit_matches_symbolic():
    # specialize-then-iterate must agree with the symbolic orbit
    t = MRatFun.var(F2, 1, 0)
    A = AdditiveMap([[parse_ore("F + 1", F2)]])
    alpha = [MRatFun.one(F2, 1) / t]
    assert density_check_orbit(A, alpha, 25, 3).is_dense()
    big = C._specialization_field(F2)
    emb = embedding(F2, big)
    columns = C._columns(A, lambda a: emb(a).packed)
    values = [big.random_element(random.Random(1))]
    x = [c.evaluate(values, emb).packed for c in alpha]
    assert list(C._packed_orbit(big, columns, x, 25)) == \
        [[c.evaluate(values, emb).packed for c in pt]
         for pt in orbit(A, alpha, 25)]
    Adeg = AdditiveMap([[OrePoly.F(F2), OrePoly.zero(F2)],
                        [OrePoly.zero(F2), OrePoly.F(F2)]])
    rep = density_check_orbit(Adeg, [t, t], 6, 1)
    assert rep.outcome == "vanishing-polynomial"


def test_construct_independent_points():
    t = MRatFun.var(F2, 1, 0)
    gam = construct_independent_points(2, [], F2, 1)
    assert repr(gam[0]) == "(1) / (t1)"
    assert "t1 + 1" in repr(gam[1])
    ok, rel = check_independence(gam, [], 4, 2)
    assert ok, rel
    # the pole must avoid zeros and poles of the deltas
    g = construct_independent_points(1, [t], F2, 1)
    assert "t1 + 1" in repr(g[0])
    ok, rel = check_independence(g, [t], 3, 2)
    assert ok, rel


def test_planted_dependence_detected():
    t = MRatFun.var(F2, 1, 0)
    ok, rel = check_independence([t, t * t], [], 2, 2)
    assert not ok
    labels = {(lab, i, e) for lab, i, e, c in rel}
    assert ("gamma", 0, 1) in labels and ("gamma", 1, 0) in labels


def test_witness_A_reports_the_density_of_its_orbit():
    A = AdditiveMap([[OrePoly.F(F2), OrePoly.zero(F2)],
                     [OrePoly.zero(F2), parse_ore("F+1", F2)]])
    w = witness_A(split_endomorphism(A.to_skew()), 1, A)
    assert len(w.alpha) == 2
    assert repr(w.report) == repr(density_check_orbit(A, w.alpha, 20, 2))
    assert w.report.is_dense() and (w.report.M, w.report.D) == (20, 2)
