"""The density check on packed ints: `fields.rref_packed` against `rref`,
`mrat.fp_kernel` against the FqElem elimination it replaced, and
`classify.density_check_orbit` against the FqElem implementation it
replaced, which is kept here as the reference (full `rref` on every row,
every orbit point through `apply_map` or taken from the symbolic orbit,
and every monomial as a product of FqElem powers).  Also: a full-rank
trial reads no orbit point past full rank, one call builds the
specialization field once, and `classify` never emits A without a dense
report."""

import contextlib
import importlib
import io
import itertools
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from frobsplit.cli import main
from frobsplit.fields import FieldSpec, rref, rref_kernel, rref_packed
from frobsplit.fqfactor import embedding
from frobsplit.mrat import MPoly, MRatFun, fp_kernel
from frobsplit.ore import OrePoly, parse_ore
from ratmat import apply_map

C = importlib.import_module("frobsplit.classify")
F2 = FieldSpec.get(2, 1)


# ---------------------------------------------------------------------------
# reference: the FqElem density check and fp_kernel that were replaced


def reference_density_check(points, D, seed=0, trials=3):
    def specialize(values, emb):
        return [[c.evaluate(values, emb) for c in pt] for pt in points]
    return _reference_density(points[0][0], len(points[0]), len(points), D,
                              specialize, lambda: points, seed, trials)


def reference_density_check_orbit(A, alpha, M, D, seed=0, trials=3):
    def specialize(values, emb):
        pts = [[c.evaluate(values, emb) for c in alpha]]
        for _ in range(M - 1):
            pts.append(apply_map(A, pts[-1]))
        return pts
    return _reference_density(alpha[0], A.N, M, D, specialize,
                              lambda: C.orbit(A, alpha, M), seed, trials)


def _reference_density(coord, N, M, D, specialize, symbolic_points, seed,
                       trials):
    mons = C._monomials(N, D)
    big = C._specialization_field(coord.spec)
    emb = embedding(coord.spec, big)
    rng = random.Random(seed)
    ranks = []
    kernel_candidates = []
    for trial in range(trials):
        for attempt in range(64):
            values = [big.random_element(rng) for _ in range(coord.nvars)]
            try:
                pts = specialize(values, emb)
            except ZeroDivisionError:
                continue
            break
        else:
            ranks.append(-1)
            continue
        rows, pivots = rref([[_eval_monomial(pt, m, big) for m in mons]
                             for pt in pts], len(mons))
        ranks.append(len(pivots))
        if len(pivots) == len(mons):
            return C.DensityReport(M, D, "dense-up-to-D", trials=trial + 1,
                                   field_size=big.q, ranks=ranks)
        kernel_candidates.extend(rref_kernel(rows, pivots, len(mons),
                                             big.zero(), big.one()))
    emb_pts = [[C._mrat_embed(c, big) for c in pt]
               for pt in symbolic_points()]
    for vec in kernel_candidates:
        if C._vanishes_symbolically(emb_pts, mons, vec, big):
            poly = [(m, c) for m, c in zip(mons, vec) if not c.is_zero()]
            return C.DensityReport(M, D, "vanishing-polynomial",
                                   polynomial=poly, trials=trials,
                                   field_size=big.q, ranks=ranks)
    return C.DensityReport(M, D, "dense-up-to-D", trials=trials,
                           field_size=big.q, ranks=ranks)


def _eval_monomial(coord, m, big):
    acc = big.one()
    for v, e in zip(coord, m):
        if e:
            acc = acc * v ** e
    return acc


def reference_fp_kernel(matrix, p):
    if not matrix:
        return []
    fp = FieldSpec.get(p, 1)
    ncols = len(matrix[0])
    rows, pivots = rref([[fp.from_int(x) for x in r] for r in matrix], ncols)
    return [[c.coeffs[0] for c in v]
            for v in rref_kernel(rows, pivots, ncols, fp.zero(), fp.one())]


def same_report(a, b):
    assert repr(a) == repr(b)
    assert repr(a.polynomial) == repr(b.polynomial)


# ---------------------------------------------------------------------------
# rref_packed and fp_kernel


class Counted:
    """An iterable that counts the rows read from it."""

    def __init__(self, rows):
        self.rows = rows
        self.read = 0

    def __iter__(self):
        for row in self.rows:
            self.read += 1
            yield row


def _matrix(data, spec, nrows, ncols):
    """Rows of random packed entries, with zero rows and with rows that
    are combinations of earlier ones, so that rank deficiency is common."""
    elems = [e.packed for e in spec.all_elements()]
    rows = []
    for _ in range(nrows):
        kind = data.draw(st.sampled_from(("random", "zero", "combo")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combo" and rows:
            a, b = data.draw(st.sampled_from(rows)), \
                data.draw(st.sampled_from(rows))
            f = data.draw(st.sampled_from(elems))
            rows.append([spec._add(x, spec._mul(f, y)) for x, y in zip(a, b)])
        else:
            rows.append([data.draw(st.sampled_from(elems))
                         for _ in range(ncols)])
    return rows


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))),
       st.integers(0, 7), st.integers(1, 5), st.data())
def test_rref_packed_equals_rref(pe, nrows, ncols, data):
    spec = FieldSpec.get(*pe)
    rows = _matrix(data, spec, nrows, ncols)
    counted = Counted(rows)
    got_rows, got_piv = rref_packed(spec, counted, ncols)
    want_rows, want_piv = rref([[spec._view(x) for x in r] for r in rows],
                               ncols)
    rank = len(want_piv)
    assert got_piv == want_piv
    assert [[spec._view(x) for x in r] for r in got_rows] == \
        want_rows[:rank]
    assert all(x.is_zero() for r in want_rows[rank:] for x in r)
    # reading stops at the row that brings the rank to ncols
    if rank == ncols:
        first = next(k for k in range(1, nrows + 1)
                     if len(rref([[spec._view(x) for x in r]
                                  for r in rows[:k]], ncols)[1]) == ncols)
        assert counted.read == first
    else:
        assert counted.read == nrows
    wrapped = [[spec._view(x) for x in r] for r in got_rows]
    assert rref_kernel(wrapped, got_piv, ncols, spec.zero(), spec.one()) == \
        rref_kernel(want_rows, want_piv, ncols, spec.zero(), spec.one())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 8), st.integers(1, 8),
       st.data())
def test_fp_kernel_matches_reference(p, nrows, ncols, data):
    # tall and wide matrices, zero rows, repeated rows (rank deficiency)
    # and ints outside [0, p)
    matrix = []
    for _ in range(nrows):
        kind = data.draw(st.sampled_from(("random", "zero", "repeat")))
        if kind == "zero":
            matrix.append([0] * ncols)
        elif kind == "repeat" and matrix:
            matrix.append(list(data.draw(st.sampled_from(matrix))))
        else:
            matrix.append(data.draw(st.lists(st.integers(-p, 2 * p),
                                             min_size=ncols,
                                             max_size=ncols)))
    assert fp_kernel(matrix, p) == reference_fp_kernel(matrix, p)


# ---------------------------------------------------------------------------
# the density check against the reference


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


def _coordinate(data, spec, nvars):
    num = _mpoly(data, spec, nvars, 3, 2)
    den = _mpoly(data, spec, nvars, 2, 2)
    if den.is_zero():
        return MRatFun(num)
    return MRatFun(num, den)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))),
       st.sampled_from((0, 1, 2)), st.data())
def test_packed_density_matches_reference(pe, grow, data):
    # grow 0 is the real specialization field; 1 and 2 are F_q itself and
    # its quadratic extension, where poles and deficient trials are common
    spec = FieldSpec.get(*pe)
    N = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(1, 3 if N == 1 else 2))
    M = data.draw(st.integers(1, 6))
    nvars = data.draw(st.integers(1, 2))
    seed = data.draw(st.integers(0, 3))
    top = 2 if spec.p == 2 else 1
    A = C.AdditiveMap([[OrePoly(spec, [_element(data, spec)
                                       for _ in range(data.draw(
                                           st.integers(0, top + 1)))])
                        for _ in range(N)] for _ in range(N)])
    alpha = [_coordinate(data, spec, nvars) for _ in range(N)]
    with pytest.MonkeyPatch.context() as mp:
        if grow:
            mp.setattr(C, "_specialization_field",
                       lambda s: FieldSpec.get(s.p, s.ell * grow))
        report = C.density_check_orbit(A, alpha, M, D, seed=seed)
        same_report(report,
                    reference_density_check_orbit(A, alpha, M, D, seed=seed))
        same_report(report, reference_density_check(C.orbit(A, alpha, M), D,
                                                    seed=seed))
    event(report.outcome)
    event("trials %d" % report.trials)
    if -1 in report.ranks:
        event("a trial found no pole-free draw")


def test_everywhere_pole_gives_rank_minus_one_as_before():
    # t^4 - t vanishes on all of F_4: every draw is a pole
    F4 = FieldSpec.get(2, 2)
    t = MRatFun.var(F4, 1, 0)
    den = t ** 4 - t
    alpha = [MRatFun.one(F4, 1) / den]
    A = C.AdditiveMap([[parse_ore("F + 1", F4)]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_specialization_field", lambda s: s)
        got = C.density_check_orbit(A, alpha, 4, 1)
        want = reference_density_check_orbit(A, alpha, 4, 1)
    same_report(got, want)
    assert got.ranks == (-1, -1, -1)


def test_full_rank_trial_reads_exactly_as_many_points_as_monomials(
        monkeypatch):
    read = []
    packed_orbit = C._packed_orbit

    def counting(*args):
        read.append(0)
        for x in packed_orbit(*args):
            read[-1] += 1
            yield x
    monkeypatch.setattr(C, "_packed_orbit", counting)
    F4 = FieldSpec.get(2, 2)
    t = MRatFun.var(F4, 1, 0)
    A = C.AdditiveMap([[OrePoly.F(F4), OrePoly.zero(F4)],
                       [OrePoly.zero(F4), parse_ore("F + 1", F4)]])
    alpha = [t, MRatFun.one(F4, 1) / (t + MRatFun.one(F4, 1))]
    report = C.density_check_orbit(A, alpha, 20, 2)
    mons = len(C._monomials(2, 2))
    assert report.is_dense() and report.ranks == (mons,)
    assert read == [mons]
    same_report(report, reference_density_check_orbit(A, alpha, 20, 2))


def test_known_defect_b_orbit_keeps_its_deficient_trials():
    # diag(F^3, F^6, F^9) over F_8, specialized into GF(2^21), where
    # x -> x^8 has period 7: at most 7 distinct points for 10 monomials,
    # so every trial is deficient and no kernel vector verifies
    F8 = FieldSpec.get(2, 3)
    z = OrePoly.zero(F8)
    A = C.AdditiveMap([[OrePoly.F(F8, 3), z, z], [z, OrePoly.F(F8, 6), z],
                       [z, z, OrePoly.F(F8, 9)]])
    verdict = C.classify(A, 1)
    report = verdict.certificate.report
    assert verdict.kind == "A" and report.is_dense()
    assert report.ranks == (7, 7, 7) and report.trials == 3
    same_report(report, reference_density_check_orbit(
        A, verdict.certificate.alpha, 20, 2))


def test_one_specialization_field_per_call(monkeypatch):
    # the field is built once per call, also when every trial is
    # deficient and the symbolic orbit is built to re-check the kernel
    calls = []
    specialization_field = C._specialization_field

    def counting(spec):
        calls.append(spec)
        return specialization_field(spec)
    monkeypatch.setattr(C, "_specialization_field", counting)
    t = MRatFun.var(F2, 1, 0)
    F = OrePoly.F(F2)
    z = OrePoly.zero(F2)
    assert C.density_check_orbit(C.AdditiveMap([[F]]), [t], 5, 2).is_dense()
    assert len(calls) == 1
    report = C.density_check_orbit(C.AdditiveMap([[F, z], [z, F]]), [t, t],
                                   6, 1)
    assert report.outcome == "vanishing-polynomial" and report.trials == 3
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# verdict A needs a dense report

A_PROBLEM = """\
[field]
p = 2
ell = 1

[map]
n = 1
entry_1_1 = F + 1

[question]
d = 1
"""


def test_classify_raises_on_a_report_that_is_not_dense(monkeypatch,
                                                       tmp_path):
    def vanishing(A, alpha, M, D, seed=0):
        return C.DensityReport(M, D, "vanishing-polynomial", polynomial=[],
                               trials=3, field_size=2 ** 20,
                               ranks=(1, 1, 1))
    A = C.AdditiveMap([[parse_ore("F + 1", F2)]])
    assert C.classify(A, 1).kind == "A"
    monkeypatch.setattr(C, "density_check_orbit", vanishing)
    with pytest.raises(C.CertificateSelfCheckError, match="not dense"):
        C.classify(A, 1)
    problem = tmp_path / "a.txt"
    problem.write_text(A_PROBLEM)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main(["classify", str(problem)]) == 4
    assert "vanishing-polynomial" in err.getvalue()


def test_rref_packed_reads_nothing_past_full_rank():
    rows = itertools.chain([[1, 0], [0, 1]], iter(lambda: 1 / 0, None))
    assert rref_packed(F2, rows, 2) == ([[1, 0], [0, 1]], [0, 1])
