"""Self-tests of the benchmark harness (not of the engine).

    python3 -m pytest -q perfbench/tests
"""

import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import suites  # noqa: E402


@pytest.mark.parametrize("workload", suites.WORKLOADS)
def test_same_seed_gives_identical_problem_files(workload):
    a = [job.text for job in suites.build(workload, 7)]
    b = [job.text for job in suites.build(workload, 7)]
    c = [job.text for job in suites.build(workload, 8)]
    assert a == b
    assert a != c


def test_answer_key_on_criterion_6_fixtures():
    F2 = gen.FIELDS["F2"]
    one, zero = F2.one, F2.zero
    assert gen.expected_verdict(F2, [[one]], 1) == "B"            # identity
    assert gen.expected_verdict(F2, [[zero, one], [zero, one]], 1) == "C"
    assert gen.expected_verdict(F2, [[one, one]], 1) == "A"       # [F + 1]
    assert gen.expected_verdict(F2, [[zero, one]], 1) == "A"      # [F]
    for key, (verdict, _) in suites.FIXTURES.items():
        assert key.split("-")[1] == verdict


def test_answer_key_rules():
    F4 = gen.FIELDS["F4"]
    w = (0, 1)
    const, frob1, frob2 = [w], [F4.zero, w], [F4.zero, F4.zero, w]
    indep = [F4.one, F4.zero, w]
    assert gen.expected_verdict(F4, [frob1, const, indep], 1) == "B"
    assert gen.expected_verdict(F4, [frob1, frob1, frob2], 1) == "C"
    assert gen.expected_verdict(F4, [frob1, frob1, frob2], 2) == "A"
    assert gen.expected_verdict(F4, [frob1, frob2, indep], 1) == "A"


def test_conjugation_keeps_the_diagonal_form_recoverable():
    """G D G^-1 with G = E_k..E_1: undoing the elementary operations in
    reverse order gives D back."""
    import random
    F = gen.FIELDS["F9"]
    rng = random.Random(3)
    diag = [[F.zero, F.rand(rng)], [F.rand(rng)], [F.one, F.zero, (1, 1)]]
    A = gen.conjugate(F, diag, random.Random(5), [(0, 1), (2, 1), (1, 0)], 1)
    assert A != [[d if i == j else [] for j in range(3)]
                 for i, d in enumerate(diag)]
    ops = []
    r = random.Random(5)
    for i, j in [(0, 1), (2, 1), (1, 0)]:
        c = gen._trim(F, [F.rand(r, nonzero=False)
                          for _ in range(2)]) or [F.one]
        ops.append((i, j, c))
    for i, j, c in reversed(ops):
        # inverse conjugation by E^-1 = I - c e_ij
        A[i] = [gen.ore_add(F, A[i][k], gen.ore_neg(F, gen.ore_mul(F, c, A[j][k])))
                for k in range(3)]
        for k in range(3):
            A[k][j] = gen.ore_add(F, A[k][j], gen.ore_mul(F, A[k][i], c))
    assert A == [[d if i == j else [] for j in range(3)]
                 for i, d in enumerate(diag)]


def test_companion_polynomials_are_irreducible_of_bounded_order():
    import random
    rng = random.Random(1)
    for p in (2, 3, 5):
        for n in (3, 4, 5, 6):
            f = gen.companion_poly(rng, p, n, suites.COMPANION_MAX_ORDER)
            assert gen.is_irreducible(f, p)
            o = gen.root_order(f, p)
            assert o <= suites.COMPANION_MAX_ORDER
            assert o in gen.companion_orders(p, n, suites.COMPANION_MAX_ORDER)
    assert gen.is_irreducible(suites.X7, 2)
    assert gen.root_order(suites.X7, 2) == 127
    assert not gen.is_irreducible([1, 0, 1], 2)        # x^2 + 1 = (x+1)^2


def test_percentiles_and_ratios_count_failures_at_the_limit():
    assert run.percentile([5, 1, 4, 2, 3], 0.5) == 3
    # the mean of the 86th to 95th values
    assert run.percentile(list(range(1, 101)), 0.9) == pytest.approx(90.5)
    ok = {"family": "f", "failed": None, "wrong": False, "calls": 2,
          "job_s": 0.010, "classify_s": 0.006, "verify_s": 0.003}
    timeout = {"family": "f", "failed": "classify: timeout", "wrong": False,
               "calls": 2, "job_s": 4.0, "classify_s": 4.0}
    wrong = {"family": "f", "failed": "classify: verdict C, expected B",
             "wrong": True, "calls": 2, "job_s": 0.002, "classify_s": 0.002}
    records = [ok] * 7 + [timeout, timeout, wrong]
    m = run.e2e_metrics(records, wall=2.0, limit=4.0, setup_s=0.5)
    assert m["setup_s"] == 0.5
    assert m["jobs_ok_per_s"] == 7 / 2.0
    assert m["job_ms.p50"] == pytest.approx(10.0)
    assert m["job_ms.p90"] == 8000.0      # two calls at 4 s each
    assert m["classify_ms.p50"] == pytest.approx(6.0)
    assert m["classify_ms.p90"] == 4000.0
    assert m["verify_ms.p50"] == pytest.approx(3.0)
    assert m["not_failed_ratio"] == pytest.approx(0.7)
    assert m["not_wrong_ratio"] == pytest.approx(0.9)


def test_each_stratum_weighs_the_same_in_the_percentiles():
    def rec(family, seconds):
        return {"family": family, "failed": None, "wrong": False, "calls": 1,
                "job_s": seconds, "tool_s": seconds}

    # a run that reached the cheap stratum three times, the costly one once:
    # each holds half the weight, so the band around p50 straddles both
    records = [rec("cheap", 0.001)] * 3 + [rec("costly", 0.100)]
    m = run.e2e_metrics(records, wall=1.0, limit=1.0, setup_s=0.1)
    assert m["job_ms.p50"] == pytest.approx(50.5)
    assert m["job_ms.p90"] == pytest.approx(100.0)
    assert run.percentile([1, 2, 3, 4], 0.75, [1, 1, 1, 1]) == pytest.approx(3.5)
    assert run.percentile([1, 2, 3, 4], 0.25, [3, 1, 1, 1]) == 1
    assert run.percentile([1, 2, 3, 4], 0.5, [3, 1, 1, 1]) == pytest.approx(1.5)


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


def test_a_job_that_never_ends_is_a_counted_timeout(alarm, tmp_path):
    def hang(argv):
        while True:
            pass

    status, seconds, _ = run.call(hang, ["classify"], 0.2)
    assert status == "timeout" and 0.15 < seconds < 2.0
    job = suites.Job("hang", "", expected="B")
    rec = run.run_job(hang, job, str(tmp_path / "p"), str(tmp_path / "c"),
                      0.2)
    assert rec["failed"] == "classify: timeout" and not rec["wrong"]
    m = run.e2e_metrics([rec], wall=0.2, limit=0.2, setup_s=0.1)
    assert m["job_ms.p50"] == 400.0 and m["not_failed_ratio"] == 0.0


def test_engine_exceptions_are_failures_not_crashes(alarm):
    def boom(argv):
        raise RuntimeError("x")

    status, _, _ = run.call(boom, [], 1.0)
    assert status.startswith("exception RuntimeError")


def test_fset_lab_references_reject_wrong_output():
    jobs = suites.build("fset-lab", 1)
    lam = next(j for j in jobs if j.family == "lambda-t+1-F2")
    M = int(lam.tool[2])
    rows = ["%d,%d,%s" % (m, 1 if m & (m - 1) == 0 else 0,
                          "(%d,)" % m if m & (m - 1) == 0 else "")
            for m in range(1, M + 1)]
    count = sum(1 for m in range(1, M + 1) if m & (m - 1) == 0)
    good = "\n".join(["m,solvable,tuple"] + rows
                     + ["count = %d/%d" % (count, M),
                        "density = %r" % (count / M)]) + "\n"
    assert lam.check(good) is None
    assert lam.check(good.replace("3,0,", "3,1,(3,)")) is not None
    ind = next(j for j in jobs if j.family == "independence-F2")
    polys = ["t1", "t1 + 1", "t1^2 + t1 + 1"][:int(ind.tool[2])]
    out = "".join("gamma_%d = (1) / (%s)\n" % (i, p)
                  for i, p in enumerate(polys, 1)) + "independent = true\n"
    assert ind.check(out) is None
    assert ind.check(out.replace("true", "false")) is not None
    assert ind.check(out.replace("t1 + 1)", "t1^2 + 1)")) is not None


def test_jobs_that_fail_at_baseline_are_probes_not_timed_jobs():
    for workload in suites.WORKLOADS:
        probes = suites.probes(workload)
        assert all(job.defect in suites.KNOWN_DEFECTS for job in probes)
        timed = {job.family for job in suites.build(workload, 1)}
        assert not timed & {job.family for job in probes}
    assert [job.family for job in suites.probes("certify-bc")] == [
        "companion-x7+x+1"]


def test_pauses_are_spread_over_the_loop_and_left_out_of_its_wall(alarm):
    import time

    def main(argv):
        time.sleep(0.01)
        return 0

    job = suites.Job("f", "", tool=["x"], check=lambda out: None)
    stamps = []

    def pause():
        stamps.append(time.perf_counter())
        time.sleep(0.05)

    start = time.perf_counter()
    records, wall = run.measure(main, [job], ["p"], "c", 1.0, seconds=0.3,
                                pause=pause, pauses=2)
    assert len(stamps) == 2
    # at 1/3 and 2/3 of the loop's time; the first pause delays the second
    assert 0.1 <= stamps[0] - start < 0.2
    assert 0.25 <= stamps[1] - start < 0.4
    assert 0.3 <= wall < 0.45 and not any(r["failed"] for r in records)
