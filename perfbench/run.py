#!/usr/bin/env python3
"""frobsplit benchmark: seeded classify+verify suites and an F-set lab,
run in-process through `frobsplit.cli.main`.

    python3 perfbench/run.py --workload certify-bc --seed 1 --seconds 40 \\
        --trace 0

Run from the root of a checkout; the engine is imported from `src/`.  One
process, one thread, a closed loop with one client: the next job starts
when the previous one has ended.  Every answer is checked against a key
that does not come from the engine (see `suites.py`).  With `--trace 0`
the last stdout line is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run (see
`tracer.py`).  Human-readable lines come before it.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import suites  # noqa: E402
import tracer as spans  # noqa: E402

SETUP_REPEATS = 9  # set-ups per timed run: one first, the rest in the loop
TRACE_SHARE = 0.55  # share of --seconds for the traced pass of a trace run

E2E_UNITS = {
    "setup_s": "s", "jobs_ok_per_s": "1/s",
    "job_ms.p50": "ms", "job_ms.p90": "ms",
    "classify_ms.p50": "ms", "classify_ms.p90": "ms",
    "verify_ms.p50": "ms", "verify_ms.p90": "ms",
    "not_failed_ratio": "ratio", "not_wrong_ratio": "ratio",
}


class CallTimeout(BaseException):
    """Raised by SIGALRM inside the engine; a BaseException so that no
    `except Exception` in the engine can swallow it."""


def _alarm(signum, frame):
    raise CallTimeout()


def call(main, argv, limit):
    """Run `main(argv)` in-process under a wall-clock limit.  Returns
    (exit code | "timeout" | "exception ...", seconds, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallTimeout:
        status = "timeout"
    except Exception as exc:  # an engine crash is a failed job, not ours
        status = "exception %s: %s" % (type(exc).__name__, exc)
    return status, time.perf_counter() - start, out.getvalue()


def _verdict(out):
    for line in out.splitlines():
        if line.startswith("verdict = "):
            return line[len("verdict = "):]
    return None


def run_job(main, job, path, cert, limit):
    """One job; returns its record.  `failed` holds the reason or None;
    `wrong` marks an answer that came back but was not right."""
    rec = {"family": job.family, "defect": job.defect, "failed": None,
           "wrong": False, "calls": job.calls}

    def fail(reason, wrong=False):
        rec["failed"] = reason
        rec["wrong"] = wrong

    start = time.perf_counter()
    if job.kind == "tool":
        status, rec["tool_s"], out = call(
            main, ["tools", job.tool[0], path] + job.tool[1:], limit)
        if status != 0:
            fail("tools: %s" % _status(status))
        else:
            err = job.check(out)
            if err:
                fail("tools: bad output: %s" % err, wrong=True)
    else:
        status, rec["classify_s"], out = call(
            main, ["classify", path, "--out", cert], limit)
        verdict = _verdict(out)
        if status != 0:
            fail("classify: %s" % _status(status))
        elif verdict != job.expected:
            fail("classify: verdict %s, expected %s" % (verdict, job.expected),
                 wrong=True)
        else:
            status, rec["verify_s"], out = call(
                main, ["verify", cert, path], limit)
            if status != 0 and isinstance(status, int):
                fail("verify: certificate rejected (exit %d)" % status,
                     wrong=True)
            elif status != 0:
                fail("verify: %s" % _status(status))
    rec["job_s"] = time.perf_counter() - start
    return rec


def _status(status):
    if status == 2:
        return "Unknown (exit 2)"
    if isinstance(status, int):
        return "exit %d" % status
    return status


def measure(main, jobs, paths, cert, limit, seconds=None, count=None,
            tracer=None, pause=None, pauses=0):
    """Closed loop over the job list, cycling, until `seconds` have passed
    (no job starts after that) or `count` jobs have run.  `pause` is
    called between jobs `pauses` times, evenly over `seconds`; the time it
    takes is left out of the loop's wall time."""
    records = []
    paused = 0.0
    done = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        if done < pauses and elapsed >= seconds * (done + 1) / (pauses + 1):
            t0 = time.perf_counter()
            pause()
            paused += time.perf_counter() - t0
            done += 1
            continue
        if (elapsed >= seconds if count is None else len(records) >= count):
            break
        k = len(records) % len(jobs)
        if tracer is not None:
            tracer.start_job(len(records))
        records.append(run_job(main, jobs[k], paths[k], cert, limit))
    return records, time.perf_counter() - start - paused


# ---------------------------------------------------------------------------
# set-up: import the engine afresh, generate and write the problems


def _engine_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "frobsplit" or name.startswith("frobsplit.")}


def setup(workload, seed, work):
    for name in _engine_modules():
        del sys.modules[name]
    cli = importlib.import_module("frobsplit.cli")
    jobs = suites.build(workload, seed)
    paths = []
    for i, job in enumerate(jobs):
        path = os.path.join(work, "p%04d.txt" % i)
        with open(path, "w") as fh:
            fh.write(job.text)
        paths.append(path)
    return cli.main, jobs, paths


def timed_setup(workload, seed, work):
    """One more set-up, timed.  The engine modules loaded before it are put
    back afterwards, so the loop keeps its warm caches, and the engine's
    lazy imports keep resolving to the modules its objects come from."""
    loaded = _engine_modules()
    start = time.perf_counter()
    setup(workload, seed, work)
    elapsed = time.perf_counter() - start
    for name in _engine_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    gc.collect()
    return elapsed


# ---------------------------------------------------------------------------
# metrics


BAND = 0.05  # half-width of the quantile band a percentile averages over


def percentile(values, q, weights=None):
    """Smoothed weighted percentile: the weighted mean of the values that
    lie between the q - BAND and q + BAND quantiles, each value counted by
    the part of its weight inside that band.  A nearest-rank percentile
    jumps between the cost levels of neighbouring strata as the weights
    shift from run to run; the mean over the band moves smoothly."""
    if weights is None:
        weights = [1] * len(values)
    total = sum(weights)
    lo, hi = (q - BAND) * total, (q + BAND) * total
    acc = num = den = 0
    for value, w in sorted(zip(values, weights)):
        inside = min(acc + w, hi) - max(acc, lo)
        if inside > 0:
            num += value * inside
            den += inside
        acc += w
    return num / den


def samples(records, limit):
    """Latency samples in ms with their weights.  A failed job counts at
    the time limit in every percentile (a job's limit is the sum of its
    calls' limits).  Each stratum (`family`) weighs the same however many
    of its jobs the run reached, so where a run stops inside the job list
    does not shift the percentiles.  On fset-lab a job is one `tools`
    call, which stands for both the classify and the verify call."""
    per_family = {}
    for r in records:
        per_family[r["family"]] = per_family.get(r["family"], 0) + 1
    weights = [Fraction(1, per_family[r["family"]]) for r in records]
    lim_ms = limit * 1000.0
    job, cls, ver = [], [], []
    for r in records:
        if r["failed"]:
            job.append(lim_ms * r["calls"])
            cls.append(lim_ms)
            ver.append(lim_ms)
            continue
        job.append(r["job_s"] * 1000.0)
        if "tool_s" in r:
            cls.append(r["tool_s"] * 1000.0)
            ver.append(r["tool_s"] * 1000.0)
        else:
            cls.append(r["classify_s"] * 1000.0)
            ver.append(r["verify_s"] * 1000.0)
    return {"job_ms": job, "classify_ms": cls, "verify_ms": ver}, weights


def e2e_metrics(records, wall, limit, setup_s):
    n = len(records)
    failed = sum(1 for r in records if r["failed"])
    wrong = sum(1 for r in records if r["wrong"])
    out = {"setup_s": setup_s, "jobs_ok_per_s": (n - failed) / wall}
    values, weights = samples(records, limit)
    for name, v in values.items():
        out[name + ".p50"] = percentile(v, 0.50, weights)
        out[name + ".p90"] = percentile(v, 0.90, weights)
    out["not_failed_ratio"] = 1.0 - failed / n
    out["not_wrong_ratio"] = 1.0 - wrong / n
    return out


def failure_lines(records):
    """One line per (family, reason), marking failures that are not
    recorded known defects."""
    groups = {}
    for r in records:
        if r["failed"]:
            key = (r["family"], r["failed"], r["defect"])
            groups[key] = groups.get(key, 0) + 1
    lines = []
    for (family, reason, defect), k in sorted(groups.items()):
        tag = ("known defect (%s): %s" % (defect, suites.KNOWN_DEFECTS[defect])
               if defect else "UNEXPECTED")
        lines.append("failed %dx %s: %s [%s]" % (k, family, reason, tag))
    return lines


def per_layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith(".per_split"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=suites.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frobsplit", "cli.py")):
        print("error: %s/frobsplit not found; run from the root of a "
              "frobsplit checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)
    # SIGTERM unwinds like an exit, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    limit = suites.TIME_LIMIT_S[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        start = time.perf_counter()
        cli_main, jobs, paths = setup(args.workload, args.seed, work)
        setup_s = time.perf_counter() - start
        cert = os.path.join(work, "cert.txt")
        print("workload = %s, seed = %d, loop = closed, clients = 1, "
              "processes = 1, time limit = %g s per call, %d jobs generated"
              % (args.workload, args.seed, limit, len(jobs)))
        run = traced_run if args.trace else timed_run
        result = run(args, cli_main, jobs, paths, cert, limit, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def timed_run(args, cli_main, jobs, paths, cert, limit, setup_s):
    """The untraced run: end-to-end metrics.  `setup_s` is the median of
    the first set-up and SETUP_REPEATS - 1 more spread over the loop, so
    that it samples the machine over the whole run, like the loop does."""
    times = [setup_s]
    work = os.path.dirname(cert)
    records, wall = measure(
        cli_main, jobs, paths, cert, limit, seconds=args.seconds,
        pause=lambda: times.append(timed_setup(args.workload, args.seed,
                                               work)),
        pauses=SETUP_REPEATS - 1)
    metrics = e2e_metrics(records, wall, limit, statistics.median(times))
    n = len(records)
    failed = sum(1 for r in records if r["failed"])
    wrong = sum(1 for r in records if r["wrong"])
    slowest = max((r.get(k, 0.0) for r in records if not r["failed"]
                   for k in ("classify_s", "verify_s", "tool_s")),
                  default=0.0)
    print("jobs = %d in %.2f s, failed_ratio = %.4f, wrong_ratio = %.4f, "
          "slowest decided call = %.3f s"
          % (n, wall, failed / n, wrong / n, slowest))
    for name, value in metrics.items():
        print("%s = %.6g %s" % (name, value, E2E_UNITS[name]))
    for line in failure_lines(records):
        print(line)
    return {"correct": wrong == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in metrics.items()}}


PROBE_METRIC = "known_defects.failing"


def run_probes(main, probes, cert, limit, tracer):
    """Each known-defect probe once, traced but outside the timed loop, so
    its spans and outcomes (say `split.classify_factor.unknown`) show in
    the per-layer metrics while no timed job fails."""
    records = []
    for i, job in enumerate(probes):
        path = os.path.join(os.path.dirname(cert), "probe%d.txt" % i)
        with open(path, "w") as fh:
            fh.write(job.text)
        tracer.start_job("probe-%s" % job.defect)
        rec = run_job(main, job, path, cert, limit)
        print("known defect (%s) probe %s: %s in %.2f s"
              % (job.defect, job.family, rec["failed"] or "passed",
                 rec["job_s"]))
        records.append(rec)
    return records


def traced_run(args, cli_main, jobs, paths, cert, limit, setup_s):
    """The workload's known-defect probes, then a traced pass for the rest
    of a share of --seconds, then the same jobs again untraced; the ratio
    of the two pass wall times is the tracing overhead."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        probes = run_probes(cli_main, suites.probes(args.workload), cert,
                            limit, tracer)
        budget = max(args.seconds * TRACE_SHARE
                     - (time.perf_counter() - start), args.seconds / 4)
        records, wall = measure(cli_main, jobs, paths, cert, limit,
                                seconds=budget, tracer=tracer)
    finally:
        tracer.uninstall()
    replay, replay_wall = measure(cli_main, jobs, paths, cert, limit,
                                  count=len(records))
    metrics = tracer.summary()
    metrics["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics["trace.overhead_ratio"] = wall / replay_wall
    metrics[PROBE_METRIC] = sum(1 for r in probes if r["failed"])
    path = os.path.join(OUT, "trace-%s-seed%d.json"
                        % (args.workload, args.seed))
    tracer.write(path)
    print("traced jobs = %d in %.2f s, untraced replay %.2f s; spans "
          "written to %s" % (len(records), wall, replay_wall, path))
    names = spans.metric_names() + [PROBE_METRIC]
    for name in names:
        value = metrics[name]
        print("%s = %s %s" % (name, value if isinstance(value, int)
                              else "%.6g" % value, per_layer_units(name)))
    for line in failure_lines(records):
        print(line)
    missing = tracer.missing(args.workload, metrics)
    if missing:
        print("error: spans that never fired on %s: %s"
              % (args.workload, ", ".join(missing)), file=sys.stderr)
        return None
    wrong = sum(1 for r in probes + records + replay if r["wrong"])
    return {"correct": wrong == 0, "attempted": len(records),
            "failed": sum(1 for r in records if r["failed"]),
            "metrics": {k: {"value": metrics[k], "unit": per_layer_units(k)}
                        for k in names}}


if __name__ == "__main__":
    sys.exit(main())
