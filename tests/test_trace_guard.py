"""`--trace 1` guard: perfbench's per-layer tracer, installed over the
engine, on two B, one C and one A problem run through `cli.main`, and on
the three `tools` calls of the fset-lab workload.

The tracer wraps named methods in their own classes and named functions
in every module that binds them.  A change of representation that moves
a counted method out of its class, or routes products around it, would
otherwise show only as a failing traced benchmark run."""

import contextlib
import io
import os
import sys
import types

import frobsplit.cli  # noqa: F401  (the tracer wraps functions of cli too)
from frobsplit.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

B_PROBLEM = """\
[field]
p = 3
ell = 2
modulus = [1,0,1]

[map]
n = 2
entry_1_1 = [1,2] + [0,1]*F
entry_1_2 = [0,2] + [0,1]*F
entry_2_1 = [2,1] + [1,2]*F
entry_2_2 = [0,1] + [1,2]*F

[question]
d = 1
"""

C_PROBLEM = """\
[field]
p = 2
ell = 2
modulus = [1,1,1]

[map]
n = 2
entry_1_1 = 0
entry_1_2 = [1,0]*F
entry_2_1 = [1,0]*F
entry_2_2 = 0

[question]
d = 1
"""

# the companion matrix of x^7 + x + 1 over F_2 (known defect (a) of the
# benchmark): its root has order 127, so v*A^127 = v
X7_PROBLEM = "[field]\np = 2\nell = 1\n\n[map]\nn = 7\n" + "".join(
    "entry_%d_%d = %d\n" % (i, j, int(i == j + 1 or (j == 7 and i in (1, 2))))
    for i in range(1, 8) for j in range(1, 8)) + "\n[question]\nd = 1\n"

A_PROBLEM = """\
[field]
p = 2
ell = 2
modulus = [1,1,1]

[map]
n = 2
entry_1_1 = F
entry_1_2 = [0,1]
entry_2_1 = 0
entry_2_2 = 1 + F^2

[question]
d = 1
"""

LAMBDA_PROBLEM = """\
[field]
p = 3
ell = 1

[lambda]
lambda = t1 + 1
c = 1 ; 1
"""

FSET_PROBLEM = """\
[field]
p = 3
ell = 1

[fset]
gamma0 = 1
gamma_1 = 2*t1
k_1 = 1
b = 3
module_bound = 1
include_zero = false
"""

FIRING = ("fields.CPoly.mul.calls", "fields.CPoly.divmod.calls",
          "fields.CPoly.gcd.calls", "fields.RatFun.mul.calls")


def load_tracer():
    """perfbench/tracer.py as a module, read without writing a bytecode
    cache next to it."""
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    module = types.ModuleType("frobsplit_trace_guard")
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def originals(tracer):
    """The counted methods and every callable module binding of the
    engine, to check that uninstall restores them."""
    methods = {}
    for modname, cls, meth, _ in tracer.COUNTERS:
        klass = getattr(sys.modules["frobsplit." + modname], cls)
        assert meth in klass.__dict__, (cls, meth)
        methods[klass, meth] = klass.__dict__[meth]
    bindings = {(mod, attr): value
                for name, mod in sys.modules.items()
                if name.startswith("frobsplit")
                for attr, value in list(vars(mod).items())
                if callable(value)}
    return methods, bindings


def assert_restored(methods, bindings):
    for (klass, meth), orig in methods.items():
        assert klass.__dict__[meth] is orig, (klass.__name__, meth)
    for (mod, attr), value in bindings.items():
        assert getattr(mod, attr) is value, (mod.__name__, attr)


def test_traced_b_and_c_problems_fire_the_counters_and_uninstall(tmp_path):
    tracer = load_tracer()
    methods, bindings = originals(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        for i, (verdict, text) in enumerate((("B", B_PROBLEM),
                                             ("C", C_PROBLEM),
                                             ("B", X7_PROBLEM))):
            problem = tmp_path / ("problem-%d.txt" % i)
            cert = tmp_path / ("cert-%d.txt" % i)
            problem.write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["classify", str(problem), "--out",
                             str(cert)]) == 0
                assert main(["verify", str(cert), str(problem)]) == 0
            assert "verdict = %s" % verdict in out.getvalue()
    finally:
        t.uninstall()
    summary = t.summary()
    # a shortcut that routes around a span the benchmark expects (such as
    # an inverse in K that skips fields.kernel_basis) fails a traced run
    assert t.missing("certify-bc", summary) == []
    for metric in FIRING:
        assert summary[metric] > 0, metric
    assert summary["split.split_endomorphism.calls"] == 3
    # the benchmark's traced certify-bc run needs these spans to fire and
    # no factor to end Unknown
    assert summary["split.classify_factor.calls"] > 0
    assert summary["fields.char_poly.calls"] > 0
    assert summary["split.classify_factor.unknown"] == 0
    assert_restored(methods, bindings)


def test_traced_a_problem_fires_the_witness_a_spans(tmp_path):
    # classify and verify each run the density check once, through the
    # module binding the tracer wraps, and each reaches full rank
    tracer = load_tracer()
    methods, bindings = originals(tracer)
    problem = tmp_path / "problem-A.txt"
    cert = tmp_path / "cert-A.txt"
    problem.write_text(A_PROBLEM)
    t = tracer.Tracer()
    t.install()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [main(["classify", str(problem), "--out", str(cert)]),
                     main(["verify", str(cert), str(problem)])]
    finally:
        t.uninstall()
    assert codes == [0, 0]
    assert "verdict = A" in out.getvalue()
    summary = t.summary()
    assert t.missing("witness-a", summary) == []
    assert summary["classify.density_check_orbit.calls"] == 2
    assert summary["classify.density_check_orbit.full_rank_ratio"] == 1.0
    assert summary["classify.density_check_orbit.trials"] == 2
    assert_restored(methods, bindings)


def test_traced_fset_lab_tools_fire_the_expected_spans(tmp_path):
    # the CLI must reach fsets.solve_lambda_eq once per m: a route around
    # it leaves an EXPECTED span of the fset-lab workload unfired
    tracer = load_tracer()
    methods, bindings = originals(tracer)
    lam = tmp_path / "lambda.txt"
    fset = tmp_path / "fset.txt"
    lam.write_text(LAMBDA_PROBLEM)
    fset.write_text(FSET_PROBLEM)
    M = 12
    t = tracer.Tracer()
    t.install()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [main(["tools", "lambda-density", str(lam),
                           "--M", str(M)])]
            # the sweep runs on packed powers of lambda: an MPoly product
            # here means it fell back to MPoly
            sweep = t.summary()
            codes += [main(["tools", "fset", str(fset)]),
                      main(["tools", "independence", str(lam),
                            "--M", "2", "--D", "2"])]
    finally:
        t.uninstall()
    assert codes == [0, 0, 0]
    # (t + 1)^m = 1 + t^n over F_3 exactly for m = 1, 3, 9
    assert "count = 3/%d" % M in out.getvalue()
    assert sweep["fsets.solve_lambda_eq.calls"] == M
    assert sweep["mrat.MPoly.mul.calls"] == 0
    summary = t.summary()
    assert t.missing("fset-lab", summary) == []
    assert summary["fsets.solve_lambda_eq.calls"] == M
    assert summary["mrat.MPoly.mul.calls"] > 0
    assert_restored(methods, bindings)
