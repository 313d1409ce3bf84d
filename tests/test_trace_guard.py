"""`--trace 1` guard: perfbench's per-layer tracer, installed over the
engine, on one B and one C problem run through `cli.main`.

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


def test_traced_b_and_c_problems_fire_the_counters_and_uninstall(tmp_path):
    tracer = load_tracer()
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
    t = tracer.Tracer()
    t.install()
    try:
        for verdict, text in (("B", B_PROBLEM), ("C", C_PROBLEM)):
            problem = tmp_path / ("problem-%s.txt" % verdict)
            cert = tmp_path / ("cert-%s.txt" % verdict)
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
    for metric in FIRING:
        assert summary[metric] > 0, metric
    assert summary["split.split_endomorphism.calls"] == 2
    for (klass, meth), orig in methods.items():
        assert klass.__dict__[meth] is orig, (klass.__name__, meth)
    for (mod, attr), value in bindings.items():
        assert getattr(mod, attr) is value, (mod.__name__, attr)
