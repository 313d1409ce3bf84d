"""Per-layer tracing from outside the engine.

`Tracer.install()` replaces each named public function with a wrapper that
records a span (name, start, end, parent, job id), in every `frobsplit`
module namespace that holds the function (so `split.py`'s own binding of
`min_poly_center` is traced too), and wraps the named arithmetic methods
with plain call counters.  `uninstall()` puts the originals back.  Spans
stay in memory until `write()`.
"""

import json
import math
import sys
import time

SPANS = {
    "cli": ("parse_problem", "parse_certificate", "format_certificate"),
    "classify": ("classify", "verify_certificate", "witness_A",
                 "density_check_orbit", "orbit", "check_independence"),
    "split": ("split_endomorphism", "factor_center", "classify_factor",
              "jordan_form_central"),
    "skew": ("min_poly_center", "gauss_eliminate", "matrix_inverse",
             "right_kernel"),
    "fields": ("kernel_basis", "char_poly"),
    "fqfactor": ("factor",),
    "mrat": ("fp_kernel", "linearize_fractions"),
    "fsets": ("solve_lambda_eq", "fset_enumerate"),
}

COUNTERS = (  # (module, class, method, metric name)
    ("fields", "FqElem", "__mul__", "fields.FqElem.mul.calls"),
    ("fields", "FqElem", "inverse", "fields.FqElem.inverse.calls"),
    ("fields", "CPoly", "__mul__", "fields.CPoly.mul.calls"),
    ("fields", "CPoly", "divmod", "fields.CPoly.divmod.calls"),
    ("fields", "CPoly", "gcd", "fields.CPoly.gcd.calls"),
    ("fields", "RatFun", "__mul__", "fields.RatFun.mul.calls"),
    ("ore", "OrePoly", "__mul__", "ore.OrePoly.mul.calls"),
    ("skew", "SkewElem", "__mul__", "skew.SkewElem.mul.calls"),
    ("mrat", "MPoly", "__mul__", "mrat.MPoly.mul.calls"),
)

OUTCOMES = ("classify.density_check_orbit.trials",
            "classify.density_check_orbit.full_rank_ratio",
            "split.classify_factor.unknown",
            "split.factor_center.factors",
            "skew.min_poly_center.per_split")

DIAGNOSTICS = ("process.peak_rss_mb", "trace.overhead_ratio")

# The spans each workload is meant to exercise: each must fire there.
EXPECTED = {
    "certify-bc": ("cli.parse_problem", "cli.parse_certificate",
                   "cli.format_certificate", "classify.classify",
                   "classify.verify_certificate", "split.split_endomorphism",
                   "split.factor_center", "split.classify_factor",
                   "split.jordan_form_central", "skew.min_poly_center",
                   "skew.gauss_eliminate", "skew.matrix_inverse",
                   "skew.right_kernel", "fields.kernel_basis",
                   "fields.char_poly", "fqfactor.factor"),
    # classify.orbit is left out: it runs only in the symbolic fallback of
    # density_check_orbit, which a fix of known defect (b) should remove.
    "witness-a": ("classify.classify", "classify.witness_A",
                  "classify.density_check_orbit", "split.split_endomorphism",
                  "skew.min_poly_center"),
    "fset-lab": ("classify.check_independence", "mrat.fp_kernel",
                 "mrat.linearize_fractions", "fsets.solve_lambda_eq",
                 "fsets.fset_enumerate"),
}


def span_names():
    return ["%s.%s" % (m, f) for m, fs in SPANS.items() for f in fs]


def metric_names():
    out = []
    for name in span_names():
        out += [name + ".calls", name + ".total_s", name + ".self_s"]
    out += [c[3] for c in COUNTERS]
    return out + list(OUTCOMES) + list(DIAGNOSTICS)


class Tracer:
    def __init__(self):
        self.spans = []          # (name index, start, end, parent, job)
        self.stack = []
        self.job = None
        self.names = span_names()
        self.counts = {c[3]: [0] for c in COUNTERS}
        self.density = {"checks": 0, "full_rank": 0, "trials": 0}
        self.unknown = 0
        self.factors = 0
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "frobsplit" or name.startswith("frobsplit.")}
        hooks = {"classify.density_check_orbit": self._on_density,
                 "split.classify_factor": self._on_classify_factor,
                 "split.factor_center": self._on_factor_center}
        for idx, name in enumerate(self.names):
            modname, fname = name.split(".")
            orig = getattr(mods["frobsplit." + modname], fname)
            wrapper = self._span(idx, orig, hooks.get(name))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for modname, cls, meth, metric in COUNTERS:
            klass = getattr(mods["frobsplit." + modname], cls)
            orig = klass.__dict__[meth]
            self._undo.append((klass, meth, orig))
            setattr(klass, meth, _counted(orig, self.counts[metric]))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo = []

    def _span(self, idx, fn, hook):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[slot] = (idx, start, clock(), parent, self.job)
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def start_job(self, job):
        """Tag the spans that follow with `job`; spans an interrupted call
        left open are dropped from the stack."""
        self.job = job
        self.stack.clear()

    # -- outcome hooks: read the return value at the span boundary ---------

    def _on_density(self, args, kwargs, report):
        A = args[0]
        D = args[3] if len(args) > 3 else kwargs["D"]
        self.density["checks"] += 1
        self.density["trials"] += report.trials
        columns = math.comb(A.N + D, D)
        if report.ranks and report.ranks[-1] == columns:
            self.density["full_rank"] += 1

    def _on_classify_factor(self, args, kwargs, cls):
        if cls.kind == "unknown":
            self.unknown += 1

    def _on_factor_center(self, args, kwargs, factors):
        self.factors += len(factors)

    # -- reduction ----------------------------------------------------------

    def summary(self):
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_t = [0.0] * n
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for slot, s in enumerate(self.spans):
            if s is None:
                continue
            idx, start, end, parent, _ = s
            calls[idx] += 1
            self_t[idx] += (end - start) - child[slot]
            if not self._has_ancestor(parent, idx):
                total[idx] += end - start
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = calls[i]
            out[name + ".total_s"] = total[i]
            out[name + ".self_s"] = self_t[i]
        for metric, cell in self.counts.items():
            out[metric] = cell[0]
        d = self.density
        out["classify.density_check_orbit.trials"] = d["trials"]
        out["classify.density_check_orbit.full_rank_ratio"] = (
            d["full_rank"] / d["checks"] if d["checks"] else 0.0)
        out["split.classify_factor.unknown"] = self.unknown
        out["split.factor_center.factors"] = self.factors
        splits = calls[self.names.index("split.split_endomorphism")]
        out["skew.min_poly_center.per_split"] = (
            calls[self.names.index("skew.min_poly_center")] / splits
            if splits else 0.0)
        return out

    def _has_ancestor(self, parent, idx):
        while parent >= 0:
            s = self.spans[parent]
            if s is None:
                return False
            if s[0] == idx:
                return True
            parent = s[3]
        return False

    def missing(self, workload, summary):
        return [name for name in EXPECTED[workload]
                if summary[name + ".calls"] == 0]

    def write(self, path):
        """Spans as [name index, start, end, parent slot, job]; a slot
        that an interrupted call never closed is null."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def _counted(fn, cell):
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper
