"""The three workloads as seeded job lists, with their answer keys.

A job is either a problem file run through `classify --out cert` and then
`verify cert problem` (kind "cv"), or one `tools ...` invocation (kind
"tool").  Each workload is a list of strata; round r of the job list takes
problem r of every stratum.  Known defects (see `KNOWN_DEFECTS`): a problem
that misbehaves at baseline but still passes is placed once near the start of
the job list; a problem that fails at baseline is a probe (`PROBES`), run once
by a traced run outside the timed loop, so that no timed job fails.
"""

import random

import gen

WORKLOADS = ("certify-bc", "witness-a", "fset-lab")

# Per-call wall-clock limit in seconds, far from every decided job's time
# (see README.md for the measured ranges).
TIME_LIMIT_S = {"certify-bc": 12.0, "witness-a": 6.0, "fset-lab": 3.0}

KNOWN_DEFECTS = {
    "a": "companion of x^7+x+1 over F_2: classify_factor never tries n = 127, "
         "so classify raises UnknownClassificationError (exit 2)",
    "b": "verdict-A conjugate over F_8 with N = 3: every density trial is "
         "rank-deficient and density_check_orbit falls back to the symbolic "
         "orbit (see defect_b)",
}

# Rounds generated per workload.  On certify-bc and witness-a a run at
# baseline uses roughly the first half, and a faster engine cycles back to
# the start.  fset-lab's 8 rounds hold each stratum's shape cycle (4 or 8
# shapes) a whole number of times, and a run goes round them about 4 times.
ROUNDS = {"certify-bc": 12, "witness-a": 14, "fset-lab": 8}


class Job:
    def __init__(self, family, text, expected=None, tool=None, check=None,
                 defect=None):
        self.family = family
        self.text = text
        self.expected = expected    # verdict letter, for "cv" jobs
        self.tool = tool            # argv after the problem path
        self.check = check          # output -> None or an error message
        self.defect = defect        # key into KNOWN_DEFECTS

    @property
    def kind(self):
        return "tool" if self.tool is not None else "cv"

    @property
    def calls(self):
        return 1 if self.tool is not None else 2


# ---------------------------------------------------------------------------
# classify + verify workloads

FIXTURES = {  # criterion-6 acceptance fixtures (verdict, text)
    "fixture-B": ("B", "[field]\np = 2\nell = 1\n\n[map]\nn = 1\n"
                       "entry_1_1 = 1\n\n[question]\nd = 1\n"),
    "fixture-C": ("C", "[field]\np = 2\nell = 1\n\n[map]\nn = 2\n"
                       "entry_1_1 = F\nentry_1_2 = 0\nentry_2_1 = 0\n"
                       "entry_2_2 = F\n\n[question]\nd = 1\n"),
    "fixture-A-F+1": ("A", "[field]\np = 2\nell = 1\n\n[map]\nn = 1\n"
                           "entry_1_1 = 1 + F\n\n[question]\nd = 1\n"
                           "density_m = 25\ndensity_d = 3\n"),
    "fixture-A-F": ("A", "[field]\np = 2\nell = 1\n\n[map]\nn = 1\n"
                         "entry_1_1 = F\n\n[question]\nd = 1\n"),
}

COMPANION_MAX_ORDER = 32  # classify_factor's candidate scan stops there
X7 = [1, 1, 0, 0, 0, 0, 0, 1]  # x^7 + x + 1 over F_2, root order 127


# The diagonal D is fixed per stratum and only G is seeded: the cost of a
# job depends strongly on D's coefficients (over F_9, N = 5, a random D
# made one stratum take 0.8 s or 5.2 s depending on the seed).


def _mono(F, e):
    return [F.zero] * e + [F.one]


def _indep(F):
    """1 + F^ell: multiplicatively independent of s = F^ell."""
    return [F.one] + [F.zero] * (F.ell - 1) + [F.one]


def diag_bc(F, N, verdict):
    """B: the constant 1, then Frobenius exponents 1, 2, 1, ...; C:
    exponent 1 twice (so d = 1 is exceeded), then exponent 2."""
    if verdict == "B":
        return [[F.one]] + [_mono(F, 1 + k % 2) for k in range(N - 1)]
    return [_mono(F, 1), _mono(F, 1)] + [_mono(F, 2) for _ in range(N - 2)]


def diag_a(F, N):
    """Distinct Frobenius exponents 1, 2, ... interleaved with independent
    entries; no constant and no repeated exponent, so with d = 1 the
    verdict is A."""
    return [_mono(F, 1 + k // 2) if k % 2 == 0 else _indep(F)
            for k in range(N)]


def pairs(N):
    """Positions of the two elementary operations: (0,1), then (1,2) (or
    (1,0) when N = 2).  Fixed per stratum, so that the seed moves
    coefficients only and a stratum's cost stays nearly the same."""
    return [(0, 1), (1, 2 % N)]


def conjugate_job(family, F, rng, diag, d, density=None, ops=2):
    """G is a product of `ops` elementary matrices; their Ore entries have
    degree 1 over prime fields and are constants over F_4, F_8, F_9, which
    keeps every decided job far below the time limit."""
    A = gen.conjugate(F, diag, rng, pairs(len(diag))[:ops],
                      max_deg=1 if F.ell == 1 else 0)
    return Job(family, gen.problem_text(F, A, d, density),
               expected=gen.expected_verdict(F, diag, d))


def bc_job(rng, family, fname, N, verdict):
    F = gen.FIELDS[fname]
    return conjugate_job(family, F, rng, diag_bc(F, N, verdict), 1)


def a_job(rng, family, fname, N):
    """G is one elementary matrix here: with two, a run at baseline fits
    only about 120 jobs, too close to the 100 that p90 needs."""
    F = gen.FIELDS[fname]
    return conjugate_job(family, F, rng, diag_a(F, N), 1, density=(20, 2),
                         ops=1)


def companion_job(rng, family, p, n):
    f = gen.companion_poly(rng, p, n, COMPANION_MAX_ORDER)
    return Job(family, gen.companion_text(p, f), expected="B")


def fixture_job(rng, family, key):
    expected, text = FIXTURES[key]
    return Job(family, text, expected=expected)


def defect_a():
    return Job("companion-x7+x+1", gen.companion_text(2, X7), expected="B",
               defect="a")


def defect_b():
    """Known defect (b), pinned (the same for every seed): over F_8,
    diag(F^3, F^6, F^9) and one constant elementary operation.
    x -> x^8 has period 7 in the specialization field GF(2^21), so every
    density trial is rank-deficient (10 columns) and the symbolic-orbit
    fallback runs; at baseline it ends after ~3 s with "dense" although
    no trial had full rank."""
    F = gen.FIELDS["F8"]
    rng = random.Random("defect-b/F8/1")
    diag = [_mono(F, e) for e in (3, 6, 9)]
    A = gen.conjugate(F, diag, rng, [(0, 1)], max_deg=0)
    return Job("conj-F8-N3-A-fallback", gen.problem_text(F, A, 1, (20, 2)),
               expected=gen.expected_verdict(F, diag, 1), defect="b")


def certify_bc(seed):
    """25 strata, so that each gets about six jobs in a run (with 55, the
    percentiles moved twice as much between runs as on witness-a): B and
    C alternate within a (field, N) stratum, the prime alternates within
    a companion degree, and the two fixtures share one stratum."""
    strata = [("conj-%s-N%d" % (fname, N), bc_job,
               [(fname, N, "B"), (fname, N, "C")])
              for fname in ("F2", "F3", "F4", "F8", "F9")
              for N in (2, 3, 4, 5)]
    strata += [("companion-deg%d" % n, companion_job,
                [(p, n) for p in (2, 3, 5)]) for n in (3, 4, 5, 6)]
    strata.append(("fixture-BC", fixture_job,
                   [("fixture-B",), ("fixture-C",)]))
    return _interleave("certify-bc", seed, strata, [])


def witness_a(seed):
    strata = [("conj-%s-N%d-A" % (fname, N), a_job, [(fname, N)])
              for fname, Ns in (("F2", (2, 3, 4)), ("F3", (2, 3, 4)),
                                ("F4", (2, 3)), ("F8", (2,)), ("F9", (2,)))
              for N in Ns]
    strata += [(key, fixture_job, [(key,)])
               for key in ("fixture-A-F+1", "fixture-A-F")]
    return _interleave("witness-a", seed, strata, [defect_b()])


def _interleave(workload, seed, strata, defects):
    """Round-robin over the strata, in an order mixed once and for all
    (the same for every seed), so that cheap and costly strata alternate
    and a run that stops inside a round still sees about the usual mix.
    Round r builds each stratum's problem from its variant r mod (number
    of variants).  The defect jobs go once into the first round, spread
    out, so every run meets each of them."""
    rng = random.Random("%s/%d" % (workload, seed))
    strata = list(strata)
    random.Random("strata").shuffle(strata)
    jobs = [make(rng, family, *variants[r % len(variants)])
            for r in range(ROUNDS[workload])
            for family, make, variants in strata]
    step = max(1, len(strata) // (len(defects) + 1))
    for i, job in enumerate(defects):
        jobs.insert((i + 1) * step + i, job)
    return jobs


# ---------------------------------------------------------------------------
# fset-lab: tools with closed-form references

def _lambda_text(F, lam, c):
    return "\n".join(F.header() + ["", "[lambda]", "lambda = %s" % lam,
                                   "c = %s" % " ; ".join(str(x) for x in c)]
                     ) + "\n"


def parse_upoly(text, p):
    """`c*t1^e + t1 + c` (the engine's textual form) -> {e: c}."""
    out = {}
    for term in text.split(" + "):
        term = term.strip()
        coeff, exp = 1, 0
        for factor in term.split("*"):
            if factor.startswith("t1"):
                exp = int(factor[3:]) if factor.startswith("t1^") else 1
            else:
                coeff = int(factor)
        out[exp] = (out.get(exp, 0) + coeff) % p
    return {e: c for e, c in out.items() if c}


def _check_lambda(M, solvable):
    """Reference for `tools lambda-density`: solvable(m) -> n or None,
    with the solution tuple (n,) unique when it exists."""
    def check(out):
        lines = out.splitlines()
        if not lines or lines[0] != "m,solvable,tuple":
            return "missing CSV header"
        rows = lines[1:M + 1]
        if len(rows) != M:
            return "expected %d rows, got %d" % (M, len(rows))
        count = 0
        for m, row in enumerate(rows, 1):
            n = solvable(m)
            want = "%d,1,(%d,)" % (m, n) if n else "%d,0," % m
            if row != want:
                return "row %d: %r, expected %r" % (m, row, want)
            count += 1 if n else 0
        tail = lines[M + 1:]
        want_tail = ["count = %d/%d" % (count, M),
                     "density = %r" % (count / M)]
        if tail != want_tail:
            return "summary %r, expected %r" % (tail, want_tail)
        return None
    return check


def _power_of(p, m):
    while m % p == 0:
        m //= p
    return m == 1


def lambda_job(rng, family, p, lam, M):
    F = gen.FIELDS["F%d" % p]
    if lam == "t+1":
        # (t+1)^m = 1 + t^n exactly when m is a power of p (Lucas), n = m
        text = _lambda_text(F, "t1 + 1", (1, 1))
        ref = _check_lambda(M, lambda m: m if _power_of(p, m) else None)
    elif lam == "t^2+1":
        # (t^2+1)^m = 1 + t^(2m) exactly when m is a power of p
        text = _lambda_text(F, "t1^2 + 1", (1, 1))
        ref = _check_lambda(M, lambda m: 2 * m if _power_of(p, m) else None)
    else:
        # (a t)^m = b t^n exactly when n = m and a^m = b (mod p)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if p == 2:
            a = b = 1  # lambda = t, c = (0, 1): density 1
        text = _lambda_text(F, "%d*t1" % a if a != 1 else "t1", (0, b))
        ref = _check_lambda(M, lambda m: m if pow(a, m, p) == b else None)
    return Job(family, text, tool=["lambda-density", "--M", str(M)],
               check=ref)


def fset_job(rng, family, p, with_module, k, b, zero, mb):
    """gamma_0 = c0, gamma_1 = a*t1 with period k, exponents n in [lo, b],
    optional H = F_p[F]-span of t1 with F-degree <= module_bound.  The
    points are c0 + a*t1^(p^(k n)) + sum_{e <= mb} h_e t1^(p^e)."""
    F = gen.FIELDS["F%d" % p]
    c0 = rng.randrange(p)
    a = rng.randrange(1, p)
    mb = mb if with_module else 0
    lines = F.header() + ["", "[fset]", "gamma0 = %d" % c0,
                          "gamma_1 = %d*t1" % a, "k_1 = %d" % k,
                          "b = %d" % b, "module_bound = %d" % mb,
                          "include_zero = %s" % ("true" if zero else "false")]
    if with_module:
        lines.append("h_1 = t1")
    text = "\n".join(lines) + "\n"
    expected = set()
    for n in range(0 if zero else 1, b + 1):
        for h in _module_elements(p, mb if with_module else -1):
            poly = dict(h)
            e = p ** (k * n)
            poly[e] = (poly.get(e, 0) + a) % p
            poly[0] = (poly.get(0, 0) + c0) % p
            expected.add(frozenset((x, c) for x, c in poly.items() if c))

    def check(out):
        lines = out.splitlines()
        if not lines or lines[-1] != "count = %d" % len(expected):
            return "last line %r, expected count = %d" % (
                lines[-1] if lines else "", len(expected))
        got = set()
        for line in lines[:-1]:
            got.add(frozenset(parse_upoly(line, p).items())
                    if line != "0" else frozenset())
        if got != expected or len(lines) - 1 != len(expected):
            return "point set differs from the closed form"
        return None
    return Job(family, text, tool=["fset"], check=check)


def _module_elements(p, mb):
    """All sum_{e <= mb} h_e t1^(p^e) with h_e in F_p, as {exp: coeff}."""
    out = [{}]
    for e in range(mb + 1):
        out = [{**h, p ** e: c} if c else h for h in out for c in range(p)]
    return out


def independence_job(rng, family, p, k, D):
    """k reciprocals 1/pi_i(t1) of distinct monic irreducibles are
    independent: the engine must answer `independent = true` and list k
    distinct gamma_i of that shape."""
    F = gen.FIELDS["F%d" % p]
    text = "\n".join(F.header()) + "\n"

    def check(out):
        lines = out.splitlines()
        if lines[-1:] != ["independent = true"]:
            return "expected independent = true"
        polys = set()
        for i, line in enumerate(lines[:-1], 1):
            prefix = "gamma_%d = (1) / (" % i
            if not (line.startswith(prefix) and line.endswith(")")):
                return "bad gamma line %r" % line
            poly = parse_upoly(line[len(prefix):-1], p)
            deg = max(poly)
            coeffs = [poly.get(e, 0) for e in range(deg + 1)]
            if coeffs[-1] != 1 or not gen.is_irreducible(coeffs, p):
                return "gamma_%d is not 1/(monic irreducible)" % i
            polys.add(tuple(coeffs))
        if len(polys) != k:
            return "expected %d distinct gammas, got %d" % (k, len(polys))
        return None
    return Job(family, text,
               tool=["independence", "--M", str(k), "--D", str(D)],
               check=check)


def fset_shapes(p):
    """(k, b, include_zero, module_bound) of the F-set jobs over F_p: every
    period k and exponent bound b, in a fixed order.  The shapes set the
    cost, so each stratum cycles through all of them and every seed gets
    the same mix; the seed moves the coefficients c0 and a."""
    bs = range(2, 6 if p == 2 else 4)
    return [(k, b, i % 2 == 0, i % (3 if p == 2 else 2))
            for i, (k, b) in enumerate((k, b) for k in (1, 2) for b in bs)]


def fset_lab(seed):
    """Each stratum cycles through its job shapes (M, F-set shape, (k, D)),
    which set a job's cost.  With the shapes drawn from the seed, the
    seed moved p50 by 0.16 (IQR/median over ten seeds)."""
    strata = []
    for p in (2, 3, 5):
        strata += [("lambda-%s-F%d" % (lam, p), lambda_job,
                    [(p, lam, M) for M in (128, 256, 384, 512)])
                   for lam in ("t+1", "t^2+1", "at")]
        strata += [("fset-F%d-%s" % (p, "H" if h else "noH"), fset_job,
                    [(p, h) + shape for shape in fset_shapes(p)])
                   for h in (False, True)]
        strata.append(("independence-F%d" % p, independence_job,
                       [(p, k, D) for k in (2, 3) for D in (2, 3)]))
    return _interleave("fset-lab", seed, strata, [])


BUILDERS = {"certify-bc": certify_bc, "witness-a": witness_a,
            "fset-lab": fset_lab}

# Known-defect problems that fail at baseline, per workload.
PROBES = {"certify-bc": (defect_a,), "witness-a": (), "fset-lab": ()}


def build(workload, seed):
    return BUILDERS[workload](seed)


def probes(workload):
    return [make() for make in PROBES[workload]]
