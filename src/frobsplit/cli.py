"""Command-line surface: problem files, certificate files, and tools.

File format: sectioned `key = value` plain text.  Lines starting with
`#` and blank lines are ignored.  Sections are `[name]` headers; keys
are word characters; values are exact textual forms of the objects
(Ore polynomials `a0 + a1*F + a2*F^2`, multivariate rational functions
`(num) / (den)` in variables t1, t2, ..., field literals as integers or
bracketed vectors `[c0,c1,...]`).  Lists use ` ; ` separators.

Exit codes: 0 ok, 1 parse/validation error, 2 a degree/size cap of the
engine (the x- or s-degree of the central minimal polynomial, a p^e - 1
with a factor past trial division to 2^20 while ordering a root of
unity, a lambda with a denominator past degree 2^10, a lambda equation
with r > 3), 3
certificate/problem digest mismatch, 4 certificate verification failure
(including a certificate that fails its self-check inside classify).
"""

import argparse
import hashlib
import sys
from functools import cache

from . import __version__
from .fields import FieldSpec
from .mrat import MPoly, MRatFun
from .ore import OreParseError, format_ore, parse_ore, parse_field_literal
from .skew import min_poly_center, tilde
from .split import (CapacityError, NonDominantError, SplitSelfCheckError,
                    split_endomorphism)
from .classify import (AdditiveMap, CertificateB, CertificateC,
                       CertificateSelfCheckError, check_independence,
                       classify, construct_independent_points,
                       density_check_orbit, orbit, verify_certificate)
from .fsets import (FpFModule, FSetDescriptor, LambdaEqInstance,
                    fset_enumerate, solve_lambda_eq)


class CLIError(ValueError):
    """Parse or validation failure (exit code 1)."""


# ---------------------------------------------------------------------------
# sectioned key = value files

_KNOWN_SECTIONS = {
    "field": {"p", "ell", "modulus"},
    "map": None,        # n plus entry_i_j keys, validated separately
    "question": {"d", "density_m", "density_d", "seed"},
    "lambda": {"lambda", "c"},
    "fset": None,       # gamma0, gamma_i, k_i, h_i, b, module_bound, ...
    "point": None,      # nvars plus x_i keys
    "certificate": None,
    "split": {"n", "a", "blocks", "h", "r0", "r1"},
    "meta": {"version", "digest"},
}


def parse_sections(text):
    """Parse sectioned key=value text into {section: {key: value}}."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KNOWN_SECTIONS:
                raise CLIError("line %d: unknown section [%s]"
                               % (lineno, name))
            if name in sections:
                raise CLIError("line %d: duplicate section [%s]"
                               % (lineno, name))
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise CLIError("line %d: expected `key = value`" % lineno)
        if current is None:
            raise CLIError("line %d: key outside any section" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            raise CLIError("line %d: duplicate key %r in [%s]"
                           % (lineno, key, current))
        known = _KNOWN_SECTIONS[current]
        if known is not None and key not in known:
            raise CLIError("line %d: unknown key %r in [%s]"
                           % (lineno, key, current))
        sections[current][key] = value
    return sections


def _get_int(sec, key, section_name, default=None):
    if key not in sec:
        if default is not None:
            return default
        raise CLIError("missing key %r in [%s]" % (key, section_name))
    try:
        return int(sec[key])
    except ValueError:
        raise CLIError("key %r in [%s] must be an integer"
                       % (key, section_name))


def _positive(value, name):
    """A count taken from the command line or a file: an int >= 1."""
    if value < 1:
        raise CLIError("%s must be >= 1, got %d" % (name, value))
    return value


def _split_list(value):
    return [v.strip() for v in value.split(";")] if value.strip() else []


# ---------------------------------------------------------------------------
# multivariate polynomial / rational-function text forms

def _split_top(text, seps):
    """Split on separator characters at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch in seps and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_mpoly(text, spec, nvars):
    """Parse `c*t1^2*t2 + t1 + [1,1]` into an MPoly."""
    text = text.strip()
    if not text:
        raise CLIError("empty polynomial")
    acc = MPoly.zero(spec, nvars)
    for term in _split_top(text, "+"):
        term = term.strip()
        if not term:
            raise CLIError("empty term in polynomial %r" % text)
        coeff = spec.one()
        exps = [0] * nvars
        for factor in _split_top(term, "*"):
            factor = factor.strip()
            if not factor:
                raise CLIError("empty factor in term %r" % term)
            if factor[0] == "t" and len(factor) > 1 and factor[1].isdigit():
                var_part, _, exp_part = factor.partition("^")
                try:
                    idx = int(var_part[1:])
                    e = int(exp_part) if exp_part else 1
                except ValueError:
                    raise CLIError("bad variable factor %r" % factor)
                if not (1 <= idx <= nvars) or e < 0:
                    raise CLIError("variable %r out of range (nvars=%d)"
                                   % (factor, nvars))
                exps[idx - 1] += e
            else:
                try:
                    coeff = coeff * parse_field_literal(factor, spec)
                except OreParseError as exc:
                    raise CLIError(str(exc))
        acc = acc + MPoly(spec, nvars, {tuple(exps): coeff})
    return acc


def parse_mrat(text, spec, nvars):
    """Parse `poly` or `(num) / (den)` into an MRatFun."""
    text = text.strip()
    parts = _split_top(text, "/")
    if len(parts) == 1:
        return MRatFun(parse_mpoly(text, spec, nvars))
    if len(parts) != 2:
        raise CLIError("more than one top-level `/` in %r" % text)
    num, den = (p.strip() for p in parts)
    for side in (num, den):
        if not (side.startswith("(") and side.endswith(")")):
            raise CLIError("fraction sides must be parenthesized: %r" % text)
    num, den = (parse_mpoly(side[1:-1], spec, nvars) for side in (num, den))
    if den.is_zero():
        raise CLIError("zero denominator in %r" % text)
    return MRatFun(num, den)


def parse_point(values, spec, nvars):
    return tuple(parse_mrat(v, spec, nvars) for v in values)


def _int_list(value):
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise CLIError("expected a bracketed integer list, got %r" % value)
    inner = value[1:-1].strip()
    try:
        return [int(v) for v in inner.split(",")] if inner else []
    except ValueError:
        raise CLIError("bad integer list %r" % value)


# ---------------------------------------------------------------------------
# problem files

class ProblemFile:
    def __init__(self, spec, entries, question, sections, text):
        self.spec = spec
        self.entries = entries            # None or grid of OrePoly
        self.question = question          # dict with d/density_m/...
        self.sections = sections
        self.text = text

    @property
    def digest(self):
        return hashlib.sha256(self.text.encode()).hexdigest()

    def additive_map(self):
        if self.entries is None:
            raise CLIError("problem file has no [map] section")
        return AdditiveMap(self.entries)


def parse_problem(text):
    sections = parse_sections(text)
    if "field" not in sections:
        raise CLIError("missing [field] section")
    fsec = sections["field"]
    p = _get_int(fsec, "p", "field")
    ell = _get_int(fsec, "ell", "field")
    modulus = None
    if "modulus" in fsec:
        modulus = tuple(_int_list(fsec["modulus"]))
    try:
        spec = FieldSpec.get(p, ell, modulus)
    except ValueError as exc:
        raise CLIError("invalid field: %s" % exc)
    entries = None
    if "map" in sections:
        msec = sections["map"]
        n = _get_int(msec, "n", "map")
        if n < 1:
            raise CLIError("map size must be >= 1")
        expected = {"n"} | {"entry_%d_%d" % (i, j)
                            for i in range(1, n + 1)
                            for j in range(1, n + 1)}
        extra = set(msec) - expected
        if extra:
            raise CLIError("unknown keys in [map]: %s"
                           % ", ".join(sorted(extra)))
        missing = expected - set(msec)
        if missing:
            raise CLIError("missing keys in [map]: %s"
                           % ", ".join(sorted(missing)))
        entries = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                key = "entry_%d_%d" % (i, j)
                try:
                    row.append(parse_ore(msec[key], spec))
                except OreParseError as exc:
                    raise CLIError("bad Ore polynomial for %s: %s"
                                   % (key, exc))
            entries.append(row)
    question = {}
    if "question" in sections:
        qsec = sections["question"]
        for key in ("d", "density_m", "density_d", "seed"):
            if key in qsec:
                question[key] = _get_int(qsec, key, "question")
    return ProblemFile(spec, entries, question, sections, text)


def load_problem(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIError("cannot read %s: %s" % (path, exc))
    return parse_problem(text)


def problem_lambda_instance(problem):
    if "lambda" not in problem.sections:
        raise CLIError("problem file has no [lambda] section")
    sec = problem.sections["lambda"]
    if "lambda" not in sec or "c" not in sec:
        raise CLIError("[lambda] needs keys `lambda` and `c`")
    lam = parse_mrat(sec["lambda"], problem.spec, 1)
    try:
        c = [parse_field_literal(v, problem.spec)
             for v in _split_list(sec["c"])]
    except OreParseError as exc:
        raise CLIError(str(exc))
    if len(c) < 2:
        raise CLIError("[lambda] c must list c_0 .. c_r with r >= 1")
    if lam.is_zero():
        raise CLIError("lambda must be nonzero")
    return LambdaEqInstance(lam, c)


def problem_fset(problem):
    if "fset" not in problem.sections:
        raise CLIError("problem file has no [fset] section")
    sec = problem.sections["fset"]
    nvars = _get_int(sec, "nvars", "fset", default=1)
    if "gamma0" not in sec:
        raise CLIError("[fset] needs gamma0")
    gamma0 = parse_point(_split_list(sec["gamma0"]), problem.spec, nvars)
    N = len(gamma0)
    gammas, ks = [], []
    i = 1
    while "gamma_%d" % i in sec:
        g = parse_point(_split_list(sec["gamma_%d" % i]), problem.spec,
                        nvars)
        if len(g) != N:
            raise CLIError("gamma_%d has wrong dimension" % i)
        gammas.append(g)
        ks.append(_get_int(sec, "k_%d" % i, "fset"))
        i += 1
    hgens = []
    i = 1
    while "h_%d" % i in sec:
        hgens.append(parse_point(_split_list(sec["h_%d" % i]),
                                 problem.spec, nvars))
        i += 1
    known = ({"gamma0", "nvars", "b", "module_bound", "include_zero"}
             | {"gamma_%d" % j for j in range(1, len(gammas) + 1)}
             | {"k_%d" % j for j in range(1, len(gammas) + 1)}
             | {"h_%d" % j for j in range(1, len(hgens) + 1)})
    extra = set(sec) - known
    if extra:
        raise CLIError("unknown keys in [fset]: %s"
                       % ", ".join(sorted(extra)))
    try:
        desc = FSetDescriptor(gamma0, gammas, ks, FpFModule(hgens))
    except ValueError as exc:
        raise CLIError(str(exc))
    b = _get_int(sec, "b", "fset", default=3)
    module_bound = _get_int(sec, "module_bound", "fset", default=0)
    include_zero = sec.get("include_zero", "false").lower() == "true"
    return desc, b, module_bound, include_zero


def problem_point(problem):
    if "point" not in problem.sections:
        raise CLIError("problem file has no [point] section")
    sec = problem.sections["point"]
    nvars = _get_int(sec, "nvars", "point")
    coords = []
    i = 1
    while "x_%d" % i in sec:
        coords.append(parse_mrat(sec["x_%d" % i], problem.spec, nvars))
        i += 1
    extra = set(sec) - ({"nvars"} | {"x_%d" % j
                                     for j in range(1, len(coords) + 1)})
    if extra:
        raise CLIError("unknown keys in [point]: %s"
                       % ", ".join(sorted(extra)))
    if not coords:
        raise CLIError("[point] needs coordinates x_1, x_2, ...")
    return coords


# ---------------------------------------------------------------------------
# certificate files

def _cpoly_to_ints(h):
    return [c.coeffs[0] for c in h.coeffs]


def format_certificate(verdict, digest):
    """Serialize a Verdict into certificate-file text."""
    lines = ["[certificate]", "kind = %s" % verdict.kind,
             "applicable = %s" % " ; ".join(sorted(verdict.applicable))]
    cert = verdict.certificate
    if verdict.kind == "B":
        lines.append("n = %d" % cert.n)
        for j, e in enumerate(cert.v, 1):
            lines.append("v_%d = %s" % (j, format_ore(e)))
    elif verdict.kind == "C":
        lines.append("m = %d" % cert.m)
        lines.append("r = %d" % cert.r)
        for i, row in enumerate(cert.T, 1):
            for j, e in enumerate(row, 1):
                lines.append("t_%d_%d = %s" % (i, j, format_ore(e)))
    else:
        rep = cert.report
        nv = cert.alpha[0].nvars
        lines.append("nvars = %d" % nv)
        for i, c in enumerate(cert.alpha, 1):
            lines.append("alpha_%d = %s" % (i, repr(c)))
        if rep is not None:
            lines.append("density_m = %d" % rep.M)
            lines.append("density_d = %d" % rep.D)
            lines.append("outcome = %s" % rep.outcome)
    split = verdict.split
    lines.append("")
    lines.append("[split]")
    lines.append("n = %d" % split.n)
    lines.append("a = %d" % split.a)
    lines.append("blocks = %s" % " ; ".join("(%d,%d)" % b
                                            for b in split.blocks))
    lines.append("h = [%s]" % ",".join(str(c)
                                       for c in _cpoly_to_ints(split.h)))
    lines.append("r0 = %s" % repr(split.r0))
    lines.append("r1 = %s" % repr(split.r1))
    lines.append("")
    lines.append("[meta]")
    lines.append("version = %s" % __version__)
    lines.append("digest = %s" % digest)
    return "\n".join(lines) + "\n"


class CertificateData:
    def __init__(self, kind, payload, digest, sections):
        self.kind = kind
        self.payload = payload
        self.digest = digest
        self.sections = sections


def parse_certificate(text, spec):
    sections = parse_sections(text)
    if "certificate" not in sections or "meta" not in sections:
        raise CLIError("certificate file needs [certificate] and [meta]")
    csec = sections["certificate"]
    meta = sections["meta"]
    if "digest" not in meta:
        raise CLIError("missing digest in [meta]")
    kind = csec.get("kind")
    if kind == "B":
        n = _get_int(csec, "n", "certificate")
        v = []
        j = 1
        while "v_%d" % j in csec:
            try:
                v.append(parse_ore(csec["v_%d" % j], spec))
            except OreParseError as exc:
                raise CLIError("bad certificate entry v_%d: %s" % (j, exc))
            j += 1
        if not v:
            raise CLIError("certificate B has no row entries")
        payload = CertificateB(v, n)
    elif kind == "C":
        m = _get_int(csec, "m", "certificate")
        r = _get_int(csec, "r", "certificate")
        T = []
        i = 1
        while "t_%d_1" % i in csec:
            row = []
            j = 1
            while "t_%d_%d" % (i, j) in csec:
                try:
                    row.append(parse_ore(csec["t_%d_%d" % (i, j)], spec))
                except OreParseError as exc:
                    raise CLIError("bad certificate entry t_%d_%d: %s"
                                   % (i, j, exc))
                j += 1
            T.append(row)
            i += 1
        if not T:
            raise CLIError("certificate C has no rows")
        payload = CertificateC(T, m, r)
    elif kind == "A":
        nvars = _get_int(csec, "nvars", "certificate")
        alpha = []
        i = 1
        while "alpha_%d" % i in csec:
            alpha.append(parse_mrat(csec["alpha_%d" % i], spec, nvars))
            i += 1
        if not alpha:
            raise CLIError("certificate A has no witness coordinates")
        payload = {
            "alpha": alpha,
            "density_m": _positive(_get_int(csec, "density_m", "certificate",
                                            default=20), "density_m"),
            "density_d": _positive(_get_int(csec, "density_d", "certificate",
                                            default=2), "density_d"),
        }
    else:
        raise CLIError("unknown certificate kind %r" % kind)
    return CertificateData(kind, payload, meta["digest"], sections)


# ---------------------------------------------------------------------------
# commands

def cmd_classify(args, out):
    problem = load_problem(args.problem)
    A = problem.additive_map()
    q = problem.question
    d = args.d if args.d is not None else q.get("d")
    if d is None:
        raise CLIError("no dimension d given ([question] or --d)")
    if d < 1:
        raise CLIError("dimension d must be >= 1")
    density_m = _positive(args.density_M if args.density_M is not None
                          else q.get("density_m", 20), "density_m")
    density_d = _positive(args.density_D if args.density_D is not None
                          else q.get("density_d", 2), "density_d")
    seed = args.seed if args.seed is not None else q.get("seed", 0)
    try:
        verdict = classify(A, d, density_M=density_m, density_D=density_d,
                           seed=seed)
    except NonDominantError as exc:
        raise CLIError("map is not dominant: %s" % exc)
    cert_text = format_certificate(verdict, problem.digest)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(cert_text)
    else:
        out.write(cert_text)
    print("verdict = %s" % verdict.kind, file=out)
    print("applicable = %s" % " ; ".join(sorted(verdict.applicable)),
          file=out)
    return 0


def cmd_verify(args, out):
    problem = load_problem(args.problem)
    try:
        with open(args.certificate) as fh:
            cert_text = fh.read()
    except OSError as exc:
        raise CLIError("cannot read %s: %s" % (args.certificate, exc))
    cert = parse_certificate(cert_text, problem.spec)
    if cert.digest != problem.digest:
        print("digest mismatch: certificate was issued for a different "
              "problem file", file=out)
        return 3
    A = problem.additive_map()
    if cert.kind in ("B", "C"):
        ok, reason = verify_certificate(A, cert.payload)
        print("checked: %s" % reason, file=out)
        return 0 if ok else 4
    # kind A: density re-verification of the stored witness orbit
    alpha = cert.payload["alpha"]
    if len(alpha) != A.N:
        print("checked: witness point has %d coordinates, the map has "
              "dimension %d" % (len(alpha), A.N), file=out)
        return 4
    seed = args.seed if args.seed is not None else 0
    report = density_check_orbit(A, alpha, cert.payload["density_m"],
                                 cert.payload["density_d"], seed=seed)
    print("checked: orbit density up to degree %d on %d points -> %s"
          % (report.D, report.M, report.outcome), file=out)
    return 0 if report.is_dense() else 4


def cmd_tools(args, out):
    problem = load_problem(args.problem)
    spec = problem.spec
    sub = args.tool
    if sub == "minpoly":
        A = problem.additive_map().to_skew()
        print("minpoly = %s" % repr(min_poly_center(A)), file=out)
        return 0
    if sub == "tilde":
        A = problem.additive_map().to_skew()
        T = tilde(A)
        print("rows = %d" % len(T), file=out)
        print("cols = %d" % len(T[0]), file=out)
        for i, row in enumerate(T, 1):
            for j, e in enumerate(row, 1):
                print("t_%d_%d = %s" % (i, j, repr(e)), file=out)
        return 0
    if sub == "split":
        A = problem.additive_map().to_skew()
        try:
            data = split_endomorphism(A)
        except NonDominantError as exc:
            raise CLIError("map is not dominant: %s" % exc)
        print("n = %d" % data.n, file=out)
        print("a = %d" % data.a, file=out)
        print("blocks = %s" % " ; ".join("(%d,%d)" % b
                                         for b in data.blocks), file=out)
        print("r0 = %s" % repr(data.r0), file=out)
        print("r1 = %s" % repr(data.r1), file=out)
        print("h = [%s]" % ",".join(str(c) for c in
                                    _cpoly_to_ints(data.h)), file=out)
        for i, c in enumerate(data.classifications, 1):
            print("factor_%d = %s" % (i, repr(c)), file=out)
        return 0
    if sub == "orbit":
        A = problem.additive_map()
        alpha = problem_point(problem)
        if len(alpha) != A.N:
            raise CLIError("point dimension does not match the map")
        for pt in orbit(A, alpha, _positive(args.M, "--M")):
            print(" ; ".join(repr(c) for c in pt), file=out)
        return 0
    if sub == "density":
        A = problem.additive_map()
        alpha = problem_point(problem)
        if len(alpha) != A.N:
            raise CLIError("point dimension does not match the map")
        report = density_check_orbit(A, alpha, _positive(args.M, "--M"),
                                     _positive(args.D, "--D"),
                                     seed=args.seed or 0)
        print("outcome = %s" % report.outcome, file=out)
        print("field_size = %d" % report.field_size, file=out)
        print("ranks = %s" % " ; ".join(str(r) for r in report.ranks),
              file=out)
        if report.polynomial is not None:
            terms = " + ".join("%r*x^%s" % (c, list(e))
                               for e, c in report.polynomial)
            print("polynomial = %s" % terms, file=out)
        return 0
    if sub == "lambda-density":
        inst = problem_lambda_instance(problem)
        _positive(args.M, "--M")
        # solve before printing, so that a rejected instance (CapacityError
        # for r > 3) leaves nothing on stdout
        sweep = [solve_lambda_eq(inst, m) for m in range(1, args.M + 1)]
        print("m,solvable,tuple", file=out)
        S = []
        for m, sols in enumerate(sweep, 1):
            if sols:
                S.append(m)
            print("%d,%d,%s" % (m, 1 if sols else 0,
                                " ".join(str(t) for t in sols)), file=out)
        print("count = %d/%d" % (len(S), args.M), file=out)
        print("density = %r" % (len(S) / args.M), file=out)
        return 0
    if sub == "fset":
        desc, b, module_bound, include_zero = problem_fset(problem)
        if args.M is not None:
            b = args.M
        try:
            pts = fset_enumerate(desc, b, module_bound,
                                 include_zero=include_zero)
        except CapacityError:
            raise
        except ValueError as exc:
            raise CLIError(str(exc))
        for pt in pts:
            print(" ; ".join(repr(c) for c in pt), file=out)
        print("count = %d" % len(pts), file=out)
        return 0
    if sub == "independence":
        k = _positive(args.M, "--M") if args.M is not None else 3
        if args.D < 0:
            raise CLIError("--D must be >= 0, got %d" % args.D)
        gammas = construct_independent_points(k, [], spec, 1)
        ok, relation = check_independence(gammas, [], args.D, 2)
        for i, g in enumerate(gammas, 1):
            print("gamma_%d = %s" % (i, repr(g)), file=out)
        print("independent = %s" % ("true" if ok else "false"), file=out)
        if relation is not None:
            print("relation = %s" % " ; ".join(
                "%s_%d F^%d coeff %r" % t for t in relation), file=out)
        return 0
    raise CLIError("unknown tool %r" % sub)


@cache
def build_parser():
    """The argument parser, built once per process; `main` only reads it."""
    parser = argparse.ArgumentParser(
        prog="frobsplit",
        description="Exact trichotomy engine for additive endomorphisms "
                    "of G_a^N over finite fields.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    pc = subs.add_parser("classify", help="classify a problem file and "
                                          "emit a certificate")
    pc.add_argument("problem")
    pc.add_argument("--d", type=int, default=None)
    pc.add_argument("--density-M", type=int, default=None, dest="density_M")
    pc.add_argument("--density-D", type=int, default=None, dest="density_D")
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--out", default=None, help="certificate output path")

    pv = subs.add_parser("verify", help="verify a certificate against "
                                        "its problem file")
    pv.add_argument("certificate")
    pv.add_argument("problem")
    pv.add_argument("--seed", type=int, default=None)

    pt = subs.add_parser("tools", help="direct access to the engine")
    pt.add_argument("tool", choices=["minpoly", "tilde", "split", "orbit",
                                     "density", "lambda-density", "fset",
                                     "independence"])
    pt.add_argument("problem")
    pt.add_argument("--M", type=int, default=None)
    pt.add_argument("--D", type=int, default=2)
    pt.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "classify":
            return cmd_classify(args, out)
        if args.command == "verify":
            return cmd_verify(args, out)
        if args.command == "tools":
            if args.tool in ("orbit", "density", "lambda-density") \
                    and args.M is None:
                args.M = {"orbit": 10, "density": 20,
                          "lambda-density": 64}[args.tool]
            return cmd_tools(args, out)
        parser.error("unknown command")
    except CLIError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except CapacityError as exc:
        print("error: bound exhausted: %s" % exc, file=sys.stderr)
        return 2
    except CertificateSelfCheckError as exc:
        print("error: certificate self-check failed: %s" % exc,
              file=sys.stderr)
        return 4
    except SplitSelfCheckError as exc:
        print("error: split self-check failed: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
