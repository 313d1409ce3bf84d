"""The dense-orbit trichotomy: given a dominant additive endomorphism of
G_a^N and a transcendence degree d, decide which of the three outcomes
holds and produce a certificate.

  B: a nonzero linear functional v with v * A^n = v (invariant function).
  C: a full-row-rank T with T * A^m = F^r * T onto at least d+1
     coordinates (semiconjugacy onto a Frobenius power).
  A: a witness point whose orbit passes an empirical Zariski-density
     check (exact certificates are impossible from finite data).
"""

import random

from .fields import (FieldSpec, RatFun, mat_mul, power, rref, rref_kernel,
                     rref_packed)
from .fqfactor import embedding, monic_irreducibles
from .mrat import MPoly, MRatFun, fp_kernel, linearize_fractions
from .ore import OrePoly
from .skew import SkewMatrix
from .split import split_endomorphism


class AdditiveMap:
    """x -> A*x with additive-polynomial (Ore) entries."""

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)
        self.N = len(self.entries)
        if not all(len(row) == self.N for row in self.entries):
            raise ValueError("an AdditiveMap needs a square matrix")
        self.spec = self.entries[0][0].spec

    @classmethod
    def identity(cls, spec, N):
        z = OrePoly.zero(spec)
        o = OrePoly.one(spec)
        return cls([[o if i == j else z for j in range(N)] for i in range(N)])

    def to_skew(self):
        return SkewMatrix.from_ore(self.spec, self.entries)

    def apply(self, point):
        out = []
        for i in range(self.N):
            acc = None
            for j in range(self.N):
                term = self.entries[i][j](point[j])
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def __eq__(self, other):
        return (isinstance(other, AdditiveMap)
                and self.entries == other.entries)

    def __repr__(self):
        return "AdditiveMap(%d x %d over %r)" % (self.N, self.N, self.spec)


# ---------------------------------------------------------------------------
# Ore matrix helpers (exact arithmetic in F_q[F])

def ore_mat_pow(A, e):
    spec = A[0][0].spec
    n = len(A)

    def identity():
        return [[OrePoly.one(spec) if i == j else OrePoly.zero(spec)
                 for j in range(n)] for i in range(n)]
    return power(A, e, identity, mat_mul)


# ---------------------------------------------------------------------------
# certificates

class CertificateB:
    """Nonzero row v over F_q[F] with v * A^n = v."""

    def __init__(self, v, n):
        self.v = tuple(v)
        self.n = n

    def __repr__(self):
        return "CertificateB(n=%d, v=%r)" % (self.n, list(self.v))


class CertificateC:
    """Full-row-rank T over F_q[F] with T * A^m = F^r * T."""

    def __init__(self, T, m, r):
        self.T = tuple(tuple(row) for row in T)
        self.m = m
        self.r = r

    def rows(self):
        return len(self.T)

    def __repr__(self):
        return "CertificateC(m=%d, r=%d, rows=%d)" % (self.m, self.r,
                                                      len(self.T))


class DensityReport:
    """Finite empirical stand-in for Zariski density of an orbit."""

    def __init__(self, M, D, outcome, polynomial=None, trials=0,
                 field_size=0, ranks=()):
        self.M = M
        self.D = D
        self.outcome = outcome  # "dense-up-to-D" | "vanishing-polynomial"
        self.polynomial = polynomial  # list of (exponent tuple, FqElem)
        self.trials = trials
        self.field_size = field_size
        self.ranks = tuple(ranks)

    def is_dense(self):
        return self.outcome == "dense-up-to-D"

    def __repr__(self):
        return ("DensityReport(M=%d, D=%d, outcome=%s, trials=%d, "
                "field_size=%d, ranks=%r)"
                % (self.M, self.D, self.outcome, self.trials,
                   self.field_size, self.ranks))


class WitnessA:
    def __init__(self, alpha, report):
        self.alpha = tuple(alpha)
        self.report = report

    def __repr__(self):
        return "WitnessA(alpha=%r, report=%r)" % (list(self.alpha),
                                                  self.report)


class Verdict:
    def __init__(self, kind, certificate, split, applicable):
        self.kind = kind
        self.certificate = certificate
        self.split = split
        self.applicable = frozenset(applicable)

    def __repr__(self):
        return "Verdict(%s, applicable=%s)" % (
            self.kind, "".join(sorted(self.applicable)))


def build_certificate_B(split):
    """Row of the n_i = 0 block of P, cleared by [h]."""
    spec = split.spec
    idx = 0
    found = None
    for k, m in split.blocks:
        if k == 0:
            found = idx
            break
        idx += m
    if found is None:
        raise ValueError("no Frobenius block with exponent zero")
    hr = RatFun(split.h)
    v = [split.P.entries[found][j].scale_central(hr).to_ore()
         for j in range(split.P.cols)]
    return CertificateB(v, split.n)


def build_certificate_C(split, d):
    """First m_i rows of the max-multiplicity block of P, cleared by [h]."""
    spec = split.spec
    best = None
    idx = 0
    for k, m in split.blocks:
        if best is None or m > best[2]:
            best = (idx, k, m)
        idx += m
    if best is None or best[2] < d + 1:
        raise ValueError("no block with multiplicity at least d+1")
    start, k, m = best
    hr = RatFun(split.h)
    T = [[split.P.entries[start + i][j].scale_central(hr).to_ore()
          for j in range(split.P.cols)] for i in range(m)]
    r = k * spec.ell
    return CertificateC(T, split.n, r)


def derive_iterate_certificate(cert, k):
    """If T*A^m = F^r*T then the same T satisfies T*A^{km} = F^{kr}*T."""
    return CertificateC(cert.T, k * cert.m, k * cert.r)


def verify_certificate(A, cert):
    """Exact verification; returns (ok, reason)."""
    if isinstance(A, AdditiveMap):
        entries = [list(r) for r in A.entries]
    else:
        entries = [list(r) for r in A]
    spec = entries[0][0].spec
    if isinstance(cert, CertificateB):
        if all(e.is_zero() for e in cert.v):
            return False, "certificate row is zero"
        if cert.n < 1:
            return False, "iterate exponent must be positive"
        An = ore_mat_pow(entries, cert.n)
        lhs = mat_mul([list(cert.v)], An)[0]
        if all(a == b for a, b in zip(lhs, cert.v)):
            return True, "v*A^%d = v" % cert.n
        return False, "identity fails"
    if isinstance(cert, CertificateC):
        if cert.m < 1 or cert.r < 1:
            return False, "exponents must be positive"
        T = [list(row) for row in cert.T]
        An = ore_mat_pow(entries, cert.m)
        lhs = mat_mul(T, An)
        F = OrePoly.F(spec, cert.r)
        rhs = [[F * e for e in row] for row in T]
        if lhs != rhs:
            return False, "identity fails"
        M = SkewMatrix.from_ore(spec, T)
        rank = len(rref(M.entries, M.cols)[1])
        if rank < len(T):
            return False, "T does not have full row rank"
        return True, "T*A^%d = F^%d*T, full row rank %d" % (cert.m, cert.r,
                                                            rank)
    return False, "unknown certificate type"


# ---------------------------------------------------------------------------
# independent points and the independence checker

def _mpoly_divisible_by_univar(D, pi, nvars):
    """Does the univariate monic pi(t_1) divide the MPoly D exactly?"""
    spec = pi.spec
    dd = pi.degree
    # long division in t_1 with MPoly coefficients in the other variables
    rem = dict(D.terms)
    while rem:
        lead = max(rem, key=lambda e: e[0])
        k = lead[0]
        if k < dd:
            break
        c = rem.pop(lead)
        # subtract c * t^(k-dd) * rest-of-lead-monomial * pi; the leading
        # term of that product is the popped entry itself
        for i, pc in enumerate(pi.coeffs[:-1]):
            if pc.is_zero():
                continue
            e = (k - dd + i,) + lead[1:]
            cur = rem.get(e, spec.zero())
            cur = cur - c * pc
            if cur.is_zero():
                rem.pop(e, None)
            else:
                rem[e] = cur
        # re-add nothing: lead already popped; continue
    return not rem


def construct_independent_points(k, deltas, spec, nvars):
    """k rational functions gamma_i = 1/pi_i(t_1) whose poles avoid the
    zeros and poles of every delta and of each other."""
    if k < 1:
        return []
    out = []
    used = []
    for pi in monic_irreducibles(spec, 1):
        bad = False
        for d in deltas:
            if _mpoly_divisible_by_univar(d.num, pi, nvars) \
                    or _mpoly_divisible_by_univar(d.den, pi, nvars):
                bad = True
                break
        if not bad and any(pi == q for q in used):
            bad = True
        if bad:
            continue
        used.append(pi)
        den = MPoly.zero(spec, nvars)
        for i, c in enumerate(pi.coeffs):
            if not c.is_zero():
                e = (i,) + (0,) * (nvars - 1)
                den = den + MPoly(spec, nvars, {e: c})
        out.append(MRatFun(MPoly.one(spec, nvars), den))
        if len(out) == k:
            return out
    raise AssertionError("irreducible supply exhausted")  # unreachable


def _mrat_embed(f, big):
    emb = embedding(f.spec, big)

    def mp(m):
        return MPoly(big, m.nvars, {e: emb(c) for e, c in m.terms.items()})

    return MRatFun(mp(f.num), mp(f.den))


def check_independence(gammas, deltas, D, k):
    """Is every relation sum P_i(F)(gamma_i) = sum Q_j(F)(delta_j), with
    operator degree <= D and coefficients in F_{p^k}, forced to have all
    P_i = 0?  Returns (ok, relation), where a relation is a list of
    (label, i, e, FqElem coefficient) for the found counterexample."""
    if not gammas:
        return True, None
    base = gammas[0].spec
    big = FieldSpec.get(base.p, k) if base.ell == 1 else \
        FieldSpec.get(base.p, k * base.ell)
    w = big.generator()
    funcs = []
    tags = []
    for label, fam in (("gamma", gammas), ("delta", deltas)):
        for i, g in enumerate(fam):
            ge = _mrat_embed(g, big)
            for e in range(D + 1):
                gfe = ge.frobenius_pow(e)
                for b in range(big.ell):
                    funcs.append(gfe * w ** b)
                    tags.append((label, i, e, b))
    matrix = linearize_fractions(funcs)
    for vec in fp_kernel(matrix, big.p):
        p_part = [(t, c) for t, c in zip(tags, vec)
                  if c and t[0] == "gamma"]
        if p_part:
            relation = []
            for (label, i, e, b), c in zip(tags, vec):
                if c:
                    relation.append((label, i, e, w ** b * big.from_int(c)))
            return False, relation
    return True, None


# ---------------------------------------------------------------------------
# orbits and density

def orbit(A, alpha, M):
    """First M points of the orbit of alpha under the additive map A."""
    pts = [list(alpha)]
    for _ in range(M - 1):
        pts.append(A.apply(pts[-1]))
    return pts


def orbit_sequence(h, A0, A1, alpha0, alpha1, M):
    """n-th term ([h] o (Phi_0^n, Phi_1^n))(alpha_0, alpha_1); the
    sequence is built from matrix powers, not by iterating one map."""
    spec = h.spec
    hr = RatFun(h)
    out = []
    for n in range(M):
        coords = []
        for (B, alpha) in ((A0, alpha0), (A1, alpha1)):
            if not alpha:
                continue
            Bn = B ** n
            for i in range(Bn.rows):
                acc = None
                for j in range(Bn.cols):
                    P = Bn.entries[i][j].scale_central(hr).to_ore()
                    term = P(alpha[j])
                    acc = term if acc is None else acc + term
                coords.append(acc)
        out.append(coords)
    return out


def _monomials(nvars, D):
    def rec(prefix, remaining, budget):
        if remaining == 0:
            yield tuple(prefix)
            return
        for e in range(budget + 1):
            yield from rec(prefix + [e], remaining - 1, budget - e)
    return sorted(rec([], nvars, D), key=lambda t: (sum(t), t))


def _specialization_field(spec):
    """Extension of the coefficient field with at least 2^20 elements."""
    k = spec.ell
    while spec.p ** k < 2 ** 20:
        k += spec.ell
    return FieldSpec.get(spec.p, k)


def density_check(points, D, seed=0, trials=3):
    """Empirical Zariski density of a finite point set up to degree D.

    Full column rank of the monomial-evaluation matrix under any random
    specialization certifies that no polynomial of degree <= D vanishes
    on all points (exact: a vanishing polynomial would force a singular
    specialization).  A rank-deficient kernel vector is only reported
    after exact symbolic re-verification.  Every point is specialized
    before a trial starts, so a pole at any of them forces a redraw."""
    if not points:
        raise ValueError("density check of an empty point set")

    def specialize(values, emb):
        return [[c.evaluate(values, emb).packed for c in pt] for pt in points]
    return _density(points[0][0], len(points[0]), len(points), D, specialize,
                    lambda: points, seed, trials)


def density_check_orbit(A, alpha, M, D, seed=0, trials=3):
    """Density check of the orbit of alpha under A, specializing alpha
    before iterating.  The map is polynomial, so iteration commutes with
    specialization; this avoids the symbolic orbit, whose coordinates can
    grow exponentially in term count.  The symbolic orbit is only built
    if a candidate vanishing polynomial must be re-verified.

    Only alpha can hit a pole: A has no division, so the later points are
    made lazily, and a trial that reaches full rank never makes the rest.
    A's coefficients are embedded into the specialization field once."""
    big = _specialization_field(alpha[0].spec)
    embed = embedding(A.spec, big)
    columns = []  # per column j: top F-degree, and (i, [(k, a_ijk)])
    for j in range(A.N):
        col = [A.entries[i][j] for i in range(A.N)]
        columns.append((max(P.degree for P in col),
                        [(i, [(k, embed(a).packed)
                              for k, a in enumerate(P.coeffs)
                              if not a.is_zero()])
                         for i, P in enumerate(col) if not P.is_zero()]))

    def specialize(values, emb):
        x = [c.evaluate(values, emb).packed for c in alpha]
        return _packed_orbit(big, columns, x, M)
    return _density(alpha[0], A.N, M, D, specialize,
                    lambda: orbit(A, alpha, M), seed, trials)


def _packed_orbit(big, columns, x, M):
    """The M orbit points from x, as packed ints of `big`: sum_k a_ijk
    x_j^(p^k) into coordinate i, with the powers x_j^(p^k) made by
    repeated p-th powers up to column j's top degree, once per point."""
    mul, add, pow_, p = big._mul, big._add, big._pow, big.p
    yield x
    for _ in range(M - 1):
        out = [0] * len(x)
        for (top, terms), v in zip(columns, x):
            frob = [v]
            for _ in range(top):
                frob.append(pow_(frob[-1], p))
            for i, t in terms:
                acc = out[i]
                for k, a in t:
                    acc = add(acc, mul(a, frob[k]))
                out[i] = acc
        x = out
        yield x


def _density(coord, N, M, D, specialize, symbolic_points, seed, trials):
    """The density check of M points in N coordinates over F_q(t_1..):
    `coord` is one coordinate (for the field and the variable count),
    `specialize(values, emb)` gives the points, as lists of packed ints,
    at one random assignment of the variables in the specialization field
    (ZeroDivisionError at a pole, and then another assignment is drawn),
    and `symbolic_points()` the exact points, built only when a kernel
    vector must be verified.  Each trial reads points only until its
    monomial rows reach full rank."""
    if M < 1 or D < 1:
        raise ValueError("density check needs M >= 1 and D >= 1")
    mons = _monomials(N, D)
    big = _specialization_field(coord.spec)
    emb = embedding(coord.spec, big)
    mul = big._mul
    factors = [[(v, e) for v, e in enumerate(m) if e] for m in mons]

    def monomial_rows(pts):
        for x in pts:
            tables = []  # tables[v][e] = x_v^e
            for v in x:
                table = [1, v]
                for _ in range(D - 1):
                    table.append(mul(table[-1], v))
                tables.append(table)
            row = []
            for fs in factors:
                acc = 1
                for v, e in fs:  # 1 * t = t: the first factor is no product
                    acc = tables[v][e] if acc == 1 else mul(acc, tables[v][e])
                row.append(acc)
            yield row

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
        rows, pivots = rref_packed(big, monomial_rows(pts), len(mons))
        ranks.append(len(pivots))
        if len(pivots) == len(mons):
            return DensityReport(M, D, "dense-up-to-D", trials=trial + 1,
                                 field_size=big.q, ranks=ranks)
        rows = [[big._view(c) for c in row] for row in rows]
        kernel_candidates.extend(rref_kernel(rows, pivots, len(mons),
                                             big.zero(), big.one()))
    # rank deficient in every trial: try to certify a vanishing polynomial
    emb_pts = [[_mrat_embed(c, big) for c in pt] for pt in symbolic_points()]
    for vec in kernel_candidates:
        if _vanishes_symbolically(emb_pts, mons, vec, big):
            poly = [(m, c) for m, c in zip(mons, vec) if not c.is_zero()]
            return DensityReport(M, D, "vanishing-polynomial",
                                 polynomial=poly, trials=trials,
                                 field_size=big.q, ranks=ranks)
    return DensityReport(M, D, "dense-up-to-D", trials=trials,
                         field_size=big.q, ranks=ranks)


def _vanishes_symbolically(emb_pts, mons, vec, big):
    nvars = emb_pts[0][0].nvars
    for pt in emb_pts:
        acc = MRatFun.zero(big, nvars)
        for m, c in zip(mons, vec):
            if c.is_zero():
                continue
            term = MRatFun.constant(c, nvars)
            for coord, e in zip(pt, m):
                if e:
                    term = term * coord ** e
            acc = acc + term
        if not acc.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# the trichotomy

def witness_A(split, d, density_M=20, density_D=2, seed=0, A=None):
    """Witness point for verdict A: fresh variables on each Frobenius
    block (reused across blocks), multiplicatively independent
    coordinates for the rest, pulled back through [h] o P^{-1}."""
    spec = split.spec
    if split.N0 and (split.min_ni() == 0 or split.max_mi() > d):
        raise ValueError("verdict A preconditions violated")
    nvars = max(d, 1)
    alpha0 = []
    for k, m in split.blocks:
        for i in range(m):
            alpha0.append(MRatFun.var(spec, nvars, i))
    deltas = [MRatFun.var(spec, nvars, i)
              for i in range(min(split.max_mi(), nvars))]
    alpha1 = construct_independent_points(split.N1, deltas, spec, nvars)
    y = alpha0 + alpha1
    hr = RatFun(split.h)
    alpha = []
    for i in range(split.P_inv.rows):
        acc = MRatFun.zero(spec, nvars)
        for j in range(split.P_inv.cols):
            P = split.P_inv.entries[i][j].scale_central(hr).to_ore()
            if P.is_zero():
                continue
            acc = acc + P(y[j])
        alpha.append(acc)
    report = None
    if A is not None:
        report = density_check_orbit(A, alpha, density_M, density_D,
                                     seed=seed)
    return WitnessA(alpha, report)


class CertificateSelfCheckError(RuntimeError):
    """A certificate that classify built failed its own re-verification,
    or no verdict of the trichotomy applied: an engine fault, never a
    property of the input."""


def _self_check(A, cert):
    ok, reason = verify_certificate(A, cert)
    if not ok:
        raise CertificateSelfCheckError(reason)


def classify(A, d, density_M=20, density_D=2, seed=0):
    """Decide the trichotomy for a dominant AdditiveMap and d >= 1."""
    if not isinstance(A, AdditiveMap):
        A = AdditiveMap(A)
    if d < 1:
        raise ValueError("d must be >= 1")
    split = split_endomorphism(A.to_skew())
    applicable = set()
    if any(k == 0 for k, _ in split.blocks):
        applicable.add("B")
    if split.max_mi() >= d + 1:
        applicable.add("C")
    if split.N0 == 0 or (split.min_ni() >= 1 and split.max_mi() <= d):
        applicable.add("A")
    if not applicable:
        raise CertificateSelfCheckError("trichotomy totality violated")
    if "B" in applicable:
        cert = build_certificate_B(split)
        _self_check(A, cert)
        return Verdict("B", cert, split, applicable)
    if "C" in applicable:
        cert = build_certificate_C(split, d)
        _self_check(A, cert)
        return Verdict("C", cert, split, applicable)
    cert = witness_A(split, d, density_M=density_M, density_D=density_D,
                     seed=seed, A=A)
    if not cert.report.is_dense():
        raise CertificateSelfCheckError(
            "witness orbit is not dense: %s, ranks %r"
            % (cert.report.outcome, cert.report.ranks))
    return Verdict("A", cert, split, applicable)
