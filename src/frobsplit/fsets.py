"""F-sets and the lambda-equation density lab.

Desk-scale experiments with finitely generated F_p[F]-modules inside
G_a^N over a rational function field: enumeration of F-sets
gamma_0 + { sum F^(n_i k_i)(gamma_i) } + H, brute-force intersection of
a module with a polynomial subvariety, solvability of lambda^m =
c_0 + sum c_i t^(n_i), and the natural-density sweeps showing the
solvable exponent set is sparse when lambda and t are multiplicatively
independent.
"""

import itertools

from .fields import CPoly, rref
from .mrat import MPoly, MRatFun, fp_kernel, linearize_fractions
from .split import CapacityError


def _point_frobenius(point, e):
    return tuple(c.frobenius_pow(e) for c in point)


def _point_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _point_zero(spec, nvars, N):
    return tuple(MRatFun.zero(spec, nvars) for _ in range(N))


def _point_eq(a, b):
    return all(x == y for x, y in zip(a, b))


class FpFModule:
    """Finitely generated F_p[F]-submodule of G_a^N: all finite sums
    sum P_i(F)(g_i) with P_i over F_p."""

    def __init__(self, generators):
        self.generators = [tuple(g) for g in generators]
        if self.generators:
            self.N = len(self.generators[0])
            if not all(len(g) == self.N for g in self.generators):
                raise ValueError("module generators differ in dimension")
            self.spec = self.generators[0][0].spec
            self.nvars = self.generators[0][0].nvars
        else:
            self.N = 0
            self.spec = None
            self.nvars = 0

    def is_trivial(self):
        return not self.generators

    def elements(self, bound, cap=100000):
        """All (element, representation) with deg P_i <= bound.  The
        representation lists the integer coefficients of each P_i."""
        if bound < 0:
            raise ValueError("module bound must be >= 0")
        if not self.generators:
            return []
        p = self.spec.p
        count = p ** ((bound + 1) * len(self.generators))
        if count > cap:
            raise CapacityError("module enumeration of size %d exceeds "
                                "cap %d" % (count, cap))
        frob = [[_point_frobenius(g, e) for e in range(bound + 1)]
                for g in self.generators]
        out = []
        coeff_space = itertools.product(range(p), repeat=bound + 1)
        for rep in itertools.product(list(coeff_space),
                                     repeat=len(self.generators)):
            acc = _point_zero(self.spec, self.nvars, self.N)
            for i, coeffs in enumerate(rep):
                for e, c in enumerate(coeffs):
                    for _ in range(c):
                        acc = _point_add(acc, frob[i][e])
            out.append((acc, rep))
        return out

    def __repr__(self):
        return "FpFModule(%d generators in G_a^%d)" % (len(self.generators),
                                                       self.N)


class FSetDescriptor:
    """gamma_0 + S(gamma_1..gamma_r; k_1..k_r) + H where S collects the
    sums sum F^(n_i k_i)(gamma_i) over positive exponents n_i."""

    def __init__(self, gamma0, gammas, ks, H=None):
        self.gamma0 = tuple(gamma0)
        self.gammas = [tuple(g) for g in gammas]
        self.ks = list(ks)
        if len(self.gammas) != len(self.ks):
            raise ValueError("one period k_i is needed per gamma_i")
        if not all(k >= 1 for k in self.ks):
            raise ValueError("periods k_i must be >= 1")
        N = len(self.gamma0)
        if not all(len(g) == N for g in self.gammas):
            raise ValueError("gamma_i and gamma0 differ in dimension")
        self.H = H if H is not None else FpFModule([])
        if not self.H.is_trivial() and self.H.N != N:
            raise ValueError("module generators and gamma0 differ in "
                             "dimension")
        self.N = N

    def __repr__(self):
        return "FSetDescriptor(r=%d, ks=%r, H=%r)" % (len(self.gammas),
                                                      self.ks, self.H)


def fset_enumerate(desc, B, module_bound, include_zero=False, cap=100000):
    """All points gamma_0 + sum F^(n_i k_i)(gamma_i) + h with exponents
    n_i in [1, B] (or [0, B] with include_zero) and h from the bounded
    module elements.  Exact and deduplicated."""
    if B < 1:
        raise ValueError("exponent bound b must be >= 1")
    if module_bound < 0:
        raise ValueError("module_bound must be >= 0")
    spec = desc.gamma0[0].spec
    nvars = desc.gamma0[0].nvars
    lo = 0 if include_zero else 1
    r = len(desc.gammas)
    n_tuples = (B - lo + 1) ** r
    if desc.H.is_trivial():
        h_elems = [(_point_zero(spec, nvars, desc.N), ())]
    else:
        h_elems = desc.H.elements(module_bound, cap=cap)
    if n_tuples * len(h_elems) > cap:
        raise CapacityError("F-set enumeration of size %d exceeds cap %d"
                            % (n_tuples * len(h_elems), cap))
    out = []
    for ns in itertools.product(range(lo, B + 1), repeat=r):
        base = desc.gamma0
        for g, k, n in zip(desc.gammas, desc.ks, ns):
            base = _point_add(base, _point_frobenius(g, n * k))
        for h, _ in h_elems:
            pt = _point_add(base, h)
            if not any(_point_eq(pt, q) for q in out):
                out.append(pt)
    return out


def module_contains(Gamma, x, bound):
    """Is x = sum P_i(F)(g_i) with deg P_i <= bound?  Decided by exact
    F_p-linear algebra; False only means "not found within bound"."""
    if bound < 0:
        raise ValueError("module bound must be >= 0")
    x = tuple(x)
    if Gamma.is_trivial():
        return all(c.is_zero() for c in x)
    basis = []
    for g in Gamma.generators:
        for e in range(bound + 1):
            basis.append(_point_frobenius(g, e))
    rows = []
    for j in range(Gamma.N):
        funcs = [x[j]] + [b[j] for b in basis]
        rows.extend(linearize_fractions(funcs))
    for vec in fp_kernel(rows, Gamma.spec.p):
        if vec[0] % Gamma.spec.p:
            return True
    return False


def eval_equation(equation, point):
    """Evaluate a polynomial equation, given as a list of terms
    (coefficient: MRatFun, exponents: tuple over the N coordinates), at
    a point; the equation holds when the sum is zero."""
    spec = point[0].spec
    nvars = point[0].nvars
    acc = MRatFun.zero(spec, nvars)
    for coeff, exps in equation:
        term = coeff
        for c, e in zip(point, exps):
            if e:
                term = term * c ** e
        acc = acc + term
    return acc


class IntersectionReport:
    """Solutions of V intersected with Gamma under a degree bound, with
    their module representations, grouped by F-exponent signature."""

    def __init__(self, solutions):
        self.solutions = solutions  # list of (point, representation)
        self.patterns = {}
        for _, rep in solutions:
            sig = tuple(tuple(e for e, c in enumerate(coeffs) if c)
                        for coeffs in rep)
            self.patterns[sig] = self.patterns.get(sig, 0) + 1

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self):
        return len(self.solutions)

    def __repr__(self):
        return "IntersectionReport(%d solutions, %d patterns)" % (
            len(self.solutions), len(self.patterns))


def brute_force_intersection(V, Gamma, bound, cap=100000):
    """Exactly the Gamma-elements within the degree bound satisfying
    every equation of V, each with its representation sum P_i(F)(g_i)."""
    solutions = []
    for pt, rep in Gamma.elements(bound, cap=cap):
        if all(eval_equation(eq, pt).is_zero() for eq in V):
            solutions.append((pt, rep))
    return IntersectionReport(solutions)


class LambdaEqInstance:
    """The equation lambda^m = c_0 + sum_{i=1}^r c_i t^(n_i) over a
    finite-extension representation of F_p(t).

    `last_power` is the last power handed out by `power`, as
    (m, lambda^m); it starts at (0, 1)."""

    def __init__(self, lam, c):
        if not isinstance(lam, MRatFun) or lam.nvars != 1:
            raise ValueError("lambda must be an MRatFun in one variable")
        if lam.is_zero():
            raise ValueError("lambda must be nonzero")
        self.lam = lam if lam.is_polynomial() else _lowest_terms(lam)
        self.c = list(c)
        self.r = len(c) - 1
        if self.r < 1:
            raise ValueError("c must list c_0 .. c_r with r >= 1")
        self.spec = lam.spec
        self.last_power = (0, MRatFun.one(lam.spec, 1))

    def power(self, m):
        """lambda^m: one product when m follows the last power handed
        out, as in a sweep over m = 1, 2, ...; else a fresh power."""
        last_m, last = self.last_power
        lm = last * self.lam if m == last_m + 1 else self.lam ** m
        self.last_power = (m, lm)
        return lm

    def __repr__(self):
        return "LambdaEqInstance(lambda=%r, c=%r)" % (self.lam, self.c)


_LAMBDA_GCD_DEGREE_CAP = 1 << 10


def _lowest_terms(lam):
    """lam in one variable with num and den divided by their gcd, taken
    in F_q[t]: MRatFun keeps no gcd, and a power of lam is a polynomial
    only if lam in lowest terms is one.  The gcd runs on dense
    polynomials, so their degree is capped (CapacityError)."""
    spec = lam.spec
    degree = max(e for f in (lam.num, lam.den) for e, in f.terms)
    if degree > _LAMBDA_GCD_DEGREE_CAP:
        raise CapacityError("lambda with a denominator has degree %d, "
                            "above the cap %d of its gcd"
                            % (degree, _LAMBDA_GCD_DEGREE_CAP))

    def dense(f):
        coeffs = [spec.zero()] * (1 + max(e for e, in f.terms))
        for (e,), c in f.terms.items():
            coeffs[e] = c
        return CPoly(spec, coeffs)

    def sparse(f):
        return MPoly(spec, 1, {(i,): c for i, c in enumerate(f.coeffs)})

    num, den = dense(lam.num), dense(lam.den)
    g = num.gcd(den)
    return MRatFun(sparse(num.exact_div(g)), sparse(den.exact_div(g)))


def _solve_terms(terms, coeffs, nmax, spec):
    """All tuples of positive n_i with sum c_i t^(n_i) equal to the
    polynomial given by the exponent->coefficient dict."""
    if not coeffs:
        return [()] if not terms else []
    if len(coeffs) == 1:
        c = coeffs[0]
        if c.is_zero():
            return [(n,) for n in range(1, nmax + 1)] if not terms else []
        if len(terms) != 1:
            return []
        (n,), coeff = next(iter(terms.items()))
        if n >= 1 and n <= nmax and coeff == c:
            return [(n,)]
        return []
    out = []
    c = coeffs[0]
    for n in range(1, nmax + 1):
        rest = dict(terms)
        key = (n,)
        cur = rest.get(key, spec.zero()) - c
        if cur.is_zero():
            rest.pop(key, None)
        else:
            rest[key] = cur
        if len(rest) > len(coeffs) - 1:
            continue
        for tail in _solve_terms(rest, coeffs[1:], nmax, spec):
            out.append((n,) + tail)
    return out


def solve_lambda_eq(inst, m):
    """The tuples (n_1..n_r) of positive integers with
    lambda^m = c_0 + sum c_i t^(n_i) and every n_i <= nmax, where nmax
    is the largest exponent of lambda^m - c_0 (1 if there is none).

    This is not every solution when some of c_1..c_r sum to zero: terms
    above nmax may cancel among themselves (over F_3, lambda = t,
    c = (0, 1, 1, 2), m = 2 is solved by (2, n, n) for every n).  The
    answer to "is m solvable" is still exact: in a solution, the terms
    with n_i > nmax cancel in groups of equal exponent, so moving each
    such n_i to 1 adds zero and leaves a solution within the bound."""
    if m < 1:
        raise ValueError("exponent m must be >= 1")
    if inst.r > 3:
        raise CapacityError("lambda equation with r = %d terms; the solver "
                            "handles r <= 3" % inst.r)
    lm = inst.power(m)
    if not lm.is_polynomial():
        return []
    spec = inst.spec
    d = dict(lm.num.terms)
    zero_key = (0,)
    cur = d.get(zero_key, spec.zero()) - inst.c[0]
    if cur.is_zero():
        d.pop(zero_key, None)
    else:
        d[zero_key] = cur
    if any(e[0] == 0 for e in d):
        return []
    nmax = max([e[0] for e in d] + [1])
    return _solve_terms(d, inst.c[1:], nmax, spec)


def lambda_density(inst, M):
    """(solvable set S intersected with [1, M], |S|/M) by exact sweep."""
    if M < 1:
        raise ValueError("sweep length M must be >= 1")
    S = [m for m in range(1, M + 1) if solve_lambda_eq(inst, m)]
    return S, len(S) / M


def vandermonde_check(lambdas, N, r):
    """Does c_1 lambda_1^n + ... + c_r lambda_r^n = 0 for the r
    consecutive exponents n = N..N+r-1 force all c_i = 0?  Always true
    for pairwise-distinct nonzero lambdas (Vandermonde); preconditions
    are checked and violations raise."""
    lambdas = list(lambdas)
    if r < 1 or len(lambdas) != r:
        raise ValueError("need r >= 1 lambdas, got %d for r = %d"
                         % (len(lambdas), r))
    if any(x.is_zero() for x in lambdas):
        raise ValueError("lambdas must be nonzero")
    for i in range(r):
        for j in range(i + 1, r):
            if lambdas[i] == lambdas[j]:
                raise ValueError("lambdas must be pairwise distinct")
    rows = [[x ** n for x in lambdas] for n in range(N, N + r)]
    return len(rref(rows, r)[1]) == r
