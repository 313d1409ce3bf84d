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

from .fields import CPoly, barrett_slots, rref
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
    # A point with polynomial coordinates is looked up by its key; it
    # can still equal a kept point with a denominator, such as (t^2)/(t)
    # = t, which MRatFun keeps unreduced.  Other points are compared with
    # every kept point.
    out, keys, fractions = [], set(), []
    for ns in itertools.product(range(lo, B + 1), repeat=r):
        base = desc.gamma0
        for g, k, n in zip(desc.gammas, desc.ks, ns):
            base = _point_add(base, _point_frobenius(g, n * k))
        for h, _ in h_elems:
            pt = _point_add(base, h)
            if all(x.is_polynomial() for x in pt):
                key = tuple(frozenset((e, c.packed)
                                      for e, c in x.num.terms.items())
                            for x in pt)
                if key in keys or any(_point_eq(pt, q) for q in fractions):
                    continue
                keys.add(key)
            elif any(_point_eq(pt, q) for q in out):
                continue
            else:
                fractions.append(pt)
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

    `lam` is lambda in lowest terms.  A polynomial lambda and its powers
    are held in one univariate form (see `_PackedPowers` for F_p and
    `_CPolyPowers` for ell > 1); no power of any other lambda is a
    polynomial, so its powers are never formed.  `last_power` is the
    last power handed out by `power`, as (m, lambda^m) in that form; it
    starts at (0, 1)."""

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
        self._powers = None
        if self.lam.is_polynomial():
            kind = _PackedPowers if self.spec.ell == 1 else _CPolyPowers
            self._powers = kind(self.spec, self.lam.num)
            self._degree = max(e for e, in self.lam.num.terms)
        self.last_power = (0, None if self._powers is None
                           else self._powers.one)

    def power(self, m):
        """lambda^m of a polynomial lambda, one step x -> x * lambda at a
        time from the last power handed out: one step when m follows it,
        as in a sweep over m = 1, 2, ...; from 1 when m is below it.
        The powers are dense, so their degree is capped (CapacityError)."""
        if m * self._degree > _LAMBDA_POWER_DEGREE_CAP:
            raise CapacityError("lambda^%d has degree %d, above the cap %d "
                                "of its dense powers"
                                % (m, m * self._degree,
                                   _LAMBDA_POWER_DEGREE_CAP))
        last_m, x = self.last_power
        if m < last_m:
            last_m, x = 0, self._powers.one
        step = self._powers.step
        for _ in range(m - last_m):
            x = step(x)
        self.last_power = (m, x)
        return x

    def __repr__(self):
        return "LambdaEqInstance(lambda=%r, c=%r)" % (self.lam, self.c)


class _PackedPowers:
    """Powers of a polynomial lambda over F_p as one Kronecker-packed
    int: bit n is the coefficient of t^n for p = 2, and for odd p the
    coefficient sits as a digit in [0, p) in the w-bit slot n.  A step is
    carry-less for p = 2 (one XOR of a shifted copy per term of lambda)
    and one int product for odd p, whose slots are then all taken mod p
    at once (FieldSpec._reduce's Barrett form, with slots wide enough for
    the largest slot sum x_max = terms(lambda) * (p-1)^2)."""

    one = 1

    def __init__(self, spec, lam):
        self.spec, p, terms = spec, spec.p, lam.terms
        if p == 2:
            self._w, self._shifts = 1, tuple(e for e, in terms)
            return
        self._shift, self._recip, w = barrett_slots(
            p, len(terms) * (p - 1) ** 2)
        self._w = w
        self._lam = sum(c.packed << (w * e) for (e,), c in terms.items())
        # per-slot masks over `_span` bits, doubled as the powers grow:
        # quotient bits, 2^(w-1) - 1 to add, and the top bit
        self._span = w
        self._masks = ((1 << (w - self._shift)) - 1, (1 << (w - 1)) - 1,
                       1 << (w - 1))

    def step(self, x):
        if self.spec.p == 2:
            out = 0
            for e in self._shifts:
                out ^= x << e
            return out
        x *= self._lam
        while self._span < x.bit_length():
            self._masks = tuple(k | k << self._span for k in self._masks)
            self._span *= 2
        return x - (((x * self._recip) >> self._shift) & self._masks[0]) \
            * self.spec.p

    def terms(self, x, c0, r):
        """The terms {(n,): c} of x - c_0, or None when x - c_0 keeps a
        constant term or has more than r terms.  Read with whole-int
        operations: the nonzero coefficients are the set bits (p = 2), or
        the slots whose top bit is set once 2^(w-1) - 1 is added to every
        digit; only the at most r terms of an answer are built, by lowest
        set bit."""
        w, spec = self._w, self.spec
        slot = (1 << w) - 1
        if (x & slot) != c0.packed:
            return None
        x -= c0.packed
        tops = x if w == 1 else (x + self._masks[1]) & self._masks[2]
        if tops.bit_count() > r:
            return None
        out = {}
        while tops:
            bit = tops & -tops
            tops ^= bit
            n = bit.bit_length() // w - 1
            out[(n,)] = spec.from_int((x >> (w * n)) & slot)
        return out


class _CPolyPowers:
    """Powers of a polynomial lambda over F_q, ell > 1, as CPoly: a step
    is one packed schoolbook product by lambda."""

    def __init__(self, spec, lam):
        self._lam = _dense(lam)
        self.one = CPoly.one(spec)

    def step(self, x):
        return x * self._lam

    def terms(self, x, c0, r):
        """As `_PackedPowers.terms`."""
        if x.coeff(0) != c0:
            return None
        support = [n for n, v in enumerate(x._c) if v and n]
        if len(support) > r:
            return None
        return {(n,): x.coeff(n) for n in support}


_LAMBDA_GCD_DEGREE_CAP = 1 << 10
_LAMBDA_POWER_DEGREE_CAP = 1 << 20


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

    def sparse(f):
        return MPoly(spec, 1, {(i,): c for i, c in enumerate(f.coeffs)})

    num, den = _dense(lam.num), _dense(lam.den)
    g = num.gcd(den)
    return MRatFun(sparse(num.exact_div(g)), sparse(den.exact_div(g)))


def _dense(f):
    """A nonzero MPoly in one variable as a CPoly."""
    coeffs = [f.spec.zero()] * (1 + max(e for e, in f.terms))
    for (e,), c in f.terms.items():
        coeffs[e] = c
    return CPoly(f.spec, coeffs)


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
    if inst._powers is None:
        return []
    terms = inst._powers.terms(inst.power(m), inst.c[0], inst.r)
    if terms is None:
        return []
    nmax = max([n for n, in terms] + [1])
    return _solve_terms(terms, inst.c[1:], nmax, inst.spec)


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
