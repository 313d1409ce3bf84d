"""Splitting a dominant additive endomorphism into a Frobenius-diagonal
part and a multiplicatively independent part.

The pipeline: factor the minimal polynomial over the center F_p(s),
classify each irreducible factor (does some power of its roots equal a
power of s?), raise the map to a suitable power, conjugate it into block
diagonal form by central idempotents, put the Frobenius part in Jordan
form, and power up once more until the Frobenius part is exactly
diagonal.
"""

import itertools
import math

from .fields import (CPoly, FieldSpec, RatFun, char_poly, lift_cpoly,
                     mat_mul, power)
from .fqfactor import factor as fq_factor, powmod, pth_root
from .skew import (CenterPoly, SkewElem, SkewMatrix, SplitSelfCheckError,
                   column_space_basis, companion_matrix, matrix_inverse,
                   min_poly_center, right_kernel)


class CapacityError(ValueError):
    """A degree or size cap of the engine was exceeded."""


class NonDominantError(ValueError):
    """The endomorphism is not dominant (minimal polynomial has root 0)."""


# ---------------------------------------------------------------------------
# factorization of monic polynomials in x over F_p(s)

_DEGREE_CAP_X = 64
_DEGREE_CAP_S = 256


def _lift_ratfun(rf, spec):
    """A RatFun with prime-field coefficients, mapped into F_q(s) for
    another q = p^ell of the same p (down to F_p or back up)."""
    return RatFun(lift_cpoly(rf.num, spec), lift_cpoly(rf.den, spec),
                  _canonical=True)


def factor_center(r):
    """Factor a monic CenterPoly with F_p(s) coefficients into monic
    irreducibles over F_p(s); returns a list of (factor, multiplicity).
    """
    if r.is_zero():
        raise ValueError("cannot factor zero")
    if not r.leading().is_one():
        raise ValueError("input must be monic")
    r.assert_prime_field()
    spec = r.spec
    if r.degree > _DEGREE_CAP_X:
        raise CapacityError("x-degree %d exceeds cap %d"
                            % (r.degree, _DEGREE_CAP_X))
    fp = FieldSpec.get(spec.p, 1)
    rd = CenterPoly(fp, [_lift_ratfun(c, fp) for c in r.coeffs])
    found = _factor_prime(rd)
    out = [(CenterPoly(spec, [_lift_ratfun(c, spec) for c in g.coeffs]), m)
           for g, m in found.items()]
    out.sort(key=lambda t: (t[0].degree, t[1]))
    # exactness check: the product must reconstruct the input
    prod = CenterPoly.one(spec)
    for g, m in out:
        prod = prod * g ** m
    if prod != r:
        raise SplitSelfCheckError("factorization does not multiply back")
    return out


def _factor_prime(f):
    """Recursive full factorization of monic f over F_p(s); returns a
    dict irreducible -> multiplicity."""
    result = {}
    if f.degree < 1:
        return result
    p = f.spec.p
    fx = f.derivative()
    if fx.is_zero():
        # f = g(x^p); factor g, then handle each piece
        g = CenterPoly(f.spec, [f.coeff(i) for i in range(0, f.degree + 1, p)])
        for h, m in _factor_prime(g).items():
            rooted = _pth_root_coeffs(h)
            if rooted is not None:
                # h(x^p) = rooted(x)^p
                for irr, mm in _factor_prime(rooted).items():
                    result[irr] = result.get(irr, 0) + m * mm * p
            else:
                hxp = CenterPoly(f.spec, _spread(h.coeffs, p, f.spec))
                result[hxp] = result.get(hxp, 0) + m
        return result
    c = f.gcd(fx)
    w = f.exact_div(c)  # squarefree, contains each factor of f with p∤mult
    for irr in _factor_squarefree(w):
        result[irr] = result.get(irr, 0) + 1
    if c.degree > 0:
        for irr, m in _factor_prime(c).items():
            result[irr] = result.get(irr, 0) + m
    return result


def _spread(coeffs, p, spec):
    out = []
    for c in coeffs:
        out.append(c)
        out.extend([RatFun.zero(spec)] * (p - 1))
    return out[:len(out) - (p - 1)] if coeffs else []


def _pth_root_coeffs(h):
    """If every coefficient of h lies in F_p(s^p), return the polynomial
    with p-th-rooted coefficients; else None."""
    out = []
    for c in h.coeffs:
        try:
            out.append(RatFun(pth_root(c.num), pth_root(c.den)))
        except ValueError:
            return None
    return CenterPoly(h.spec, out)


def _factor_squarefree(g):
    """Monic squarefree g over F_p(s) (gcd(g, g') = 1) -> list of monic
    irreducible factors."""
    spec = g.spec  # F_p with ell = 1
    if g.degree <= 1:
        return [g] if g.degree == 1 else []
    # clear denominators: g2(x) = d^n * g(x/d) has coefficients in F_p[s]
    d = CPoly.one(spec)
    for c in g.coeffs:
        if not c.den.is_one():
            d = d.lcm(c.den)
    n = g.degree
    biv = []
    for i, c in enumerate(g.coeffs):
        scaled = c * RatFun(d ** (n - i), _canonical=True)
        if not scaled.den.is_one():
            raise SplitSelfCheckError("clearing by the lcm left a "
                                      "denominator")
        biv.append(scaled.num)
    degs = max(c.degree for c in biv)
    if degs > _DEGREE_CAP_S:
        raise CapacityError("s-degree %d exceeds cap %d"
                            % (degs, _DEGREE_CAP_S))
    if degs == 0:
        # really a univariate polynomial over F_p
        uni = CPoly(spec, [c.coeff(0) for c in biv])
        _, facs = fq_factor(uni)
        pieces = [CenterPoly(spec, [RatFun.constant(cc) for cc in irr.coeffs])
                  for irr, _ in facs]
    else:
        pieces = _factor_bivariate(biv, spec)
    # undo the x -> x/d substitution: factor h of g2 gives d^{-deg h} h(dx)
    if d.is_one():
        return pieces
    out = []
    dr = RatFun(d, _canonical=True)
    for h in pieces:
        m = h.degree
        out.append(CenterPoly(spec, [h.coeff(i) * dr ** (i - m)
                                     for i in range(m + 1)]))
    return out


def _find_good_specialization(biv, spec):
    """Field element a with squarefree image biv(s=a, x); searches
    extensions of increasing degree deterministically."""
    for k in range(1, 9):
        ext = FieldSpec.get(spec.p, k)
        for a in ext.all_elements():
            ga = CPoly(ext, [c.evaluate(a) for c in biv])
            if ga.gcd(ga.derivative()).degree == 0:
                return ext, a, ga
    raise CapacityError("no squarefree specialization found up to degree 8")


def _xpoly_mul(f, g, B):
    """Product of x-polynomials with truncated-CPoly coefficients."""
    spec = f[0].spec
    z = CPoly.zero(spec)
    out = [z] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            if b.is_zero():
                continue
            prod = a * b
            out[i + j] = out[i + j] + CPoly(spec, prod.coeffs[:B])
    return [CPoly(spec, c.coeffs[:B]) for c in out]


def _hensel_lift(ft, g0, h0, B):
    """Given ft (x-poly with CPoly-in-t coefficients, monic in x) with
    ft == g0*h0 mod t and gcd(g0, h0) = 1, lift to G monic with
    ft == G*H mod t^B.  Returns G as an x-coefficient list of CPoly."""
    spec = g0.spec
    _, u, v = g0.xgcd(h0)
    G = [CPoly.constant(c) for c in g0.coeffs]
    H = [CPoly.constant(c) for c in h0.coeffs]
    for m in range(1, B):
        prod = _xpoly_mul(G, H, B)
        err = [ft[i] - (prod[i] if i < len(prod) else CPoly.zero(spec))
               for i in range(len(ft))]
        e = CPoly(spec, [c.coeff(m) for c in err])
        if e.is_zero():
            continue
        q, dg = (v * e).divmod(g0)
        dh = u * e + q * h0
        if dg.degree >= g0.degree or dh.degree >= h0.degree:
            raise SplitSelfCheckError("Hensel step exceeds the factor "
                                      "degrees")
        for j in range(dg.degree + 1):
            G[j] = G[j] + CPoly.monomial(spec, dg.coeff(j), m)
        for j in range(dh.degree + 1):
            H[j] = H[j] + CPoly.monomial(spec, dh.coeff(j), m)
    return G


def _factor_bivariate(biv, spec):
    """Factor a monic-in-x squarefree polynomial with F_p[s] coefficients
    (biv = list of CPoly over F_p, leading entry 1) into monic
    irreducibles over F_p(s).

    Evaluation at a squarefree specialization s = a, univariate
    factorization, Hensel lifting to s-precision deg_s + 1 (which bounds
    any monic factor's s-degree), and subset recombination with exact
    trial division."""
    ext, a, ga = _find_good_specialization(biv, spec)
    _, local = fq_factor(ga)
    locals_ = [irr for irr, _ in local]
    remaining_cp = CenterPoly(spec, [RatFun(c, _canonical=True) for c in biv])
    if len(locals_) == 1:
        return [remaining_cp]
    B = max(c.degree for c in biv) + 1
    # shift into the local parameter t = s - a
    ft = [lift_cpoly(c, ext).shift_var(a) for c in biv]
    lifted = []
    for gi in locals_:
        hi = ga.exact_div(gi)
        lifted.append(_hensel_lift(ft, gi, hi, B))
    factors = []
    pool = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(pool):
        progress = False
        for subset in itertools.combinations(pool, size):
            cand = _recombine(lifted, subset, a, B, spec, ext)
            if cand is None:
                continue
            q, rem = remaining_cp.divmod(cand)
            if rem.is_zero():
                factors.append(cand)
                remaining_cp = q
                pool = [i for i in pool if i not in subset]
                progress = True
                break
        if not progress:
            size += 1
    if remaining_cp.degree > 0:
        factors.append(remaining_cp)
    return factors


def _recombine(lifted, subset, a, B, spec, ext):
    """Product of the chosen lifted local factors, pulled back to the s
    variable; None unless all coefficients land in F_p[s]."""
    prod = [CPoly.one(ext)]
    for i in subset:
        prod = _xpoly_mul(prod, lifted[i], B)
    out = []
    for c in prod:
        cs = c.shift_var(-a)
        if not cs.in_prime_field():
            return None
        out.append(RatFun(lift_cpoly(cs, spec), _canonical=True))
    return CenterPoly(spec, out)


# ---------------------------------------------------------------------------
# classification of irreducible factors

class FactorClassification:
    """Verdict for one irreducible factor of the central minimal
    polynomial: Frobenius type (some power of each root is a power of s)
    or multiplicatively independent of s."""

    FROBENIUS = "frobenius"
    INDEPENDENT = "independent"

    def __init__(self, factor, kind, n=None, j=None, reason=""):
        self.factor = factor
        self.kind = kind
        self.n = n
        self.j = j
        self.reason = reason

    def is_frobenius(self):
        return self.kind == self.FROBENIUS

    def __repr__(self):
        if self.kind == self.FROBENIUS:
            return "FrobeniusType(n=%d, j=%d)" % (self.n, self.j)
        return self.kind


def _monomial_of(rf):
    """(unit, exponent) if rf = unit * s^k with unit in F_q^*; else None.
    Negative exponents are allowed (unit * s^-k)."""
    nterms = [i for i, c in enumerate(rf.num.coeffs) if not c.is_zero()]
    dterms = [i for i, c in enumerate(rf.den.coeffs) if not c.is_zero()]
    if len(nterms) != 1 or len(dterms) != 1:
        return None
    unit = rf.num.coeffs[nterms[0]] / rf.den.coeffs[dterms[0]]
    return unit, nterms[0] - dterms[0]


_TRIAL_DIVISION_CAP = 1 << 20


def _prime_divisors(N):
    """The distinct primes dividing N >= 1, by trial division up to 2^20.
    A cofactor left above 2^40 may be composite: CapacityError."""
    primes = []
    q = 2
    while q * q <= N:
        if q > _TRIAL_DIVISION_CAP:
            raise CapacityError("factoring %d needs trial division past %d"
                                % (N, _TRIAL_DIVISION_CAP))
        if N % q == 0:
            primes.append(q)
            while N % q == 0:
                N //= q
        q += 1 if q == 2 else 2
    if N > 1:
        primes.append(N)
    return primes


def _order_of_root(f):
    """Multiplicative order of y in F_p[y]/(f), for f monic irreducible
    over F_p other than y: the divisor of p^(deg f) - 1 left after
    removing each prime factor while y to the quotient is still 1."""
    y = CPoly.s(f.spec)
    one = CPoly.one(f.spec)
    order = f.spec.p ** f.degree - 1
    for q in _prime_divisors(order):
        while order % q == 0 and powmod(y, order // q, f) == one:
            order //= q
    return order


def classify_factor(g):
    """Classify a monic irreducible g over F_p(s): FrobeniusType{n, j}
    with minimal n >= 1 such that every root u satisfies u^n = s^j with
    j >= 0, or Independent.

    The test is exact.  Let d = deg g and c0 = g(0), up to sign the
    norm of u.  If u^n = s^j, taking norms gives c0^n = +-s^(jd), so c0
    is a unit times s^k (else Independent: the norm filter) and kn = jd.
    With k < 0 no power of u is s^j with j >= 0: Independent.  So
    t0 = d / gcd(d, k) divides n and j = kn/d, and with
    w = u^t0 * s^(-k*t0/d) the valid n are exactly t0*m with w^m = 1.
    W = C^t0 * s^(-k*t0/d), C the companion matrix of g, is the matrix
    of w in F_p(s)[x]/(g); its characteristic polynomial is a power of
    the minimal polynomial of w over F_p(s).  w is a root of unity iff
    it is algebraic over F_p, that is iff that characteristic polynomial
    lies in F_p[y], because F_p is algebraically closed in F_p(s).  Then
    it is f^r with f irreducible over F_p, ord(w) is the order of y in
    F_p[y]/(f), n = t0 * ord(w), and the answer is checked once against
    the defining identity char_poly(C^n) = (x - s^j)^d."""
    spec = g.spec
    d = g.degree
    if d < 1:
        raise ValueError("constant polynomial cannot be classified")
    c0 = g.constant_term()
    if c0.is_zero():
        raise ValueError("factor has root zero (non-dominant source)")
    mono = _monomial_of(c0)
    if mono is None:
        return FactorClassification(g, FactorClassification.INDEPENDENT,
                                    reason="norm filter: constant term is "
                                           "not a unit times a monomial")
    k = mono[1]
    if k < 0:
        return FactorClassification(g, FactorClassification.INDEPENDENT,
                                    reason="norm filter: constant term is "
                                           "a negative power of s")
    t0 = d // math.gcd(d, k)
    k0 = k * t0 // d
    Ct0 = power(companion_matrix(g), t0, None, mat_mul)
    inv_s_k0 = RatFun(CPoly.one(spec), CPoly.monomial(spec, spec.one(), k0),
                      _canonical=True)
    chi = char_poly([[e * inv_s_k0 for e in row] for row in Ct0])
    if any(c.num.degree > 0 or not c.is_polynomial() for c in chi):
        return FactorClassification(g, FactorClassification.INDEPENDENT,
                                    reason="x^%d / s^%d is not a root of "
                                           "unity" % (t0, k0))
    fp = FieldSpec.get(spec.p, 1)
    _, facs = fq_factor(lift_cpoly(CPoly(spec, [c.num.coeff(0) for c in chi]),
                                   fp))
    if len(facs) != 1:
        raise SplitSelfCheckError("characteristic polynomial of a root of "
                                  "unity is not a power of one irreducible")
    order = _order_of_root(facs[0][0])
    n = t0 * order
    j = k * n // d
    target = CenterPoly.x_minus(RatFun(
        CPoly.monomial(spec, spec.one(), j), _canonical=True)) ** d
    if CenterPoly(spec, char_poly(power(Ct0, order, None, mat_mul))) \
            != target:
        raise SplitSelfCheckError("roots of %r to the power %d are not s^%d"
                                  % (g, n, j))
    return FactorClassification(g, FactorClassification.FROBENIUS, n=n, j=j)


# ---------------------------------------------------------------------------
# Jordan form for central eigenvalues

def _col_matrix(spec, vecs, n):
    return SkewMatrix(spec, [[v[i] for v in vecs] for i in range(n)])


def jordan_form_central(A0, factors):
    """Jordan form of a SkewMatrix whose minimal polynomial splits into
    (x - s^k)^e factors over F_p(s); `factors` holds the (factor,
    multiplicity) pairs of that minimal polynomial.

    For each eigenvalue s^k, with M = A0 - s^k, the chain heads of length
    j are the vectors of ker M^j independent of ker M^(j-1) and of the
    level-j members of the longer chains: the pivot columns past that
    base in one elimination of [base | ker M^j].

    Returns (Pj, Pj_inv, blocks) with Pj invertible, Pj^{-1}*A0*Pj
    exactly the Jordan matrix, and blocks a list of (exponent k, size)
    pairs."""
    spec = A0.spec
    n = A0.rows
    eigen = []
    for gfac, mult in factors:
        if gfac.degree != 1:
            raise ValueError("non-central eigenvalue data (nonlinear factor)")
        root = -gfac.coeff(0)
        mono = _monomial_of(root) if not root.is_zero() else None
        if mono is None or not mono[0].is_one() or mono[1] < 0 \
                or not root.den.is_one():
            raise ValueError("non-central eigenvalue data (root %r)" % root)
        eigen.append((mono[1], root, mult))
    eigen.sort()
    all_chains = []  # (exponent, chain)
    for k, root, e in eigen:
        M = A0.shift_central(-root)
        kernels = [[]] + [right_kernel(M ** j) for j in range(1, e + 1)]
        chains = []
        for j in range(e, 0, -1):
            base = kernels[j - 1] + [c[-j] for c in chains if len(c) >= j]
            vecs = base + kernels[j]
            # a kernel basis is independent: with no base, each heads a chain
            heads = column_space_basis(_col_matrix(spec, vecs, n)) \
                if base else range(len(vecs))
            for col in heads:
                if col < len(base):
                    continue
                cur = vecs[col]
                chain = [cur]
                for _ in range(j - 1):
                    cur = [sum((M.entries[i][t] * cur[t]
                                for t in range(n)),
                               SkewElem.zero(spec)) for i in range(n)]
                    chain.append(cur)
                chains.append(chain)
        all_chains.extend((k, c) for c in chains)
    # assemble the basis: within each chain, deepest image first
    cols = []
    blocks = []
    for k, chain in all_chains:
        blocks.append((k, len(chain)))
        cols.extend(reversed(chain))
    if len(cols) != n:
        raise SplitSelfCheckError("Jordan basis does not span")
    Pj = _col_matrix(spec, cols, n)
    Pj_inv = matrix_inverse(Pj)
    return Pj, Pj_inv, blocks


def power_up(p, blocks):
    """Smallest a with p^a >= every Jordan block size, plus the merged
    diagonal blocks after raising to the p^a power.

    blocks: list of (exponent k, size); the block J_{s^k, m} raised to
    the p^a becomes s^{k*p^a} * I_m.  Returns (a, [(n_i, m_i)]) with
    distinct n_i."""
    if not blocks:
        return 0, []
    maxsize = max(m for _, m in blocks)
    a = 0
    while p ** a < maxsize:
        a += 1
    merged = {}
    for k, m in blocks:
        key = k * p ** a
        merged[key] = merged.get(key, 0) + m
    return a, sorted(merged.items())


# ---------------------------------------------------------------------------
# the splitting pipeline

class SplitData:
    """Everything produced by split_endomorphism.

    P * A^n * P^{-1} = A0 (+) A1 exactly, where A0 is the diagonal
    matrix of the Frobenius blocks F^{n_i*ell} I_{m_i} and A1 has minimal
    polynomial r1 with multiplicatively independent roots.  h is a
    nonzero element of F_p[s] clearing the central denominators of P,
    P^{-1}, and the powers A1^i for i < deg r1."""

    def __init__(self, spec, n, P, P_inv, blocks, A0, A1, h, r0, r1,
                 a, classifications):
        self.spec = spec
        self.n = n
        self.P = P
        self.P_inv = P_inv
        self.blocks = blocks        # list of (n_i, m_i), distinct n_i
        self.A0 = A0                # N0 x N0 SkewMatrix (diagonal)
        self.A1 = A1                # N1 x N1 SkewMatrix
        self.h = h                  # CPoly over F_q, prime-field coeffs
        self.r0 = r0
        self.r1 = r1
        self.a = a                  # power-up exponent (p^a factor of n)
        self.classifications = classifications

    @property
    def N0(self):
        return self.A0.rows

    @property
    def N1(self):
        return self.A1.rows

    def min_ni(self):
        return min((k for k, _ in self.blocks), default=None)

    def max_mi(self):
        return max((m for _, m in self.blocks), default=0)


def _direct_sum_check(P, B, P_inv, A0, A1):
    lhs = P * B * P_inv
    return lhs == A0.direct_sum(A1)


def split_endomorphism(A):
    """Split a dominant endomorphism given as a SkewMatrix (or grid of
    OrePoly) over F_q[F].  Returns SplitData."""
    if not isinstance(A, SkewMatrix):
        spec = A[0][0].spec
        A = SkewMatrix.from_ore(spec, A)
    spec = A.spec
    p = spec.p
    r = min_poly_center(A)
    if r.constant_term().is_zero():
        raise NonDominantError("minimal polynomial has zero constant term")
    facs = factor_center(r)
    classes = [classify_factor(g) for g, _ in facs]
    # one power-up round suffices: if u^(n_i) = s^(j_i) then u^n =
    # s^(j_i*n/n_i) for n = lcm(n_i), and if some (u^n)^m were s^j, u
    # would be of Frobenius type itself
    n = math.lcm(*(cls.n for cls in classes if cls.is_frobenius()))
    B = A
    if n > 1:
        B = A ** n
        r = min_poly_center(B)
        facs = factor_center(r)
        classes = [classify_factor(g) for g, _ in facs]
        if any(cls.is_frobenius() and cls.n != 1 for cls in classes):
            raise SplitSelfCheckError("a Frobenius factor of A^%d still "
                                      "needs a power" % n)
    # partition the minimal polynomial
    r0 = CenterPoly.one(spec)
    r1 = CenterPoly.one(spec)
    for (g, m), cls in zip(facs, classes):
        if cls.is_frobenius():
            r0 = r0 * g ** m
        else:
            r1 = r1 * g ** m
    N = A.rows
    if r0.degree == 0 or r1.degree == 0:
        Q = Q_inv = SkewMatrix.identity(spec, N)
        N0 = N if r1.degree == 0 else 0
        A0_pre = B.submatrix(0, N0, 0, N0)
        A1_pre = B.submatrix(N0, N, N0, N)
    else:
        # u0*r0 + u1*r1 = 1, so (u0*r0)(B) = I - (u1*r1)(B)
        one, _, u1 = r0.xgcd(r1)
        if not one.is_one():
            raise SplitSelfCheckError("r0, r1 are not coprime")
        E0 = (u1 * r1).evaluate_matrix(B)
        E1 = SkewMatrix.identity(spec, N) - E0
        cols0 = [ [E0.entries[i][j] for i in range(N)]
                  for j in column_space_basis(E0) ]
        cols1 = [ [E1.entries[i][j] for i in range(N)]
                  for j in column_space_basis(E1) ]
        if len(cols0) + len(cols1) != N:
            raise SplitSelfCheckError("idempotent images do not span")
        Q = _col_matrix(spec, cols0 + cols1, N)
        Q_inv = matrix_inverse(Q)
        C = Q_inv * B * Q
        N0 = len(cols0)
        A0_pre = C.submatrix(0, N0, 0, N0)
        A1_pre = C.submatrix(N0, N, N0, N)
        if not (C.submatrix(0, N0, N0, N).is_zero()
                and C.submatrix(N0, N, 0, N0).is_zero()):
            raise SplitSelfCheckError("off-diagonal blocks are not zero")
    # Jordanize the Frobenius part, then power up to pure diagonal; B
    # restricted to ker r0(B) has minimal polynomial r0, whose factors
    # are the Frobenius ones of r
    Pj, Pj_inv, jblocks = jordan_form_central(
        A0_pre, [f for f, cls in zip(facs, classes) if cls.is_frobenius()])
    a, merged = power_up(p, jblocks)
    n_final = n * p ** a
    B_final = B ** (p ** a)  # B itself when a = 0
    I1 = SkewMatrix.identity(spec, N - N0)
    P = Pj_inv.direct_sum(I1) * Q_inv
    P_inv = Q * Pj.direct_sum(I1)
    # final blocks
    diag = [k for k, m in merged for _ in range(m)]
    A0 = SkewMatrix(spec, [[SkewElem.F(spec, diag[i] * spec.ell)
                            if i == j else SkewElem.zero(spec)
                            for j in range(N0)] for i in range(N0)])
    A1 = A1_pre ** (p ** a)
    if not _direct_sum_check(P, B_final, P_inv, A0, A1):
        raise SplitSelfCheckError("block-diagonal identity failed")
    # minimal polynomial bookkeeping for the powered map
    r0_final = CenterPoly.one(spec)
    for k, _ in merged:
        r0_final = r0_final * CenterPoly.x_minus(
            RatFun(CPoly.monomial(spec, spec.one(), k), _canonical=True))
    if not A1.rows:
        r1_final = CenterPoly.one(spec)
    elif N0 == 0:
        r1_final = r  # no Frobenius part: A1 is B itself
    else:
        r1_final = min_poly_center(A1)
    if not r0_final.gcd(r1_final).is_one():
        raise SplitSelfCheckError("r0 and r1 of the powered map share a "
                                  "factor")
    r_final = r if a == 0 else min_poly_center(B_final)
    if r_final != r0_final * r1_final:
        raise SplitSelfCheckError("minimal polynomial of the powered map "
                                  "is not r0*r1")
    # central denominator clearing element h: the lcm of the c that
    # SkewElem.clear_central gives each entry, taken over the distinct
    # denominators of their parts (lcm is associative and monic)
    dens = set()

    def absorb(matrix):
        dens.update(a.den for row in matrix.entries for e in row
                    for a in e.parts if a.den._c != (1,))

    absorb(P)
    absorb(P_inv)
    if A1.rows:
        A1_k = SkewMatrix.identity(spec, A1.rows)
        for _ in range(max(r1_final.degree, 1)):
            absorb(A1_k)
            A1_k = A1_k * A1
    h = CPoly.one(spec)
    for den in dens:
        h = h.lcm(den.norm_to_prime())
    if not h.in_prime_field() or h.is_zero():
        raise SplitSelfCheckError("clearing element h is not a nonzero "
                                  "element of F_p[s]")
    return SplitData(spec, n_final, P, P_inv, merged, A0, A1, h,
                     r0_final, r1_final, a, classes)
