"""Splitting a dominant additive endomorphism into a Frobenius-diagonal
part and a multiplicatively independent part.

The pipeline makes one round over A alone: factor the minimal polynomial
r of A over the center F_p(s), and classify each irreducible factor g
(does some power u^(n_g) = s^(j_g) of its roots equal a power of s?).
B = A^n, n = lcm(n_g), has on ker g(A)^m the one eigenvalue s^k,
k = j_g*n/n_g, of multiplicity at most m.  Then P is built from right
kernels: ker(B^(p^a) - s^(k*p^a)) is the generalized eigenspace of s^k
once p^a reaches its multiplicity, B^(p^a) is the scalar s^(k*p^a) on
it, and a is the least exponent at which these kernels and ker r1(A), r1
the product of the independent g^m, span K^N.  P^{-1} has bases of them
as its columns, so P * B^(p^a) * P^{-1} = A0 (+) A1 with A0 diagonal.
"""

import itertools
import math

from .fields import (CapacityError, CPoly, FieldSpec, RatFun, _poly,
                     char_poly, lift_cpoly, mat_mul, power)
from .fqfactor import (factor as fq_factor, factor_squarefree, powmod,
                       pth_root)
from .skew import (CenterPoly, SkewElem, SkewMatrix, SplitSelfCheckError,
                   companion_matrix, matrix_inverse, min_poly_center,
                   right_kernel)


class NonDominantError(ValueError):
    """The endomorphism is not dominant (minimal polynomial has root 0)."""


# ---------------------------------------------------------------------------
# factorization of monic polynomials in x over F_p(s)
#
# Inside the factorization a polynomial in x is a list of CPoly
# coefficients, lowest degree first: over F_p in s, or over F_{p^k} in the
# local parameter t = s - a.  A polynomial over F_p(s) is held as its
# primitive associate over F_p[s] (coefficients with gcd 1 and a monic
# leading coefficient), which is unique; W stands for the monic W / lc(W).

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

    The factorization runs on the primitive associate L * r over F_p[s],
    L the lcm of the denominators of r, and its factors are made monic
    over F_p(s) again at the end."""
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
    L = CPoly.one(fp)
    for c in r.coeffs:
        if not c.is_polynomial():
            L = L.lcm(lift_cpoly(c.den, fp))
    found = _factor_prime([lift_cpoly(c.num, fp) * (
        L if c.is_polynomial() else L.exact_div(lift_cpoly(c.den, fp)))
        for c in r.coeffs])
    out = [(CenterPoly(spec, [_lift_ratfun(RatFun(c, g[-1]), spec)
                              for c in g]), m)
           for g, m in found.items()]
    out.sort(key=lambda t: (t[0].degree, t[1]))
    # exactness check: the product must reconstruct the input
    prod = CenterPoly.one(spec)
    for g, m in out:
        prod = prod * g ** m
    if prod != r:
        raise SplitSelfCheckError("factorization does not multiply back")
    return out


def _primitive(f):
    """The primitive associate of a polynomial over F_p[s] (a list of
    CPoly, trailing zeros allowed) as a tuple; () for zero."""
    f = list(f)
    while f and f[-1].is_zero():
        f.pop()
    if not f:
        return ()
    g = f[-1]
    for c in f:
        if g.degree == 0:
            break
        g = g.gcd(c)
    if g.degree > 0:
        f = [c.exact_div(g) for c in f]
    lc = f[-1].leading()
    if not lc.is_one():
        inv = lc.inverse()
        f = [c * inv for c in f]
    return tuple(f)


def _prem(a, b):
    """A pseudo-remainder of a by b over F_p[s]: a * lc(b)^e mod b for
    some e >= 0 (a step whose leading coefficient is already 0 does not
    scale)."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem.pop()
        if c.is_zero():
            continue
        if not lb.is_one():
            rem = [r * lb for r in rem]
        for i in range(db):
            rem[k - db + i] = rem[k - db + i] - c * b[i]
    return rem


def _gcd(a, b):
    """gcd over F_p(s) of primitive a and b (deg a >= deg b) by the
    primitive pseudo-remainder sequence over F_p[s]; a primitive
    associate."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _divmod(f, g):
    """(quotient, remainder) of f by g in F_p[s][x], for g monic or a
    divisor of f over F_p(s) with f, g primitive (each step's division by
    lc(g) is then exact in F_p[s], by Gauss's lemma)."""
    rem = list(f)
    dg = len(g) - 1
    lg = g[-1]
    quot = []
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem.pop()
        if not c.is_zero():
            if not lg.is_one():
                c = c.exact_div(lg)
            for i in range(dg):
                rem[k - dg + i] = rem[k - dg + i] - c * g[i]
        quot.append(c)
    while rem and rem[-1].is_zero():
        rem.pop()
    return quot[::-1], rem


def _factor_prime(f):
    """Recursive full factorization of a primitive f over F_p[s] over
    F_p(s); returns a dict irreducible -> multiplicity, irreducibles as
    primitive associates."""
    result = {}
    if len(f) < 2:
        return result
    spec = f[0].spec
    p = spec.p
    fx = _primitive([f[i] * spec.from_int(i) for i in range(1, len(f))])
    if not fx:
        # f = g(x^p); factor g, then handle each piece
        for h, m in _factor_prime(f[::p]).items():
            rooted = _pth_root_coeffs(h)
            if rooted is not None:
                # h(x^p) = rooted(x)^p
                for irr, mm in _factor_prime(rooted).items():
                    result[irr] = result.get(irr, 0) + m * mm * p
            else:
                hxp = _spread(h, p)
                result[hxp] = result.get(hxp, 0) + m
        return result
    c = _gcd(f, fx)
    # squarefree, contains each factor of f with p∤mult
    w = tuple(_divmod(f, c)[0])
    for irr in _factor_squarefree(w):
        result[irr] = result.get(irr, 0) + 1
    if len(c) > 1:
        for irr, m in _factor_prime(c).items():
            result[irr] = result.get(irr, 0) + m
    return result


def _spread(h, p):
    """h(x^p)."""
    out = [CPoly.zero(h[0].spec)] * (p * (len(h) - 1) + 1)
    out[::p] = h
    return tuple(out)


def _pth_root_coeffs(h):
    """If every coefficient of h lies in F_p[s^p], the polynomial with
    p-th-rooted coefficients; else None.  For a primitive h this is the
    test for coefficients in F_p(s^p) of the monic h / lc(h)."""
    try:
        return tuple(pth_root(c) for c in h)
    except ValueError:
        return None


def _factor_squarefree(w):
    """Primitive squarefree w over F_p[s] (gcd(w, w') = 1 over F_p(s))
    -> list of its irreducible factors over F_p(s), primitive."""
    if len(w) <= 2:
        return [w] if len(w) == 2 else []
    spec = w[0].spec  # F_p with ell = 1
    # d = lc(w) is the lcm of the denominators of the monic w / d, and
    # biv(x) = d^(n-1) * w(x/d) is monic with coefficients in F_p[s]
    d = w[-1]
    n = len(w) - 1
    dpow = [CPoly.one(spec)]
    for _ in range(n):
        dpow.append(dpow[-1] * d)
    biv = [c * dpow[n - 1 - i] for i, c in enumerate(w[:-1])] + [dpow[0]]
    degs = max(c.degree for c in biv)
    if degs > _DEGREE_CAP_S:
        raise CapacityError("s-degree %d exceeds cap %d"
                            % (degs, _DEGREE_CAP_S))
    if degs == 0:
        # really a univariate polynomial over F_p
        uni = CPoly(spec, [c.coeff(0) for c in biv])
        pieces = [tuple(CPoly.constant(cc) for cc in irr.coeffs)
                  for irr in factor_squarefree(uni)]
    else:
        pieces = _factor_bivariate(biv, spec)
    # undo the x -> x/d substitution: factor h of biv gives h(dx)
    if d.is_one():
        return pieces
    return [_primitive([c * dpow[i] for i, c in enumerate(h)])
            for h in pieces]


def _find_good_specialization(biv, spec):
    """Field element a with squarefree image biv(s=a, x); searches
    extensions of increasing degree deterministically.  The elements of
    F_p come first in each extension and failed at degree 1, so larger
    degrees skip them."""
    p = spec.p
    for k in range(1, 9):
        ext = FieldSpec.get(p, k)
        add, mul = ext._add, ext._mul
        for a in itertools.islice(ext.all_elements(), p if k > 1 else 0,
                                  None):
            av = a.packed
            vals = []
            for c in biv:
                acc = 0
                for ci in reversed(c._c):
                    acc = add(mul(acc, av), ci)
                vals.append(acc)
            ga = _poly(CPoly, ext, vals)
            if ga.gcd(ga.derivative()).degree == 0:
                return ext, a, ga
    raise CapacityError("no squarefree specialization found up to degree 8")


def _hensel_lift(FT, g0, h0, B):
    """Given FT, the t-major form of a polynomial monic in x (FT[m] the
    x-polynomial coefficient of t^m) with FT[0] = g0*h0 and gcd(g0, h0) =
    1, lift g0 to the monic G with FT == G*H mod t^B.  Returns G t-major,
    as the list of its B coefficients G_m.

    Step m forms only the t^m coefficient of the error,
    e_m = FT_m - sum of G_i*H_(m-i) over 0 < i < m."""
    _, u, v = g0.xgcd(h0)
    G, H = [g0], [h0]
    for m in range(1, B):
        e = FT[m]
        for i in range(1, m):
            if not (G[i].is_zero() or H[m - i].is_zero()):
                e = e - G[i] * H[m - i]
        if e.is_zero():
            G.append(e)
            H.append(e)
            continue
        q, dg = (v * e).divmod(g0)
        dh = u * e + q * h0
        if dg.degree >= g0.degree or dh.degree >= h0.degree:
            raise SplitSelfCheckError("Hensel step exceeds the factor "
                                      "degrees")
        G.append(dg)
        H.append(dh)
    return G


def _factor_bivariate(biv, spec):
    """Factor a monic-in-x squarefree polynomial with F_p[s] coefficients
    (biv = list of CPoly over F_p, leading entry 1) into monic
    irreducibles over F_p(s), as tuples of CPoly.

    Evaluation at a squarefree specialization s = a, univariate
    factorization, Hensel lifting to t-precision deg_s + 1 (which bounds
    any monic factor's s-degree), and subset recombination with exact
    trial division over F_p[s].  A local factor is lifted when a subset
    first needs it."""
    ext, a, ga = _find_good_specialization(biv, spec)
    locals_ = factor_squarefree(ga)
    if len(locals_) == 1:
        return [tuple(biv)]
    B = max(c.degree for c in biv) + 1
    # the t-major form of biv in the local parameter t = s - a
    ft = [lift_cpoly(c, ext).shift_var(a)._c for c in biv]
    FT = [_poly(CPoly, ext, [c[m] if m < len(c) else 0 for c in ft])
          for m in range(B)]
    lifted = [None] * len(locals_)

    def lift(i):
        if lifted[i] is None:
            gi = locals_[i]
            lifted[i] = _hensel_lift(FT, gi, ga.exact_div(gi), B)
        return lifted[i]

    remaining = biv
    factors = []
    pool = list(range(len(locals_)))
    size = 1
    while 2 * size <= len(pool):
        progress = False
        for subset in itertools.combinations(pool, size):
            cand = _recombine([lift(i) for i in subset], a, spec)
            if cand is None:
                continue
            q, rem = _divmod(remaining, cand)
            if not rem:
                factors.append(cand)
                remaining = q
                pool = [i for i in pool if i not in subset]
                progress = True
                break
        if not progress:
            size += 1
    if len(remaining) > 1:
        factors.append(tuple(remaining))
    return factors


def _recombine(parts, a, spec):
    """Product mod t^B of lifted local factors (t-major, B coefficients
    each), pulled back to the s variable; None unless all coefficients
    land in F_p[s]."""
    prod = parts[0]
    ext = prod[0].spec
    for G in parts[1:]:
        prod = [sum((prod[i] * G[m - i] for i in range(m + 1)),
                    CPoly.zero(ext)) for m in range(len(G))]
    out = []
    for j in range(len(prod[0]._c)):
        cs = _poly(CPoly, ext, [P._c[j] if j < len(P._c) else 0
                                for P in prod]).shift_var(-a)
        if not cs.in_prime_field():
            return None
        out.append(lift_cpoly(cs, spec))
    return tuple(out)


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
    the defining identity x^n = s^j mod g."""
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
    s_j = RatFun(CPoly.monomial(spec, spec.one(), j), _canonical=True)
    if powmod(CenterPoly.x(spec), n, g) != CenterPoly(spec, [s_j]):
        raise SplitSelfCheckError("roots of %r to the power %d are not s^%d"
                                  % (g, n, j))
    return FactorClassification(g, FactorClassification.FROBENIUS, n=n, j=j)


# ---------------------------------------------------------------------------
# Jordan form for central eigenvalues

def _col_matrix(spec, vecs, n):
    return SkewMatrix(spec, [[v[i] for v in vecs] for i in range(n)])


def jordan_form_central(B, eigen, dim):
    """Eigenspace bases of B^(p^a) on the Frobenius part, of dimension
    `dim`, of a SkewMatrix B; `eigen` holds a pair (k, e) for each
    eigenvalue s^k of B there, e a bound on its multiplicity.

    In characteristic p, (x - s^k)^(p^a) = x^(p^a) - s^(k*p^a), so once
    p^a reaches the multiplicity, ker(B^(p^a) - s^(k*p^a)) is the
    generalized eigenspace of s^k, on which B^(p^a) is the scalar
    s^(k*p^a).  a is the least exponent at which these kernels reach
    `dim`; past every bound they cannot (SplitSelfCheckError).

    Returns (a, cols, blocks): the right-kernel basis columns of those
    eigenspaces for increasing k, and the (k*p^a, dimension) pairs."""
    spec = B.spec
    a, q, Bq = 0, 1, B
    while True:
        cols, blocks = [], []
        for k, _ in sorted(eigen):
            kernel = right_kernel(Bq.shift_central(
                -RatFun.s(spec) ** (k * q)))
            cols.extend(kernel)
            blocks.append((k * q, len(kernel)))
        if len(cols) == dim:
            return a, cols, blocks
        if all(q >= e for _, e in eigen):
            raise SplitSelfCheckError("kernels do not span")
        a, q, Bq = a + 1, q * spec.p, Bq ** spec.p


# ---------------------------------------------------------------------------
# the splitting pipeline

class SplitData:
    """Everything produced by split_endomorphism.

    P * A^n * P^{-1} = A0 (+) A1 exactly, where A0 is the diagonal
    matrix of the Frobenius blocks F^{n_i*ell} I_{m_i} and A1 has minimal
    polynomial r1 with multiplicatively independent roots; n is the lcm
    of the Frobenius factors' n_g times p^a.  h is a nonzero element of
    F_p[s] clearing the central denominators of P, P^{-1}, and the powers
    A1^i for i < deg r1.  `classifications` are those of the factors of
    A's own minimal polynomial."""

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


def _direct_sum_check(C, A0, A1):
    return C == A0.direct_sum(A1)


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
    # B = A^n is a polynomial in A, so ker g(A)^m is B-invariant; there g
    # divides x^n - s^k, so (B - s^k)^m = 0, and an independent g stays
    # independent (if (u^n)^i were s^j, u would be of Frobenius type)
    n = math.lcm(*(cls.n for cls in classes if cls.is_frobenius()))
    B = A ** n
    r0 = r1 = CenterPoly.one(spec)
    eigen = {}
    for (g, m), cls in zip(facs, classes):
        if cls.is_frobenius():
            r0 = r0 * g ** m
            k = cls.j * n // cls.n
            eigen[k] = max(eigen.get(k, 0), m)
        else:
            r1 = r1 * g ** m
    if not r0.gcd(r1).is_one():
        raise SplitSelfCheckError("r0, r1 are not coprime")
    # K^N is the sum of the generalized eigenspaces of the s^k under B and
    # ker r1(A); the columns of P^{-1} are bases of them
    N = A.rows
    if eigen:
        indep = right_kernel(r1.evaluate_matrix(A)) if r1.degree else []
        a, cols, blocks = jordan_form_central(B, eigen.items(), N - len(indep))
        P_inv = _col_matrix(spec, cols + indep, N)
        P = matrix_inverse(P_inv)
    else:
        a, cols, blocks = 0, [], []
        P = P_inv = SkewMatrix.identity(spec, N)
    N0 = len(cols)
    # (P*B*P^{-1})^(p^a) = P*B^(p^a)*P^{-1}; the columns span B-invariant
    # subspaces, so the power is taken of a block-diagonal matrix
    C = (P * B * P_inv) ** (p ** a)
    n_final = n * p ** a
    diag = [k for k, m in blocks for _ in range(m)]
    A0 = SkewMatrix(spec, [[SkewElem.F(spec, diag[i] * spec.ell)
                            if i == j else SkewElem.zero(spec)
                            for j in range(N0)] for i in range(N0)])
    A1 = C.submatrix(N0, N, N0, N)
    if not _direct_sum_check(C, A0, A1):
        raise SplitSelfCheckError("block-diagonal identity failed")
    # minimal polynomial bookkeeping for the powered map
    r0_final = CenterPoly.one(spec)
    for k, _ in blocks:
        r0_final = r0_final * CenterPoly.x_minus(RatFun.s(spec) ** k)
    if not A1.rows:
        r1_final = CenterPoly.one(spec)
    elif N0 == 0:
        r1_final = r  # no Frobenius part: A1 is A itself
    else:
        r1_final = min_poly_center(A1)
    if not r0_final.gcd(r1_final).is_one():
        raise SplitSelfCheckError("r0 and r1 of the powered map share a "
                                  "factor")
    # r | R(x^n_final) with R = r0_final*r1_final gives R(C) = 0, so with
    # C = A0 (+) A1 and coprime minimal polynomials r0_final, r1_final of
    # the blocks, R is the minimal polynomial of C
    R = r0_final * r1_final
    y = powmod(CenterPoly.x(spec), n_final, r)
    acc = CenterPoly.zero(spec)
    for c in reversed(R.coeffs):
        acc = (acc * y + CenterPoly(spec, [c])) % r
    if not acc.is_zero():
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
    return SplitData(spec, n_final, P, P_inv, blocks, A0, A1, h,
                     r0_final, r1_final, a, classes)
