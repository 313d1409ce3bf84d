"""Seeded problem generator and answer key.

Nothing here imports the engine.  Finite-field and Ore arithmetic are
reimplemented in a few lines, so a defect in the engine's arithmetic
cannot leak into the inputs or the expected answers:

* a conjugate G*D*G^-1 is built from a diagonal D by elementary row and
  column operations with Ore entries, and its expected verdict is read
  off D alone (conjugation leaves the verdict unchanged);
* the companion map of an irreducible polynomial over F_p satisfies
  A^(p^k-1) = I, so its verdict is B;
* `tools` references come from closed forms (see `suites.fset_lab`).
"""

# ---------------------------------------------------------------------------
# F_q = F_p[x]/(modulus), elements as coefficient tuples (constant first)


class GF:
    def __init__(self, name, p, ell, modulus):
        self.name = name
        self.p = p
        self.ell = ell
        self.modulus = modulus
        self.zero = (0,) * ell
        self.one = (1,) + (0,) * (ell - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, ell, m = self.p, self.ell, self.modulus
        res = [0] * (2 * ell - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    res[i + j] = (res[i + j] + x * y) % p
        for k in range(len(res) - 1, ell - 1, -1):
            c = res[k]
            if c:
                for i in range(ell):
                    res[k - ell + i] = (res[k - ell + i] - c * m[i]) % p
        return tuple(res[:ell])

    def pow(self, a, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def frob(self, a, i):
        """a^(p^i)."""
        return self.pow(a, self.p ** (i % self.ell))

    def rand(self, rng, nonzero=True):
        while True:
            a = tuple(rng.randrange(self.p) for _ in range(self.ell))
            if a != self.zero or not nonzero:
                return a

    def literal(self, a):
        if self.ell == 1:
            return str(a[0])
        return "[%s]" % ",".join(str(c) for c in a)

    def header(self):
        lines = ["[field]", "p = %d" % self.p, "ell = %d" % self.ell]
        if self.ell > 1:
            lines.append("modulus = [%s]"
                         % ",".join(str(c) for c in self.modulus))
        return lines


FIELDS = {
    "F2": GF("F2", 2, 1, (0, 1)),
    "F3": GF("F3", 3, 1, (0, 1)),
    "F5": GF("F5", 5, 1, (0, 1)),
    "F4": GF("F4", 2, 2, (1, 1, 1)),
    "F8": GF("F8", 2, 3, (1, 1, 0, 1)),
    "F9": GF("F9", 3, 2, (1, 0, 1)),
}

# ---------------------------------------------------------------------------
# F_q[F]: an Ore polynomial is a list of coefficients, index = power of F


def _trim(F, P):
    P = list(P)
    while P and P[-1] == F.zero:
        P.pop()
    return P


def ore_add(F, P, Q):
    n = max(len(P), len(Q))
    P = list(P) + [F.zero] * (n - len(P))
    Q = list(Q) + [F.zero] * (n - len(Q))
    return _trim(F, [F.add(a, b) for a, b in zip(P, Q)])


def ore_neg(F, P):
    return [F.sub(F.zero, a) for a in P]


def ore_mul(F, P, Q):
    """(a F^i)(b F^j) = a b^(p^i) F^(i+j)."""
    if not P or not Q:
        return []
    out = [F.zero] * (len(P) + len(Q) - 1)
    for i, a in enumerate(P):
        if a == F.zero:
            continue
        for j, b in enumerate(Q):
            if b != F.zero:
                out[i + j] = F.add(out[i + j], F.mul(a, F.frob(b, i)))
    return _trim(F, out)


def ore_text(F, P):
    if not P:
        return "0"
    terms = []
    for i, c in enumerate(P):
        if c == F.zero:
            continue
        lit = F.literal(c)
        terms.append(lit if i == 0 else
                     "%s*F" % lit if i == 1 else "%s*F^%d" % (lit, i))
    return " + ".join(terms)


def conjugate(F, diag, rng, pairs, max_deg):
    """E_k ... E_1 D E_1^-1 ... E_k^-1 with E = I + c*e_ij for each (i, j)
    in `pairs` and a seeded Ore polynomial c of degree exactly max_deg.  The
    inverse of E is I - c*e_ij: add c times row j to row i, then subtract
    column i times c from column j."""
    N = len(diag)
    A = [[list(diag[i]) if i == j else [] for j in range(N)]
         for i in range(N)]
    for i, j in pairs:
        c = [F.rand(rng, nonzero=False) for _ in range(max_deg)] + [
            F.rand(rng)]
        A[i] = [ore_add(F, A[i][k], ore_mul(F, c, A[j][k]))
                for k in range(N)]
        for k in range(N):
            A[k][j] = ore_add(F, A[k][j], ore_neg(F, ore_mul(F, A[k][i], c)))
    return A


def problem_text(F, A, d, density=None):
    N = len(A)
    lines = F.header() + ["", "[map]", "n = %d" % N]
    for i in range(N):
        for j in range(N):
            lines.append("entry_%d_%d = %s"
                         % (i + 1, j + 1, ore_text(F, A[i][j])))
    lines += ["", "[question]", "d = %d" % d]
    if density is not None:
        lines += ["density_m = %d" % density[0], "density_d = %d" % density[1]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the answer key


def entry_type(F, P):
    """("const",) for a nonzero constant, ("frob", e) for c*F^e with
    e >= 1, ("other",) for anything else."""
    support = [i for i, c in enumerate(P) if c != F.zero]
    if support == [0]:
        return ("const",)
    if len(support) == 1:
        return ("frob", support[0])
    return ("other",)


def expected_verdict(F, diag, d):
    """B if D has a nonzero constant entry; otherwise C if some Frobenius
    exponent repeats at least d+1 times; otherwise A."""
    types = [entry_type(F, P) for P in diag]
    if ("const",) in types:
        return "B"
    exps = [t[1] for t in types if t[0] == "frob"]
    if any(exps.count(e) >= d + 1 for e in exps):
        return "C"
    return "A"


# ---------------------------------------------------------------------------
# polynomials over F_p (coefficient lists, constant first) for companions


def _pmod(f, g, p):
    f = list(f)
    inv = pow(g[-1], p - 2, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        if c:
            s = len(f) - len(g)
            for i, b in enumerate(g):
                f[s + i] = (f[s + i] - c * b) % p
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmulmod(a, b, g, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pmod(out, g, p)


def _xpow(e, g, p):
    """x^e mod g."""
    return _pow_mod([0, 1], e, g, p)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def is_irreducible(f, p):
    """Rabin's test for a monic f over F_p: x^(p^n) = x mod f and
    gcd(x^(p^(n/r)) - x, f) = 1 for every prime r | n."""
    n = len(f) - 1
    if _xpow(p ** n, f, p) != _pmod([0, 1], f, p):
        return False
    for r in _prime_factors(n):
        h = _xpow(p ** (n // r), f, p)
        h = h + [0] * max(0, 2 - len(h))
        h[1] = (h[1] - 1) % p
        while h and h[-1] == 0:
            h.pop()
        if len(_pgcd(f, h, p)) != 1:
            return False
    return True


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def root_order(f, p):
    """Multiplicative order of x modulo an irreducible f (the order of
    its roots), which divides p^deg - 1."""
    o = p ** (len(f) - 1) - 1
    for r in _prime_factors(o):
        while o % r == 0 and _xpow(o // r, f, p) == [1]:
            o //= r
    return o


def companion_text(p, f):
    """Companion matrix of monic f as a constant additive map over F_p."""
    n = len(f) - 1
    F = FIELDS["F%d" % p]
    A = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(1, n):
        A[i][i - 1] = [F.one]
    for i in range(n):
        A[i][n - 1] = _trim(F, [((-f[i]) % p,)])
    return problem_text(F, A, 1)


def _order_of(p, o):
    """Multiplicative order of p modulo o."""
    k, x = 1, p % o
    while x != 1:
        x = x * p % o
        k += 1
    return k


def companion_orders(p, n, max_order):
    """Root orders o <= max_order of the irreducibles of degree n over
    F_p: the divisors of p^n - 1 with ord_o(p) = n."""
    return [o for o in range(2, max_order + 1)
            if (p ** n - 1) % o == 0 and _order_of(p, o) == n]


def companion_poly(rng, p, n, max_order):
    """Seeded monic irreducible of degree n over F_p whose roots have the
    least order o allowed (classify_factor's cost grows with o): the
    minimal polynomial of an element of order o of F_p[x]/(f0), for some
    irreducible f0 of degree n."""
    o = companion_orders(p, n, max_order)[0]
    while True:
        f0 = [rng.randrange(p) for _ in range(n)] + [1]
        if f0[0] and is_irreducible(f0, p):
            break
    N = p ** n - 1
    while True:
        g = [rng.randrange(p) for _ in range(n)]
        beta = _pow_mod(g, N // o, f0, p)
        if beta and all(_pow_mod(beta, o // r, f0, p) != [1]
                        for r in _prime_factors(o)):
            break
    # prod_{i<n} (y - beta^(p^i)), coefficients in F_p[x]/(f0)
    poly = [[1]]
    c = beta
    for _ in range(n):
        neg = [(-a) % p for a in c]
        nxt = [[] for _ in range(len(poly) + 1)]
        for i, a in enumerate(poly):
            nxt[i + 1] = _padd(nxt[i + 1], a, p)
            nxt[i] = _padd(nxt[i], _pmulmod(neg, a, f0, p), p)
        poly = nxt
        c = _pow_mod(c, p, f0, p)
    f = [a[0] if a else 0 for a in poly]
    assert all(len(a) <= 1 for a in poly) and is_irreducible(f, p)
    return f


def _padd(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pow_mod(a, e, g, p):
    out, base = [1], _pmod(a, g, p)
    while e:
        if e & 1:
            out = _pmulmod(out, base, g, p)
        base = _pmulmod(base, base, g, p)
        e >>= 1
    return out
