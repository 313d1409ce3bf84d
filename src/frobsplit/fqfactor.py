"""Univariate polynomial factorization over F_q (Cantor-Zassenhaus),
root finding, field embeddings, and irreducible enumeration.

Randomized steps are seeded from the input so results are deterministic.
"""

import random

from .fields import CPoly, power


def powmod(base, e, mod):
    return power(base % mod, e, lambda: CPoly.one(base.spec),
                 lambda x, y: (x * y) % mod)


def pth_root(f):
    """p-th root of f in F_q[s]; requires all exponents divisible by p."""
    spec = f.spec
    p = spec.p
    root_exp = spec.p ** (spec.ell - 1) if spec.ell > 1 else 1
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p:
            if not c.is_zero():
                raise ValueError("not a p-th power")
            continue
        out.append(c ** root_exp if root_exp > 1 else c)
    return CPoly(spec, out)


def squarefree_decomposition(f):
    """Monic f -> list of (squarefree monic factor, multiplicity)."""
    spec = f.spec
    p = spec.p
    f = f.monic()
    result = {}

    def add(g, m):
        if g.degree > 0:
            result[g] = result.get(g, 0) + m

    def rec(f, mult):
        fp = f.derivative()
        if fp.is_zero():
            rec(pth_root(f), mult * p)
            return
        c = f.gcd(fp)
        w = f.exact_div(c)
        i = 1
        while not w.is_one():
            y = w.gcd(c)
            z = w.exact_div(y)
            add(z, mult * i)
            w = y
            if not y.is_one():
                c = c.exact_div(y)
            i += 1
        if not c.is_one():
            rec(pth_root(c), mult * p)

    rec(f, 1)
    return sorted(result.items(), key=lambda t: (t[1], t[0].degree, [c.coeffs for c in t[0].coeffs]))


def _seed_for(f):
    return hash((f.spec.p, f.spec.ell, tuple(c.coeffs for c in f.coeffs))) & 0xFFFFFFFF


def distinct_degree(f):
    """Squarefree monic f -> list of (product of irreducible factors of
    degree d, d)."""
    spec = f.spec
    q = spec.q
    out = []
    x = CPoly.s(spec)
    h = x % f
    g = f
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            out.append((g, g.degree))
            break
        h = powmod(h, q, g)
        gd = g.gcd(h - (x % g))
        if gd.degree > 0:
            out.append((gd, d))
            g = g.exact_div(gd)
            h = h % g
    return out


def equal_degree_split(f, d, rng):
    """Split a monic squarefree product of degree-d irreducibles."""
    spec = f.spec
    if f.degree == d:
        return [f]
    q = spec.q
    while True:
        g = CPoly(spec, [spec.random_element(rng) for _ in range(f.degree)])
        if g.degree < 1:
            continue
        if spec.p == 2:
            # trace map to F_2 over F_{q^d} = F_{2^(ell*d)}
            t = g % f
            acc = t
            cur = t
            for _ in range(spec.ell * d - 1):
                cur = (cur * cur) % f
                acc = acc + cur
            h = f.gcd(acc)
        else:
            e = (q ** d - 1) // 2
            h = f.gcd(powmod(g, e, f) - CPoly.one(spec))
        if 0 < h.degree < f.degree:
            return (equal_degree_split(h, d, rng)
                    + equal_degree_split(f.exact_div(h), d, rng))


def factor_squarefree(f):
    """The monic irreducible factors of a monic squarefree f over F_q, in
    the order `factor` lists them; the equal-degree split is seeded from
    f."""
    rng = random.Random(_seed_for(f))
    out = [irr for prod, d in distinct_degree(f)
           for irr in equal_degree_split(prod, d, rng)]
    out.sort(key=lambda g: (g.degree, [c.coeffs for c in g.coeffs]))
    return out


def factor(f):
    """Full factorization of f over F_q.

    Returns (leading coefficient, list of (monic irreducible, multiplicity)).
    """
    if f.is_zero():
        raise ValueError("cannot factor zero")
    lc = f.leading()
    f = f.monic()
    if f.degree == 1:
        return lc, [(f, 1)]
    out = [(irr, mult) for g, mult in squarefree_decomposition(f)
           for irr in factor_squarefree(g)]
    out.sort(key=lambda t: (t[0].degree, [c.coeffs for c in t[0].coeffs], t[1]))
    return lc, out


def is_irreducible(f):
    if f.degree < 1:
        return False
    _, facs = factor(f)
    return len(facs) == 1 and facs[0][1] == 1 and facs[0][0] == f.monic()


def roots(f):
    """Roots of f in its own coefficient field F_q."""
    spec = f.spec
    x = CPoly.s(spec)
    lin = f.gcd(powmod(x, spec.q, f) - (x % f)) if f.degree > 1 else f.monic()
    rng = random.Random(_seed_for(f))
    out = []
    if lin.degree >= 1:
        for g in equal_degree_split(lin, 1, rng):
            out.append(-g.coeffs[0])
    return out


_embedding_cache = {}


def embedding(small, big):
    """An F_p-embedding F_{p^ell} -> F_{p^k} with ell | k.

    Returns a function FqElem(small) -> FqElem(big)."""
    if small == big:
        return lambda c: c
    if small.p != big.p or big.ell % small.ell:
        raise ValueError("no embedding: need same p and ell | k")
    key = (small, big)
    if key not in _embedding_cache:
        if small.ell == 1:
            _embedding_cache[key] = lambda c: big.from_int(c.coeffs[0])
        else:
            mod_big = CPoly(big, tuple(big.from_int(c) for c in small.modulus))
            rts = roots(mod_big)
            if not rts:
                raise RuntimeError("modulus has no root in the big field")
            root = min(rts, key=lambda r: r.coeffs)

            def embed(c, root=root, big=big):
                acc = big.zero()
                for coeff in reversed(c.coeffs):
                    acc = acc * root + big.from_int(coeff)
                return acc

            _embedding_cache[key] = embed
    return _embedding_cache[key]


def monic_irreducibles(spec, min_degree=1):
    """Yield monic irreducibles over F_q in increasing degree, lex order
    within a degree."""
    deg = min_degree
    while True:
        elems = list(spec.all_elements())
        for code in range(spec.q ** deg):
            lower = []
            c = code
            for _ in range(deg):
                lower.append(elems[c % spec.q])
                c //= spec.q
            cand = CPoly(spec, tuple(lower) + (spec.one(),))
            if is_irreducible(cand):
                yield cand
        deg += 1
