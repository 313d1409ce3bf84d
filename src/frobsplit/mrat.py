"""Multivariate polynomials and rational functions over F_q, used for
coordinates of witness points over F_q(t_1, ..., t_d).

Sparse dict representation keyed by exponent tuples; exponents may be
huge (iterated Frobenius), which stays cheap because the term count is
what matters.  Canonical form: denominator's leading coefficient under
graded-lexicographic order is 1.  Equality of fractions is decided by
cross multiplication (no multivariate gcd, by design).
"""

import operator

from .fields import (FieldSpec, FqElem, _elem, lift_element, rref_packed,
                     rref_kernel)


def _grlex_key(exps):
    return (sum(exps), exps)


class MPoly:
    """Sparse multivariate polynomial over F_q."""

    __slots__ = ("spec", "nvars", "terms")

    def __init__(self, spec, nvars, terms):
        self.spec = spec
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls, spec, nvars):
        return cls(spec, nvars, {})

    @classmethod
    def one(cls, spec, nvars):
        return cls(spec, nvars, {(0,) * nvars: spec.one()})

    @classmethod
    def constant(cls, value, nvars):
        return cls(value.spec, nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, spec, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(spec, nvars, {tuple(e): spec.one()})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return (len(self.terms) == 1
                and (0,) * self.nvars in self.terms
                and self.terms[(0,) * self.nvars].is_one())

    def leading(self):
        """Leading (coefficient, exponent) under grlex order."""
        e = max(self.terms, key=_grlex_key)
        return self.terms[e], e

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                out[e] = out[e] + c
            else:
                out[e] = c
        return MPoly(self.spec, self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                out[e] = out[e] - c
            else:
                out[e] = -c
        return MPoly(self.spec, self.nvars, out)

    def __neg__(self):
        return MPoly(self.spec, self.nvars,
                     {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FqElem):
            return MPoly(self.spec, self.nvars,
                         {e: c * other for e, c in self.terms.items()})
        # on the packed ints of the coefficients, wrapped once at the end
        spec = self.spec
        mul, add, plus = spec._mul, spec._add, operator.add
        out = {}
        for e1, c1 in self.terms.items():
            x = c1.packed
            for e2, c2 in other.terms.items():
                e = tuple(map(plus, e1, e2))
                v = mul(x, c2.packed)
                out[e] = add(out[e], v) if e in out else v
        prod = MPoly.__new__(MPoly)
        prod.spec, prod.nvars = spec, self.nvars
        prod.terms = {e: _elem(spec, v) for e, v in out.items() if v}
        return prod

    def __pow__(self, e):
        """Power via base-p expansion so the p-power steps stay termwise."""
        if e < 0:
            raise ValueError("negative power of a polynomial")
        p = self.spec.p
        result = MPoly.one(self.spec, self.nvars)
        base = self
        while e:
            d = e % p
            small = MPoly.one(self.spec, self.nvars)
            for _ in range(d):
                small = small * base
            result = result * small
            e //= p
            if e:
                base = base.frobenius_pow(1)
        return result

    def frobenius_pow(self, i):
        """self^(p^i): termwise in characteristic p."""
        pi = self.spec.p ** i
        return MPoly(self.spec, self.nvars,
                     {tuple(x * pi for x in e): c ** pi
                      for e, c in self.terms.items()})

    def evaluate(self, values, embed=None):
        """Evaluate at a full assignment of values (FqElem, any spec
        with the same p).  embed maps coefficients into the target spec."""
        if embed is None:
            tgt = values[0].spec if values else self.spec
            embed = lambda c: lift_element(c, tgt)
        tgt = values[0].spec if values else self.spec
        acc = tgt.zero()
        for e, c in self.terms.items():
            term = embed(c)
            for v, k in zip(values, e):
                if k:
                    term = term * v ** k
            acc = acc + term
        return acc

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.spec == other.spec
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.spec, self.nvars, tuple(sorted(self.terms.items(),
                                                         key=lambda t: t[0]))))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ["t%d" % (i + 1) for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            vars_part = "*".join(
                n if k == 1 else "%s^%d" % (n, k)
                for n, k in zip(names, e) if k)
            if not vars_part:
                parts.append(repr(c))
            elif c.is_one():
                parts.append(vars_part)
            else:
                parts.append("%s*%s" % (repr(c), vars_part))
        return " + ".join(parts)


class MRatFun:
    """Fraction of multivariate polynomials; denominator grlex-monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MPoly.one(num.spec, num.nvars)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        lc, _ = den.leading()
        if not lc.is_one():
            inv = lc.inverse()
            num = num * inv
            den = den * inv
        if num.is_zero():
            den = MPoly.one(num.spec, num.nvars)
        self.num = num
        self.den = den

    @property
    def spec(self):
        return self.num.spec

    @property
    def nvars(self):
        return self.num.nvars

    @classmethod
    def zero(cls, spec, nvars):
        return cls(MPoly.zero(spec, nvars))

    @classmethod
    def one(cls, spec, nvars):
        return cls(MPoly.one(spec, nvars))

    @classmethod
    def constant(cls, value, nvars):
        return cls(MPoly.constant(value, nvars))

    @classmethod
    def var(cls, spec, nvars, i):
        return cls(MPoly.var(spec, nvars, i))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_one()

    def __add__(self, other):
        if self.den.is_one() and other.den.is_one():
            return MRatFun(self.num + other.num)
        if self.den == other.den:
            return MRatFun(self.num + other.num, self.den)
        if other.den.is_one():
            return MRatFun(self.num + other.num * self.den, self.den)
        if self.den.is_one():
            return MRatFun(self.num * other.den + other.num, other.den)
        return MRatFun(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MRatFun(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, FqElem):
            return MRatFun(self.num * other, self.den)
        return MRatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return MRatFun(self.den, self.num)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return MRatFun(self.num ** e, self.den ** e)

    def frobenius_pow(self, i):
        return MRatFun(self.num.frobenius_pow(i), self.den.frobenius_pow(i))

    def evaluate(self, values, embed=None):
        d = self.den.evaluate(values, embed)
        if d.is_zero():
            raise ZeroDivisionError("denominator vanishes at specialization")
        return self.num.evaluate(values, embed) / d

    def __eq__(self, other):
        if not isinstance(other, MRatFun):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("MRatFun is not hashable (equality is semantic)")

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return "(%s) / (%s)" % (repr(self.num), repr(self.den))


# ---------------------------------------------------------------------------
# F_p-linear algebra helpers over the monomials of MRatFun collections

def fp_kernel(matrix, p):
    """Kernel basis of an integer matrix mod p (rows x cols), as lists of
    ints in [0, p)."""
    if not matrix:
        return []
    # over F_p an int mod p is its own packed form, and -x mod p is read
    # off the plain negatives that rref_kernel writes at the pivots
    ncols = len(matrix[0])
    rows, pivots = rref_packed(FieldSpec.get(p, 1),
                               ([x % p for x in r] for r in matrix), ncols)
    return [[x % p for x in v]
            for v in rref_kernel(rows, pivots, ncols, 0, 1)]


def linearize_fractions(funcs):
    """Given a list of MRatFun (same spec/nvars), return an F_p matrix
    whose columns correspond to the functions: a vector c is in the
    kernel iff sum_i c_i * funcs[i] = 0 exactly.

    All functions are brought over a common denominator (product of the
    distinct denominators) and numerator monomial coefficients are split
    into F_p components."""
    if not funcs:
        return []
    spec = funcs[0].spec
    nvars = funcs[0].nvars
    dens = []
    for f in funcs:
        if not any(f.den == d for d in dens):
            dens.append(f.den)
    common = MPoly.one(spec, nvars)
    for d in dens:
        common = common * d
    numerators = []
    for f in funcs:
        extra = MPoly.one(spec, nvars)
        skipped = False
        for d in dens:
            if not skipped and d == f.den:
                skipped = True
                continue
            extra = extra * d
        numerators.append(f.num * extra)
    monomials = sorted({e for n in numerators for e in n.terms},
                       key=_grlex_key)
    rows = []
    for e in monomials:
        for comp in range(spec.ell):
            row = []
            for n in numerators:
                c = n.terms.get(e)
                row.append(0 if c is None else c.coeffs[comp])
            rows.append(row)
    return rows
