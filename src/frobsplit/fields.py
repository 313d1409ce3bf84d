"""Exact arithmetic foundations: prime fields, extension fields F_{p^ell},
univariate polynomials and rational functions over them, row reduction
over any division ring, and division-free characteristic polynomials and
determinants over the rational function field.

All values are immutable; every operation is a pure function.

An element of F_q is packed into a single int (see FqElem): bit i holds
the coefficient of x^i for p = 2, and a w-bit slot holds it for odd p.
Only FieldSpec and FqElem know that format; everything else reads the
power-basis tuple `FqElem.coeffs`.  Multiplication is a carry-less
shift/XOR product for p = 2 and one big-int (Kronecker) product for odd
p, each followed by reduction modulo the field's modulus.
"""

import operator
from functools import lru_cache


def power(x, e, one, mul=operator.mul):
    """x^e for an integer e >= 0 by square-and-multiply, left to right
    from the top bit of e: x^1 costs no product, and x^e costs
    bitlen(e) - 1 squarings plus popcount(e) - 1 products by x (no
    product with the identity, no unused final squaring).  `one()` builds
    the identity, needed only for e = 0; `mul` is the product."""
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    if not e:
        return one()
    acc = x
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p, ell):
    """Lexicographically smallest monic irreducible of degree ell over F_p:
    the first candidate that FieldSpec accepts as its modulus."""
    if ell == 1:
        return (0, 1)
    # iterate over lower coefficient tuples in lex order (c0 most significant
    # position last, i.e. plain odometer over (c0,...,c_{ell-1}))
    for code in range(p ** ell):
        lower = []
        c = code
        for _ in range(ell):
            lower.append(c % p)
            c //= p
        cand = tuple(lower) + (1,)
        try:
            FieldSpec(p, ell, cand)
        except ValueError:
            continue
        return cand
    raise RuntimeError("no irreducible found")  # unreachable


class FieldSpec:
    """The field F_q with q = p^ell, as F_p[x]/(modulus).

    Besides the field data, a FieldSpec holds the constants of the packed
    element format (see FqElem), computed once here."""

    _cache = {}

    def __init__(self, p, ell, modulus=None):
        if not is_prime(p):
            raise ValueError("p must be prime: %r" % (p,))
        if ell < 1:
            raise ValueError("ell must be >= 1")
        if modulus is None:
            modulus = smallest_irreducible(p, ell)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != ell + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree ell")
        self.p = p
        self.ell = ell
        self.q = p ** ell
        self.modulus = modulus
        if p == 2:
            self._w = 1
        else:
            # Slot values handed to _reduce stay below x_max (a product
            # before reduction, or a sum a + (P_all - b)).  q_i = x_i // p
            # is read as (x_i * recip) >> shift, exact for x_i <= x_max
            # because x_max * (recip * p - 2^shift) < 2^shift, and the slot
            # is wide enough that x_i * recip cannot carry out of it.
            x_max = ell * (p - 1) ** 2 + p
            self._shift = (x_max * (p - 1)).bit_length()
            self._recip = -(-(1 << self._shift) // p)
            self._w = (x_max * self._recip).bit_length()
            ones = sum(1 << (self._w * i) for i in range(2 * ell - 1))
            self._quot_mask = ones * ((1 << (self._w - self._shift)) - 1)
            self._p_all = self._pack((p,) * ell)
        self._slot_mask = (1 << self._w) - 1
        self._low = (1 << (self._w * ell)) - 1
        if ell == 1:
            self._mul = self._mul_prime
        elif p == 2:
            # x^ell = sum of x^i over the taps
            self._taps = tuple(i for i in range(ell) if modulus[i])
            self._mul = self._mul_binary
        else:
            fp = FieldSpec.get(p, 1)
            mu = CPoly.monomial(fp, fp.one(), 2 * ell) \
                // CPoly.from_ints(fp, modulus)
            self._mu = self._pack(c.packed for c in mu.coeffs)
            self._neg_tail = self._pack(tuple(-c % p for c in modulus[:ell]))
            self._mul = self._mul_slots
        self._zero = _elem(self, 0)
        self._one = _elem(self, 1)
        if ell > 1 and not self._modulus_is_irreducible():
            raise ValueError("modulus is not irreducible over F_%d" % p)

    @classmethod
    def get(cls, p, ell, modulus=None):
        key = (p, ell, modulus)
        if key not in cls._cache:
            cls._cache[key] = cls(p, ell, modulus)
        return cls._cache[key]

    # -- the packed format ---------------------------------------------------

    def _pack(self, coeffs):
        w = self._w
        return sum(c << (w * i) for i, c in enumerate(coeffs))

    def _reduce(self, x):
        """Every slot of x taken mod p (odd p), with whole-int operations."""
        return x - (((x * self._recip) >> self._shift) & self._quot_mask) \
            * self.p

    def _mul_prime(self, a, b):
        return a * b % self.p

    def _mul_binary(self, a, b):
        # carry-less product: a shifted to each set bit of b, XORed
        r = 0
        while b:
            bit = b & -b
            r ^= a * bit
            b ^= bit
        ell, low, taps = self.ell, self._low, self._taps
        while r >> ell:
            hi = r >> ell
            r &= low
            for i in taps:
                r ^= hi << i
        return r

    def _mul_slots(self, a, b):
        # One Kronecker product, then Barrett reduction: the quotient by
        # the modulus is floor(hi * mu / x^ell), mu = floor(x^(2 ell) /
        # modulus), and the remainder is lo + quotient * (-tail) mod x^ell.
        # Every slot of each product is at most ell*(p-1)^2 before _reduce.
        reduce, sh = self._reduce, self._w * self.ell
        t = reduce(a * b)
        quot = reduce(((t >> sh) * self._mu) >> sh)
        return reduce((t & self._low) + ((quot * self._neg_tail) & self._low))

    def _pow(self, v, e):
        """v^e for a packed v and e >= 0.  The exponent is reduced mod
        q - 1, which is exact only in a field: on a modulus not yet
        known to be irreducible, call it with e < q - 1 only."""
        if not e:
            return 1
        if not v:
            return 0
        return power(v, (e - 1) % (self.q - 1) + 1, None, self._mul)

    def _modulus_is_irreducible(self):
        """Rabin's test, run in the packed ring F_p[x]/(modulus): the
        modulus f of degree ell is irreducible iff x^(p^ell) = x and
        gcd(x^(p^(ell/r)) - x, f) = 1 for every prime r dividing ell.
        The packed product (carry-less fold or Barrett reduction) is
        exact for any monic modulus, and x^(p^k) is _pow(., p) applied k
        times (p < q - 1, so _pow reduces no exponent): the test assumes
        no field property.  The first condition is checked first, since
        it rejects most reducible moduli.  The gcds run over F_p =
        FieldSpec.get(p, 1), which has ell = 1 and runs no test."""
        p, ell = self.p, self.ell
        x_pows = [1 << self._w]  # x^(p^k) for k = 0 .. ell
        for _ in range(ell):
            x_pows.append(self._pow(x_pows[-1], p))
        if x_pows[ell] != x_pows[0]:
            return False
        fp = FieldSpec.get(p, 1)
        f = CPoly.from_ints(fp, self.modulus)
        for r in range(2, ell + 1):
            if ell % r == 0 and is_prime(r):
                g = CPoly.from_ints(fp, _elem(self, x_pows[ell // r]).coeffs)
                if not (g - CPoly.s(fp)).gcd(f).is_one():
                    return False
        return True

    # -- elements ------------------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return _elem(self, n % self.p)

    def generator(self):
        """The residue class of x (a generator of F_q over F_p)."""
        if self.ell == 1:
            return self._one
        return _elem(self, 1 << self._w)

    def element(self, coeffs):
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) > self.ell:
            raise ValueError("too many coefficients for F_%d^%d" % (self.p, self.ell))
        return _elem(self, self._pack(coeffs))

    def all_elements(self):
        for code in range(self.q):
            c, digits = code, []
            for _ in range(self.ell):
                digits.append(c % self.p)
                c //= self.p
            yield _elem(self, self._pack(digits))

    def random_element(self, rng):
        return _elem(self, self._pack([rng.randrange(self.p)
                                       for _ in range(self.ell)]))

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.ell == other.ell and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.ell, self.modulus))

    def __repr__(self):
        return "FieldSpec(p=%d, ell=%d)" % (self.p, self.ell)


class FqElem:
    """Element of F_q, packed into one int `packed`.

    For p = 2, bit i of `packed` is the coefficient of x^i.  For odd p,
    the coefficient of x^i sits in bits [w*i, w*(i+1)) of `packed` as a
    canonical digit in [0, p).  The slot width w is the bit length of
    x_max * ceil(2^s / p), with x_max = ell*(p-1)^2 + p the largest slot
    value arithmetic produces before reduction and s the bit length of
    x_max*(p-1): wide enough that a product (or a sum) and the whole-int
    reduction of every slot mod p never carry from one slot into the
    next.  The element 0 packs to 0, 1 to 1, and the prime-field element
    k to k.  `coeffs` is the power-basis view: the tuple of the ell
    digits, lowest degree first.
    """

    __slots__ = ("spec", "packed", "_hash")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.packed = spec._pack(coeffs)

    @property
    def coeffs(self):
        spec = self.spec
        v, w, mask = self.packed, spec._w, spec._slot_mask
        return tuple((v >> (w * i)) & mask for i in range(spec.ell))

    def __add__(self, other):
        spec = self.spec
        if spec.p == 2:
            return _elem(spec, self.packed ^ other.packed)
        return _elem(spec, spec._reduce(self.packed + other.packed))

    def __sub__(self, other):
        spec = self.spec
        if spec.p == 2:
            return _elem(spec, self.packed ^ other.packed)
        return _elem(spec, spec._reduce(self.packed + spec._p_all
                                        - other.packed))

    def __neg__(self):
        spec = self.spec
        if spec.p == 2:
            return self
        return _elem(spec, spec._reduce(spec._p_all - self.packed))

    def __mul__(self, other):
        spec = self.spec
        return _elem(spec, spec._mul(self.packed, other.packed))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return _elem(self.spec, self.spec._pow(self.packed, e))

    def inverse(self):
        if not self.packed:
            raise ZeroDivisionError("inverse of zero in F_q")
        spec = self.spec
        return _elem(spec, spec._pow(self.packed, spec.q - 2))

    def __truediv__(self, other):
        return self * other.inverse()

    def is_zero(self):
        return not self.packed

    def is_one(self):
        return self.packed == 1

    def in_prime_field(self):
        return self.packed < self.spec.p

    def frobenius(self, i=1):
        """Return self^(p^i).  frobenius(a, ell) is the identity on F_q."""
        if i < 0:
            raise ValueError("frobenius exponent must be nonnegative")
        i %= self.spec.ell
        if i == 0 or self.in_prime_field():
            return self
        return self ** (self.spec.p ** i)

    def __eq__(self, other):
        return (isinstance(other, FqElem) and self.packed == other.packed
                and (self.spec is other.spec or self.spec == other.spec))

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.spec.p, self.spec.ell, self.coeffs))
            return self._hash

    def __repr__(self):
        if self.spec.ell == 1:
            return str(self.packed)
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


_new = object.__new__


def _elem(spec, packed):
    """An FqElem straight from its packed int."""
    e = _new(FqElem)
    e.spec = spec
    e.packed = packed
    return e


# ---------------------------------------------------------------------------
# univariate polynomials over a field (F_q here, F_q(s) in skew.CenterPoly)

class CPoly:
    """Dense univariate polynomial, lowest degree first: over F_q in the
    central variable s here, and over F_q(s) in x as skew.CenterPoly.

    The arithmetic is written once, here, and builds its results with
    type(self).  A subclass changes the coefficient field only through
    the hook `_coeff_zero`, `_coeff_one` and `_coeff_from_int`, each
    called with the FieldSpec.  The zero polynomial has degree -1
    (sentinel).  Trailing zero coefficients are stripped on construction.
    """

    __slots__ = ("spec", "coeffs")

    _coeff_zero = staticmethod(FieldSpec.zero)
    _coeff_one = staticmethod(FieldSpec.one)
    _coeff_from_int = staticmethod(FieldSpec.from_int)

    def __init__(self, spec, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.spec = spec
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, spec):
        return cls(spec, ())

    @classmethod
    def one(cls, spec):
        return cls(spec, (cls._coeff_one(spec),))

    @classmethod
    def s(cls, spec):
        return cls(spec, (spec.zero(), spec.one()))

    @classmethod
    def from_ints(cls, spec, ints):
        return cls(spec, tuple(spec.from_int(n) for n in ints))

    @classmethod
    def constant(cls, value):
        return cls(value.spec, (value,))

    @classmethod
    def monomial(cls, spec, coeff, exp):
        return cls(spec, (spec.zero(),) * exp + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        if i < len(self.coeffs):
            return self.coeffs[i]
        return self._coeff_zero(self.spec)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(self.spec, out)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self._coeff_zero(self.spec)
        out = [(self.coeffs[i] if i < len(self.coeffs) else z)
               - (other.coeffs[i] if i < len(other.coeffs) else z)
               for i in range(n)]
        return type(self)(self.spec, out)

    def __neg__(self):
        return type(self)(self.spec, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        """Product; `other` is a polynomial of the same class or, if it is
        not a CPoly, a coefficient scalar."""
        cls = type(self)
        if not isinstance(other, CPoly):
            return cls(self.spec, tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return cls.zero(self.spec)
        z = self._coeff_zero(self.spec)
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = out[i + j] + x * y
        return cls(self.spec, out)

    def __pow__(self, e):
        return power(self, e, lambda: type(self).one(self.spec))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        cls = type(self)
        if self.degree < other.degree:
            return cls.zero(self.spec), self
        rem = list(self.coeffs)
        dlc = other.leading().inverse()
        dd = other.degree
        quot = [self._coeff_zero(self.spec)] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c.is_zero():
                continue
            q = c * dlc
            quot[k - dd] = q
            for i in range(dd + 1):
                rem[k - dd + i] = rem[k - dd + i] - q * other.coeffs[i]
        return cls(self.spec, quot), cls(self.spec, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self):
        if self.is_zero():
            return self
        return self * self.leading().inverse()

    def gcd(self, other):
        """Monic greatest common divisor; gcd(a, 0) = monic(a)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other):
        """(g, u, v) with u*self + v*other = g, g the monic gcd."""
        cls, spec = type(self), self.spec
        a, b = self, other
        ua, va = cls.one(spec), cls.zero(spec)
        ub, vb = cls.zero(spec), cls.one(spec)
        while not b.is_zero():
            q, r = a.divmod(b)
            a, b = b, r
            ua, ub = ub, ua - q * ub
            va, vb = vb, va - q * vb
        if a.is_zero():
            return a, ua, va
        inv = a.leading().inverse()
        return a * inv, ua * inv, va * inv

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return type(self).zero(self.spec)
        return (self * other).exact_div(self.gcd(other)).monic()

    def derivative(self):
        spec = self.spec
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * self._coeff_from_int(spec, i))
        return type(self)(spec, out)

    def evaluate(self, x):
        """Horner evaluation at x (an FqElem of any compatible field)."""
        acc = x.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + lift_element(c, x.spec)
        return acc

    def map_coeffs(self, fn):
        return type(self)(self.spec, tuple(fn(c) for c in self.coeffs))

    def frobenius(self, i=1):
        return self.map_coeffs(lambda c: c.frobenius(i))

    def norm_to_prime(self):
        """Product of all ell Frobenius conjugates; lies in F_p[s]."""
        out = self
        for j in range(1, self.spec.ell):
            out = out * self.frobenius(j)
        return out

    def in_prime_field(self):
        return all(c.in_prime_field() for c in self.coeffs)

    def shift_var(self, a):
        """Substitute s -> s + a."""
        spec = self.spec
        res = CPoly.zero(spec)
        base = CPoly(spec, (a, spec.one()))
        for c in reversed(self.coeffs):
            res = res * base + CPoly.constant(c)
        return res

    def __eq__(self, other):
        return (type(other) is type(self) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(repr(c))
            else:
                sv = "s" if i == 1 else "s^%d" % i
                parts.append(sv if c.is_one() else "%s*%s" % (repr(c), sv))
        return " + ".join(parts)


def lift_element(c, spec):
    """Lift a prime-field FqElem into another field of the same p."""
    if c.spec == spec:
        return c
    if not c.in_prime_field():
        raise ValueError("cannot lift non-prime-field element between specs")
    return spec.from_int(c.coeffs[0])


def lift_cpoly(f, spec):
    return CPoly(spec, tuple(lift_element(c, spec) for c in f.coeffs))


# ---------------------------------------------------------------------------
# rational functions over F_q(s)

class RatFun:
    """Rational function num/den over F_q[s] in canonical form:
    den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = CPoly.one(num.spec)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            if den.degree == 0:
                if not den.coeffs[0].is_one():
                    num = num * den.coeffs[0].inverse()
                    den = CPoly.one(num.spec)
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                lc = den.leading()
                if not lc.is_one():
                    inv = lc.inverse()
                    num = num * inv
                    den = den * inv
        self.num = num
        self.den = den

    @property
    def spec(self):
        return self.num.spec

    @classmethod
    def zero(cls, spec):
        return cls(CPoly.zero(spec), _canonical=True)

    @classmethod
    def one(cls, spec):
        return cls(CPoly.one(spec), _canonical=True)

    @classmethod
    def s(cls, spec):
        return cls(CPoly.s(spec), _canonical=True)

    @classmethod
    def from_int(cls, spec, n):
        return cls(CPoly.constant(spec.from_int(n)), _canonical=True)

    @classmethod
    def constant(cls, value):
        return cls(CPoly.constant(value), _canonical=True)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self):
        return self.den.is_one()

    def in_prime_field(self):
        return self.num.in_prime_field() and self.den.in_prime_field()

    def __add__(self, other):
        if self.den.is_one() and other.den.is_one():
            return RatFun(self.num + other.num, _canonical=True)
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __sub__(self, other):
        if self.den.is_one() and other.den.is_one():
            return RatFun(self.num - other.num, _canonical=True)
        if self.den == other.den:
            return RatFun(self.num - other.num, self.den)
        return RatFun(self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __neg__(self):
        return RatFun(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        if self.den.is_one() and other.den.is_one():
            return RatFun(self.num * other.num, _canonical=True)
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFun(self.den, self.num)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return RatFun(self.num ** e, self.den ** e)

    def frobenius(self, i=1):
        return RatFun(self.num.frobenius(i), self.den.frobenius(i))

    def __eq__(self, other):
        return (isinstance(other, RatFun) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return "(%s) / (%s)" % (repr(self.num), repr(self.den))


def prime_coords(rf):
    """F_p(s)-coordinates of rf in F_q(s) w.r.t. the basis 1, w, ..., w^(ell-1).

    Returns a list of ell RatFun with all coefficients in the prime field.
    """
    spec = rf.spec
    ell = spec.ell
    if ell == 1:
        return [rf]
    cof = CPoly.one(spec)
    for j in range(1, ell):
        cof = cof * rf.den.frobenius(j)
    num2 = rf.num * cof
    den2 = rf.den * cof  # = Norm(den), lies in F_p[s]
    if not den2.in_prime_field():
        raise AssertionError("norm denominator not in prime field")
    out = []
    z = spec.zero()
    for k in range(ell):
        comp = CPoly(spec, tuple(spec.from_int(c.coeffs[k]) for c in num2.coeffs))
        out.append(RatFun(comp, den2))
    return out


# ---------------------------------------------------------------------------
# row reduction over a field or a division ring

def rref(rows, ncols):
    """Reduced row echelon form by Gauss-Jordan elimination over any
    division ring (F_q, F_q(s), the skew field K of skew.py).

    Pivots are searched for only in the first `ncols` columns; columns
    after them (an identity block, a right-hand side) follow the row
    operations.  A pivot row is scaled by left multiplication with the
    inverse of its pivot, and f times it is subtracted from each other
    row, f that row's entry in the pivot column.  Returns (rows, pivots):
    the reduced rows as new lists, and pivots[i] the pivot column of row
    i, so the rank is len(pivots)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        pr = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        prow = rows[r] = [inv * x for x in rows[r]]
        # only the nonzero entries of the pivot row change the other rows
        # (reduced rows are sparse: zero at every earlier pivot column)
        nonzero = [(j, y) for j, y in enumerate(prow) if not y.is_zero()]
        for i in range(n):
            row = rows[i]
            f = row[c]
            if i != r and not f.is_zero():
                for j, y in nonzero:
                    row[j] = row[j] - f * y
        pivots.append(c)
    return rows, pivots


def rref_kernel(rows, pivots, ncols, zero, one):
    """Basis of the right kernel of the first `ncols` columns, read off
    the output (rows, pivots) of `rref`: for each free column fc, the
    vector with 1 at fc and -R[i][fc] at pivots[i].  This is exact
    because every pivot column is cleared in all other rows."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# linear algebra over the rational function field

def kernel_basis(M):
    """Basis of the right kernel of a matrix over RatFun, read off its
    reduced row echelon form (`rref`, `rref_kernel`).

    M is a list of rows (lists of RatFun).  Returns a list of kernel
    vectors (lists of RatFun), one per free column fc with 1 at fc and 0
    at the other free columns; empty list iff the kernel is trivial.
    """
    if not M:
        return []
    ncols = len(M[0])
    spec = M[0][0].spec
    rows, pivots = rref(M, ncols)
    return rref_kernel(rows, pivots, ncols, RatFun.zero(spec),
                       RatFun.one(spec))


def matrix_rank(M):
    if not M:
        return 0
    return len(rref(M, len(M[0]))[1])


def solve_linear(M, b):
    """One solution x of M x = b over RatFun, or None if inconsistent.

    M: list of rows; b: list of RatFun."""
    if not M:
        return []
    ncols = len(M[0])
    aug = [row + [bi] for row, bi in zip(M, b)]
    for v in kernel_basis(aug):
        if not v[ncols].is_zero():
            scale = -(v[ncols].inverse())
            return [vi * scale for vi in v[:ncols]]
    # b may be zero: x = 0 works
    if all(bi.is_zero() for bi in b):
        return [RatFun.zero(M[0][0].spec)] * ncols
    return None


def mat_mul(A, B):
    """Product of two matrices, given as lists of rows, over any ring
    whose elements have `spec`, `is_zero()` and a classmethod
    `zero(spec)` (RatFun, OrePoly, SkewElem).  Products with a zero
    factor are skipped.  A and B must be nonempty."""
    a00 = A[0][0]
    zero = type(a00).zero(a00.spec)
    out = []
    for arow in A:
        row = []
        for j in range(len(B[0])):
            acc = zero
            for a, brow in zip(arow, B):
                if a.is_zero():
                    continue
                b = brow[j]
                if b.is_zero():
                    continue
                acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_identity(spec, n):
    one = RatFun.one(spec)
    zero = RatFun.zero(spec)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def determinant(M):
    """Exact determinant of a square RatFun matrix: (-1)^n times the
    constant coefficient of `char_poly`."""
    if not M:
        raise ValueError("empty matrix")
    c0 = char_poly(M)[0]
    return -c0 if len(M) % 2 else c0


def char_poly(M):
    """Characteristic polynomial det(x I - M) of a square RatFun matrix.

    Returned as a list of RatFun coefficients, low degree first, monic.
    Computed without division by Berkowitz's recurrence (Berkowitz, IPL
    18, 1984) on M' = d M over F_q[s], d the lcm of the entry
    denominators, so every product is one of polynomials.  Write the
    block of M' from row k on as [[a, R], [C, A]]; the characteristic
    polynomial of that block, highest degree first, is the lower
    triangular Toeplitz matrix with first column 1, -a, -R C, -R A C,
    ..., -R A^(m-2) C times that of A.  det(x I - M') = d^n det(x/d I -
    M), so the coefficient of x^(n-i) of M is that of M' over d^i."""
    n = len(M)
    spec = M[0][0].spec
    one = CPoly.one(spec)
    dens = {e.den for row in M for e in row}
    d = one
    for den in dens:
        if not den.is_one():
            d = d.lcm(den)
    cof = {den: d.exact_div(den) for den in dens}
    A = [[e.num if cof[e.den].is_one() else e.num * cof[e.den] for e in row]
         for row in M]
    p = [one, -A[n - 1][n - 1]]  # block from row n-1 on, highest first
    for k in range(n - 2, -1, -1):
        m = n - k
        cols = [[A[i][j] for i in range(k + 1, n)] for j in range(k + 1, n)]
        C = [A[i][k] for i in range(k + 1, n)]
        t = [one, -A[k][k]]
        v = A[k][k + 1:]  # R A^i for i = 0, 1, ..., m-2
        for i in range(m - 1):
            t.append(-_dot(v, C))
            if i < m - 2:
                v = [_dot(v, col) for col in cols]
        p = [_dot(t[i::-1], p[:i + 1]) for i in range(m + 1)]
    out = []
    scale = one
    for c in p:
        out.append(RatFun(c, scale))
        scale = scale * d
    return out[::-1]


def _dot(u, v):
    """Sum of the products u_i v_i of two nonempty CPoly lists; products
    with a zero factor are skipped."""
    acc = CPoly.zero(u[0].spec)
    for a, b in zip(u, v):
        if a.coeffs and b.coeffs:
            acc = acc + a * b
    return acc
