"""Exact arithmetic foundations: prime fields, extension fields F_{p^ell},
univariate polynomials and rational functions over them, row reduction
over any division ring, and division-free characteristic polynomials
over the rational function field.

All values are immutable; every operation is a pure function.

An element of F_q is packed into a single int (see FqElem): bit i holds
the coefficient of x^i for p = 2, and a w-bit slot holds it for odd p.
Only this module knows that format (FieldSpec, FqElem, and CPoly, which
stores packed ints); everything else reads the power-basis tuple
`FqElem.coeffs`.  Multiplication is a carry-less shift/XOR product for
p = 2 and one big-int (Kronecker) product for odd p, each followed by
reduction modulo the field's modulus.
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


def barrett_slots(p, x_max):
    """(shift, recip, w) for taking every w-bit slot of an int mod an odd
    p at once: q_i = x_i // p is read as (x_i * recip) >> shift, exact
    for x_i <= x_max because x_max * (recip * p - 2^shift) < 2^shift,
    and the slot is wide enough that x_i * recip cannot carry out of it
    (see FieldSpec._reduce)."""
    shift = (x_max * (p - 1)).bit_length()
    recip = -(-(1 << shift) // p)
    return shift, recip, (x_max * recip).bit_length()


_new = object.__new__


def _elem(spec, packed):
    """An FqElem straight from its packed int."""
    e = _new(FqElem)
    e.spec = spec
    e.packed = packed
    return e


class FieldSpec:
    """The field F_q with q = p^ell, as F_p[x]/(modulus).

    Besides the field data, a FieldSpec holds the constants of the packed
    element format (see FqElem), computed once here.  It is also CPoly's
    coefficient ring: `_add`, `_neg`, `_mul` and `_inv` act on packed
    ints (xor for p = 2, `_reduce` of slot sums for odd p), `_raw_zero`,
    `_raw_one` and `_raw_int(n)` are packed constants, and `_raw` /
    `_view` map an FqElem to its packed int and back."""

    _raw_zero, _raw_one = 0, 1
    _raw = operator.attrgetter("packed")

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
            # Slot values handed to _reduce stay below x_max = ell*(p-1)^2
            # + p (a product before reduction, or a sum a + (P_all - b)).
            self._shift, self._recip, self._w = barrett_slots(
                p, ell * (p - 1) ** 2 + p)
            ones = sum(1 << (self._w * i) for i in range(2 * ell - 1))
            self._quot_mask = ones * ((1 << (self._w - self._shift)) - 1)
            self._p_all = self._pack((p,) * ell)
        self._slot_mask = (1 << self._w) - 1
        self._low = (1 << (self._w * ell)) - 1
        if p == 2:
            self._add, self._neg = operator.xor, operator.pos
        else:
            reduce, p_all = self._reduce, self._p_all
            self._add = lambda a, b: reduce(a + b)
            self._neg = lambda a: reduce(p_all - a)
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
            self._mu = self._pack(mu._c)
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

    def _inv(self, v):
        if not v:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self._pow(v, self.q - 2)

    def _raw_int(self, n):
        return n % self.p

    _view = _elem

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


# ---------------------------------------------------------------------------
# univariate polynomials over a field (F_q here, F_q(s) in skew.CenterPoly)

class CPoly:
    """Dense univariate polynomial, lowest degree first: over F_q in the
    central variable s here, and over F_q(s) in x as skew.CenterPoly.

    `_c` holds the raw coefficients, with no trailing zero: packed ints
    in FqElem's layout here, RatFun objects in CenterPoly; `coeffs`,
    `coeff(i)` and `leading()` give field elements, and `CPoly(spec,
    coeffs)` takes them.  The arithmetic is written once, here, over the
    operators of the coefficient ring that the one hook `_ring(spec)`
    returns: the FieldSpec itself here, a RatFunRing in CenterPoly.
    `frobenius`, `norm_to_prime`, `in_prime_field`, `shift_var` and
    `evaluate` read packed ints: they belong to F_q[s] alone.  The zero
    polynomial has degree -1 (sentinel).
    """

    __slots__ = ("spec", "_c")

    _ring = staticmethod(lambda spec: spec)

    def __init__(self, spec, coeffs):
        raw = self._ring(spec)._raw
        c = [raw(e) for e in coeffs]
        while c and not c[-1]:
            c.pop()
        self.spec = spec
        self._c = tuple(c)

    @classmethod
    def zero(cls, spec):
        return _poly(cls, spec, ())

    @classmethod
    def one(cls, spec):
        return _poly(cls, spec, (cls._ring(spec)._raw_one,))

    @classmethod
    def s(cls, spec):
        R = cls._ring(spec)
        return _poly(cls, spec, (R._raw_zero, R._raw_one))

    @classmethod
    def from_ints(cls, spec, ints):
        return cls(spec, tuple(spec.from_int(n) for n in ints))

    @classmethod
    def constant(cls, value):
        return cls(value.spec, (value,))

    @classmethod
    def monomial(cls, spec, coeff, exp):
        R = cls._ring(spec)
        return _poly(cls, spec, (R._raw_zero,) * exp + (R._raw(coeff),))

    @property
    def coeffs(self):
        """The coefficients as field elements, lowest degree first."""
        return tuple(map(self._ring(self.spec)._view, self._c))

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def is_one(self):
        return self._c == (self._ring(self.spec)._raw_one,)

    def leading(self):
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._ring(self.spec)._view(self._c[-1])

    def coeff(self, i):
        R = self._ring(self.spec)
        return R._view(self._c[i] if i < len(self._c) else R._raw_zero)

    def __add__(self, other):
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(map(self._ring(self.spec)._add, a, b))
        out += a[len(b):]
        return _poly(type(self), self.spec, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _poly(type(self), self.spec,
                     tuple(map(self._ring(self.spec)._neg, self._c)))

    def __mul__(self, other):
        """Product; `other` is a polynomial of the same class or, if it is
        not a CPoly, a coefficient scalar."""
        cls, spec = type(self), self.spec
        R = self._ring(spec)
        mul = R._mul
        if not isinstance(other, CPoly):
            s = R._raw(other)
            return _poly(cls, spec, [mul(c, s) for c in self._c])
        a, b = self._c, other._c
        if not a or not b:
            return _poly(cls, spec, ())
        if len(a) == len(b) == 1:
            return _poly(cls, spec, (mul(a[0], b[0]),))
        add = R._add
        out = [R._raw_zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
        return _poly(cls, spec, out)

    def __pow__(self, e):
        return power(self, e, lambda: type(self).one(self.spec))

    def divmod(self, other):
        """(quotient, remainder); a monic divisor takes no inverse."""
        b = other._c
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        cls, spec = type(self), self.spec
        dd = len(b) - 1
        if len(self._c) <= dd:
            return _poly(cls, spec, ()), self
        R = self._ring(spec)
        add, neg, mul = R._add, R._neg, R._mul
        rem = list(self._c)
        dlc = None if b[-1] == R._raw_one else R._inv(b[-1])
        quot = [R._raw_zero] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c if dlc is None else mul(c, dlc)
            quot[k - dd] = q
            q = neg(q)
            for i in range(dd + 1):
                rem[k - dd + i] = add(rem[k - dd + i], mul(q, b[i]))
        return _poly(cls, spec, quot), _poly(cls, spec, rem)

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
        if not self._c:
            return self
        R = self._ring(self.spec)
        lc = self._c[-1]
        if lc == R._raw_one:
            return self
        return self * R._view(R._inv(lc))

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
        c = self._c
        R = self._ring(self.spec)
        return _poly(type(self), self.spec,
                     [R._mul(c[i], R._raw_int(i)) for i in range(1, len(c))])

    def evaluate(self, x):
        """Horner evaluation at x (an FqElem of any compatible field)."""
        acc = x.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + lift_element(c, x.spec)
        return acc

    def frobenius(self, i=1):
        if i < 0:
            raise ValueError("frobenius exponent must be nonnegative")
        spec = self.spec
        i %= spec.ell
        if not i:
            return self
        p, e, pw = spec.p, spec.p ** i, spec._pow
        return _poly(type(self), spec,
                     [c if c < p else pw(c, e) for c in self._c])

    def norm_to_prime(self):
        """Product of all ell Frobenius conjugates; lies in F_p[s]."""
        out = self
        for j in range(1, self.spec.ell):
            out = out * self.frobenius(j)
        return out

    def in_prime_field(self):
        return not self._c or max(self._c) < self.spec.p

    def shift_var(self, a):
        """Substitute s -> s + a."""
        spec = self.spec
        res = CPoly.zero(spec)
        base = _poly(CPoly, spec, (a.packed, 1))
        for c in reversed(self._c):
            res = res * base + _poly(CPoly, spec, (c,))
        return res

    def __eq__(self, other):
        return (type(other) is type(self) and self._c == other._c
                and (self.spec is other.spec or self.spec == other.spec))

    def __hash__(self):
        return hash((self.spec, self._c))

    def __repr__(self):
        if not self._c:
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


def _poly(cls, spec, c):
    """A `cls` polynomial from raw coefficients, trailing zeros stripped."""
    while c and not c[-1]:
        c = c[:-1]
    f = _new(cls)
    f.spec = spec
    f._c = tuple(c)
    return f


def lift_element(c, spec):
    """Lift a prime-field FqElem into another field of the same p."""
    if c.spec == spec:
        return c
    if not c.in_prime_field():
        raise ValueError("cannot lift non-prime-field element between specs")
    return spec.from_int(c.coeffs[0])


def lift_cpoly(f, spec):
    """f into another F_q[s] of the same p, where F_p's k packs to k."""
    if f.spec != spec and not f.in_prime_field():
        raise ValueError("cannot lift non-prime-field element between specs")
    return _poly(CPoly, spec, f._c)


# ---------------------------------------------------------------------------
# rational functions over F_q(s)

class RatFun:
    """Rational function num/den over F_q[s] in canonical form:
    den monic, gcd(num, den) = 1.

    Every RatFun is canonical (`_canonical=True` is passed only for a
    pair already in that form), so zero is always 0/1.  The operators
    rest on both facts: a zero operand of + or - and a zero or unit
    factor of * give their result without arithmetic, and a nonzero
    constant c = c/1 scales num alone, since it keeps gcd(num, den) = 1
    and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = _poly(CPoly, num.spec, (1,))
        if not den._c:
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            if len(den._c) == 1:
                if den._c != (1,):
                    num = num * den.leading().inverse()
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

    def __bool__(self):
        return bool(self.num._c)

    def is_zero(self):
        return not self.num._c

    def is_one(self):
        return self.num._c == (1,) and self.den._c == (1,)

    def is_polynomial(self):
        return self.den._c == (1,)

    def in_prime_field(self):
        return self.num.in_prime_field() and self.den.in_prime_field()

    def __add__(self, other):
        if not other.num._c:
            return self
        if not self.num._c:
            return other
        if self.den._c == (1,) and other.den._c == (1,):
            return RatFun(self.num + other.num, _canonical=True)
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __sub__(self, other):
        if not other.num._c:
            return self
        if not self.num._c:
            return -other
        if self.den._c == (1,) and other.den._c == (1,):
            return RatFun(self.num - other.num, _canonical=True)
        if self.den == other.den:
            return RatFun(self.num - other.num, self.den)
        return RatFun(self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __neg__(self):
        return RatFun(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        a, b = self.num._c, other.num._c
        if not a:
            return self
        if not b:
            return other
        if len(a) == 1 and self.den._c == (1,):
            if a == (1,):
                return other
            return RatFun(other.num * self.num.leading(), other.den,
                          _canonical=True)
        if len(b) == 1 and other.den._c == (1,):
            if b == (1,):
                return self
            return RatFun(self.num * other.num.leading(), self.den,
                          _canonical=True)
        if self.den._c == (1,) and other.den._c == (1,):
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
        # a ring automorphism of F_q[s] fixing 1 keeps num, den coprime
        # and den monic
        return RatFun(self.num.frobenius(i), self.den.frobenius(i),
                      _canonical=True)

    def __eq__(self, other):
        return (isinstance(other, RatFun) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den._c == (1,):
            return repr(self.num)
        return "(%s) / (%s)" % (repr(self.num), repr(self.den))


class RatFunRing:
    """F_q(s) as the coefficient ring of skew.CenterPoly: RatFun's
    operators under the names of FieldSpec's packed-int ones, with the
    RatFun itself as the raw coefficient."""

    _add, _neg, _mul = operator.add, operator.neg, operator.mul
    _inv = operator.methodcaller("inverse")
    _raw = _view = staticmethod(lambda c: c)

    def __init__(self, spec):
        self._raw_zero = RatFun.zero(spec)
        self._raw_one = RatFun.one(spec)
        self._raw_int = lambda n: RatFun.from_int(spec, n)


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


def rref_packed(spec, rows, ncols):
    """`rref` over F_q on rows of packed ints (FieldSpec's ring hooks),
    read from an iterable one row at a time.

    Each new row is reduced against the pivot rows found so far, kept in
    insertion order with a leading 1 and zero at every earlier pivot
    column; a row that stays nonzero becomes a pivot row at its first
    nonzero column.  Reading stops as soon as the rank equals `ncols`, so
    the rest of a lazy iterable is never built.  Returns (rows, pivots)
    like `rref` without its zero rows: the pivot rows back-substituted
    and sorted by pivot column.  The reduced row echelon form of a row
    space is unique, so `rref_kernel` on it (wrapped with `spec._view`)
    gives exactly the kernel vectors of `rref`."""
    mul, add, neg = spec._mul, spec._add, spec._neg
    basis = []  # (pivot column, row, its nonzero (column, entry) pairs)

    def clear(row, pivot_rows):
        for c, _, nonzero in pivot_rows:
            f = row[c]
            if f:
                f = neg(f)
                for j, y in nonzero:
                    row[j] = add(row[j], mul(f, y))

    for row in rows:
        row = list(row)
        clear(row, basis)
        c = next((j for j in range(ncols) if row[j]), None)
        if c is None:
            continue
        if row[c] != 1:
            inv = spec._inv(row[c])
            row = [mul(inv, x) if x else 0 for x in row]
        basis.append((c, row, [(j, y) for j, y in enumerate(row) if y]))
        if len(basis) == ncols:
            # full column rank: the reduced form is the identity
            return ([[int(i == j) for j in range(ncols)]
                     for i in range(ncols)], list(range(ncols)))
    # back-substitution, last pivot row first: each row is cleared at the
    # pivot columns of the rows after it, which are already reduced
    for k in range(len(basis) - 1, -1, -1):
        c, row, _ = basis[k]
        clear(row, basis[k + 1:])
        basis[k] = (c, row, [(j, y) for j, y in enumerate(row) if y])
    basis.sort(key=lambda b: b[0])
    return [b[1] for b in basis], [b[0] for b in basis]


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
    factor are skipped.  A and B must be nonempty, and the rows of A as
    long as B (checked on the first row: ValueError)."""
    if len(A[0]) != len(B):
        raise ValueError("%d-column times %d-row matrix"
                         % (len(A[0]), len(B)))
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
        if a._c and b._c:
            acc = acc + a * b
    return acc
