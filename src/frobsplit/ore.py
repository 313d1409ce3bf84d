"""The twisted polynomial ring F_q[F] with commutation rule F*a = a^p*F,
its evaluation action on field elements and rational functions, Euclidean
division on both sides, and decomposition over the center F_q[F^ell].
"""

from .fields import CPoly, FqElem, power
from .mrat import MRatFun


class OrePoly:
    """Element of F_q[F]: coeffs[i] multiplies F^i (coefficients on the
    left of powers of F).  The zero element is the empty list."""

    __slots__ = ("spec", "coeffs")

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
        return cls(spec, (spec.one(),))

    @classmethod
    def F(cls, spec, power=1):
        return cls(spec, (spec.zero(),) * power + (spec.one(),))

    @classmethod
    def constant(cls, value):
        return cls(value.spec, (value,))

    @classmethod
    def from_parts(cls, spec, parts):
        """Recompose from center parts: sum_i parts[i](F^ell) * F^i."""
        ell = spec.ell
        deg = max((ell * a.degree + i for i, a in enumerate(parts)
                   if not a.is_zero()), default=-1)
        if deg < 0:
            return cls.zero(spec)
        coeffs = [spec.zero()] * (deg + 1)
        for i, a in enumerate(parts):
            for k, c in enumerate(a.coeffs):
                coeffs[ell * k + i] = coeffs[ell * k + i] + c
        return cls(spec, coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def coeff(self, i):
        if i < len(self.coeffs):
            return self.coeffs[i]
        return self.spec.zero()

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return OrePoly(self.spec, out)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.spec.zero()
        out = [(self.coeffs[i] if i < len(self.coeffs) else z)
               - (other.coeffs[i] if i < len(other.coeffs) else z)
               for i in range(n)]
        return OrePoly(self.spec, out)

    def __neg__(self):
        return OrePoly(self.spec, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        """Twisted product: (a F^i)(b F^j) = a * b^(p^i) F^(i+j)."""
        if isinstance(other, FqElem):
            other = OrePoly.constant(other)
        if self.is_zero() or other.is_zero():
            return OrePoly.zero(self.spec)
        z = self.spec.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b.frobenius(i)
        return OrePoly(self.spec, out)

    def __rmul__(self, other):
        if isinstance(other, FqElem):
            return OrePoly.constant(other) * self
        return NotImplemented

    def __pow__(self, e):
        return power(self, e, lambda: OrePoly.one(self.spec))

    def __call__(self, x):
        """Evaluate: (sum a_i F^i)(x) = sum a_i x^(p^i).

        x may be an FqElem (of any extension of F_p compatible with the
        coefficients) or an MRatFun."""
        if isinstance(x, FqElem):
            acc = x.spec.zero()
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                acc = acc + _coerce(a, x.spec) * x ** (x.spec.p ** i)
            return acc
        if isinstance(x, MRatFun):
            acc = MRatFun.zero(x.spec, x.nvars)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                acc = acc + x.frobenius_pow(i) * _coerce(a, x.spec)
            return acc
        raise TypeError("cannot evaluate OrePoly on %r" % type(x))

    def divmod_right(self, d):
        """P = Q*D + R with deg R < deg D."""
        if d.is_zero():
            raise ZeroDivisionError("Ore division by zero")
        spec = self.spec
        r = self
        q = OrePoly.zero(spec)
        dlc = d.coeffs[-1]
        dd = d.degree
        while r.degree >= dd and not r.is_zero():
            k = r.degree - dd
            c = r.coeffs[-1] * dlc.frobenius(k).inverse()
            term = OrePoly(spec, (spec.zero(),) * k + (c,))
            q = q + term
            r = r - term * d
        return q, r

    def divmod_left(self, d):
        """P = D*Q + R with deg R < deg D."""
        if d.is_zero():
            raise ZeroDivisionError("Ore division by zero")
        spec = self.spec
        r = self
        q = OrePoly.zero(spec)
        dd = d.degree
        while r.degree >= dd and not r.is_zero():
            k = r.degree - dd
            # leading coefficient of D * (c F^k) is lc(D) * c^(p^dd)
            c = (r.coeffs[-1] * d.coeffs[-1].inverse()).frobenius(
                (-dd) % spec.ell)
            term = OrePoly(spec, (spec.zero(),) * k + (c,))
            q = q + term
            r = r - d * term
        return q, r

    def center_decompose(self):
        """Unique parts a_i in F_q[s] with P = sum_i a_i(F^ell) F^i."""
        spec = self.spec
        ell = spec.ell
        parts = []
        for i in range(ell):
            comp = [self.coeff(ell * k + i)
                    for k in range((self.degree - i) // ell + 1)] \
                if self.degree >= i else []
            parts.append(CPoly(spec, comp))
        return parts

    def is_central(self):
        """True iff P lies in F_p[F^ell] (the center of F_q[F])."""
        parts = self.center_decompose()
        if any(not a.is_zero() for a in parts[1:]):
            return False
        return parts[0].in_prime_field()

    def __eq__(self, other):
        return (isinstance(other, OrePoly) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        return format_ore(self)


def _coerce(a, target_spec):
    """Move a coefficient into the evaluation field."""
    if a.spec == target_spec:
        return a
    from .fqfactor import embedding
    return embedding(a.spec, target_spec)(a)


# ---------------------------------------------------------------------------
# textual grammar: `a0 + a1*F + a2*F^2` with field-element literals that are
# either integers (prime field) or bracketed vectors `[c0,c1,...]`

def format_ore(P):
    if P.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(P.coeffs):
        if c.is_zero():
            continue
        fpart = "" if i == 0 else ("F" if i == 1 else "F^%d" % i)
        if not fpart:
            parts.append(repr(c))
        elif c.is_one():
            parts.append(fpart)
        else:
            parts.append("%s*%s" % (repr(c), fpart))
    return " + ".join(parts)


class OreParseError(ValueError):
    pass


def parse_field_literal(text, spec):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise OreParseError("unterminated field literal: %r" % text)
        inner = text[1:-1].strip()
        ints = [int(t) for t in inner.split(",")] if inner else []
        return spec.element(ints)
    return spec.from_int(int(text))


def parse_ore(text, spec):
    """Parse `a0 + a1*F + a2*F^2`; also accepts right-coefficient terms
    like `F*a`, which are normalized to the canonical left form."""
    text = text.strip()
    if not text:
        raise OreParseError("empty Ore polynomial")
    # split on top-level + and - signs
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip():
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif depth == 0 and ch in "+-" and not cur.strip():
            if ch == "-":
                sign = -sign
        else:
            cur += ch
    if cur.strip():
        terms.append((sign, cur))
    result = OrePoly.zero(spec)
    for sign, term in terms:
        result = result + _parse_term(term.strip(), spec, sign)
    return result


def _parse_term(term, spec, sign):
    factors = []
    depth = 0
    cur = ""
    for ch in term:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch == "*":
            factors.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        factors.append(cur.strip())
    acc = OrePoly.constant(spec.from_int(sign))
    for fac in factors:
        if fac == "F":
            acc = acc * OrePoly.F(spec)
        elif fac.startswith("F^"):
            try:
                power = int(fac[2:])
            except ValueError:
                raise OreParseError("bad F power: %r" % fac)
            if power < 0:
                raise OreParseError("negative F power: %r" % fac)
            acc = acc * OrePoly.F(spec, power)
        else:
            try:
                acc = acc * OrePoly.constant(parse_field_literal(fac, spec))
            except OreParseError:
                raise
            except ValueError:
                raise OreParseError("bad term factor: %r" % fac)
    return acc
