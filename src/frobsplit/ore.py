"""The twisted polynomial ring F_q[F] with commutation rule F*a = a^p*F,
its evaluation action on field elements and rational functions, and
decomposition over the center F_q[F^ell].
"""

from .fields import CapacityError, CPoly, FqElem, poly_text, power
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

# parse_ore stores one coefficient per power of F
F_DEGREE_CAP = 2 ** 20


def format_ore(P):
    return poly_text(P.coeffs, "F")


class OreParseError(ValueError):
    pass


def parse_field_literal(text, spec):
    """An integer, or `[c0,c1,...]` with at most ell integer coefficients
    over the basis of F_q; anything else raises OreParseError."""
    text = text.strip()
    if text.startswith("[") and not text.endswith("]"):
        raise OreParseError("unterminated field literal: %r" % text)
    try:
        if not text.startswith("["):
            return spec.from_int(int(text))
        inner = text[1:-1].strip()
        ints = [int(t) for t in inner.split(",")] if inner else []
    except ValueError:
        raise OreParseError("bad field literal: %r" % text)
    if len(ints) > spec.ell:
        raise OreParseError("too many coefficients for F_%d^%d: %r"
                            % (spec.p, spec.ell, text))
    return spec.element(ints)


def split_top(text, seps):
    """Cut `text` at the characters of `seps` outside `[]` and `()`: a
    list of (separator, part) pairs, the first with the separator ''."""
    out = []
    sep, start, depth = "", 0, 0
    for i, ch in enumerate(text):
        if ch in seps:
            if not depth:
                out.append((sep, text[start:i]))
                sep, start = ch, i + 1
        elif ch in "[(":
            depth += 1
        elif ch in ")]":
            depth -= 1
    out.append((sep, text[start:]))
    return out


def parse_ore(text, spec):
    """Parse `a0 + a1*F + a2*F^2`; also accepts right-coefficient terms
    like `F*a`, which are normalized to the canonical left form.  A term's
    sign is the product of the signs since the previous term, so
    `F - -1` is F + 1."""
    if not text.strip():
        raise OreParseError("empty Ore polynomial")
    coeffs, sign = [], 1
    for sep, term in split_top(text, "+-"):
        if sep == "-":
            sign = -sign
        term = term.strip()
        if term:
            coef, k = _parse_term(term, spec, sign)
            coeffs += [spec.zero()] * (k + 1 - len(coeffs))
            coeffs[k] = coeffs[k] + coef
            sign = 1
    return OrePoly(spec, coeffs)


def _parse_term(term, spec, sign):
    """(c, k) of the monomial c*F^k, read left to right: F^j adds j to k,
    and a constant a moves left past F^k as phi^k(a) = a^(p^k)."""
    coef, k = spec.from_int(sign), 0
    for _, fac in split_top(term, "*"):
        fac = fac.strip()
        if fac == "F":
            k += 1
        elif fac.startswith("F^"):
            try:
                k += int(fac[2:])
            except ValueError:
                raise OreParseError("bad F power: %r" % fac)
        elif fac:
            coef = coef * parse_field_literal(fac, spec).frobenius(k)
        else:
            raise OreParseError("empty factor in term %r" % term)
    if k > F_DEGREE_CAP:
        raise CapacityError("F^%d in term %r, above the cap %d on the "
                            "F-degree of a term" % (k, term, F_DEGREE_CAP))
    return coef, k
