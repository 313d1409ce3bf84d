"""The hand-written Ore grammar that `ore.split_top` replaced, kept as the
reference for the differential test of `ore.parse_ore` (not used in src).

Its only addition is `ReferenceTooLarge`: where this parser would build a
coefficient tuple of more than 2^20 powers of F, it raises that in place
of the allocation, so that a test can skip the text."""

from frobsplit.ore import OreParseError, OrePoly, parse_field_literal


class ReferenceTooLarge(Exception):
    """The term's F-degree is past 2^20; the reference has no bound."""


def reference_parse_ore(text, spec):
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
        result = result + _reference_parse_term(term.strip(), spec, sign)
    return result


def _reference_parse_term(term, spec, sign):
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
    # the term is one monomial c*F^k, read left to right: F^j adds j to
    # k, and a constant a moves left past F^k as phi^k(a) = a^(p^k)
    coef, k = spec.from_int(sign), 0
    for fac in factors:
        if fac == "F":
            k += 1
        elif fac.startswith("F^"):
            try:
                power = int(fac[2:])
            except ValueError:
                raise OreParseError("bad F power: %r" % fac)
            if power < 0:
                raise OreParseError("negative F power: %r" % fac)
            k += power
        else:
            coef = coef * parse_field_literal(fac, spec).frobenius(k)
    if k > 2 ** 20:
        raise ReferenceTooLarge(k)
    return OrePoly(spec, (spec.zero(),) * k + (coef,))
