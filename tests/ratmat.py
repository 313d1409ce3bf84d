"""RatFun helpers shared by the tests (not used in src): square matrix
helpers, the F_p(s)-coordinates of an element of F_q(s), and an
AdditiveMap applied to one point."""

from frobsplit.fields import CPoly, RatFun, _poly, char_poly


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
    w, mask = spec._w, spec._slot_mask
    return [RatFun(_poly(CPoly, spec, [(c >> (w * k)) & mask
                                       for c in num2._c]), den2)
            for k in range(ell)]


def apply_map(A, point):
    """A * point for an AdditiveMap A: entry (i, j) applied to
    coordinate j, summed over j."""
    out = []
    for i in range(A.N):
        acc = None
        for j in range(A.N):
            term = A.entries[i][j](point[j])
            acc = term if acc is None else acc + term
        out.append(acc)
    return out
