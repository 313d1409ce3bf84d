"""Square RatFun matrix helpers shared by the tests (not used in src)."""

from frobsplit.fields import RatFun, char_poly


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
