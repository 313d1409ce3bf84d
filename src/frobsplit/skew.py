"""The skew field K = F_q[F] tensored with F_p(F^ell) over F_p[F^ell],
matrices over it, division-ring Gaussian elimination, the tilde embedding
into M_{n*ell}(F_q(F^ell)), and minimal polynomials over the center.

K is an ell-dimensional vector space over F_q(s), s = F^ell, and tilde is
its regular representation, built straight from the parts of each entry:
an element is inverted by one linear solve against its tilde matrix, and
a central multiplier Q * P = c(F^ell) of an Ore polynomial P is read off
P^{-1} by clearing its central denominators.  The minimal polynomial of a
matrix A over the center F_p(s) is found on the top row block of
tilde(A)^k, which holds the parts of A^k: scaled by the lcm d of tilde(A)'s
denominators (in F_p[s]) and kept free of its content over F_p[s], the
block stays a polynomial matrix over F_q[s], and only an F_p(s) scalar
separates its prime coordinates from those of A^k, which leaves the
first relation among the powers where it was.
"""

from functools import cache

from .fields import (CPoly, FieldSpec, RatFun, RatFunRing, _poly, char_poly,
                     lift_cpoly, mat_mul, power, rref, rref_kernel,
                     solve_linear)
from .ore import OrePoly


class SingularMatrixError(ValueError):
    pass


class SplitSelfCheckError(RuntimeError):
    """An exact identity that a correct split satisfies by construction
    failed (an engine fault, not bad input)."""


class SkewElem:
    """Element of K: sum_{i<ell} parts[i](s) * F^i with parts in F_q(s).

    Multiplication uses F * c(s) = phi(c)(s) * F, where phi applies the
    coefficientwise Frobenius and s = F^ell is central.
    """

    __slots__ = ("spec", "parts")

    def __init__(self, spec, parts):
        self.spec = spec
        self.parts = tuple(parts)
        if len(self.parts) != spec.ell:
            raise ValueError("a SkewElem has ell = %d parts" % spec.ell)

    @classmethod
    def zero(cls, spec):
        return cls(spec, (RatFun.zero(spec),) * spec.ell)

    @classmethod
    def one(cls, spec):
        return cls(spec, (RatFun.one(spec),)
                   + (RatFun.zero(spec),) * (spec.ell - 1))

    @classmethod
    def from_ore(cls, P):
        return cls(P.spec, tuple(RatFun(a) for a in P.center_decompose()))

    @classmethod
    def from_ratfun(cls, rf):
        return cls(rf.spec, (rf,) + (RatFun.zero(rf.spec),) * (rf.spec.ell - 1))

    @classmethod
    def F(cls, spec, power=1):
        q, r = divmod(power, spec.ell)
        parts = [RatFun.zero(spec)] * spec.ell
        parts[r] = RatFun(CPoly.monomial(spec, spec.one(), q), _canonical=True)
        return cls(spec, parts)

    def is_zero(self):
        return not any(self.parts)

    def is_one(self):
        return self.parts[0].is_one() and not any(self.parts[1:])

    def __add__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return SkewElem(self.spec, tuple(a + b for a, b in
                                         zip(self.parts, other.parts)))

    def __sub__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        return SkewElem(self.spec, tuple(a - b for a, b in
                                         zip(self.parts, other.parts)))

    def __neg__(self):
        return SkewElem(self.spec, tuple(-a for a in self.parts))

    def __mul__(self, other):
        if isinstance(other, RatFun):
            other = SkewElem.from_ratfun(other)
        if self.is_one():
            return other
        if other.is_one():
            return self
        spec = self.spec
        ell = spec.ell
        out = [RatFun.zero(spec)] * ell
        for i, a in enumerate(self.parts):
            if a.is_zero():
                continue
            for j, b in enumerate(other.parts):
                if b.is_zero():
                    continue
                k, r = divmod(i + j, ell)
                term = a * b.frobenius(i)
                if k:
                    term = term * RatFun(CPoly.monomial(spec, spec.one(), k),
                                         _canonical=True)
                out[r] = out[r] + term
        return SkewElem(spec, out)

    def __rmul__(self, other):
        if isinstance(other, RatFun):
            return SkewElem.from_ratfun(other) * self
        return NotImplemented

    def scale_central(self, rf):
        """Multiply by a central rational function (commutes)."""
        return SkewElem(self.spec, tuple(a * rf for a in self.parts))

    def clear_central(self):
        """Returns (c, P) with c in F_p[s] nonzero, P an OrePoly and
        c(F^ell) * self = P."""
        spec = self.spec
        c = CPoly.one(spec)
        for a in self.parts:
            if not a.den.is_one():
                c = c.lcm(a.den.norm_to_prime())
        cleared = []
        for a in self.parts:
            num = a.num * c.exact_div(a.den)
            cleared.append(num)
        return c, OrePoly.from_parts(spec, cleared)

    def to_ore(self):
        """Convert to OrePoly; requires all parts polynomial."""
        if not all(a.den.is_one() for a in self.parts):
            raise ValueError("element has nontrivial central denominator")
        return OrePoly.from_parts(self.spec, [a.num for a in self.parts])

    def inverse(self):
        """Two-sided inverse in the skew field K: the row y with
        y * tilde(self) = (1, 0, ..., 0), that is y * self = 1, read as
        an element; a left inverse is two-sided in a division ring."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in K")
        spec = self.spec
        ell = spec.ell
        if ell == 1:
            return SkewElem(spec, (self.parts[0].inverse(),))
        T = tilde(SkewMatrix(spec, [[self]]))
        y = solve_linear([[T[j][i] for j in range(ell)] for i in range(ell)],
                         [RatFun.one(spec)] + [RatFun.zero(spec)] * (ell - 1))
        if y is None:
            raise SplitSelfCheckError("tilde of a nonzero element of K is "
                                      "not invertible")
        return SkewElem(spec, y)

    def __eq__(self, other):
        return (isinstance(other, SkewElem) and self.spec == other.spec
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.spec, self.parts))

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.parts):
            if a.is_zero():
                continue
            f = "" if i == 0 else ("F" if i == 1 else "F^%d" % i)
            terms.append("(%s)%s" % (repr(a), ("*" + f) if f else ""))
        return " + ".join(terms) if terms else "0"


class SkewMatrix:
    """Rectangular matrix over the skew field K."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec, entries):
        self.spec = spec
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("rows of a SkewMatrix differ in length")

    @classmethod
    def identity(cls, spec, n):
        z = SkewElem.zero(spec)
        o = SkewElem.one(spec)
        return cls(spec, [[o if i == j else z for j in range(n)]
                          for i in range(n)])

    @classmethod
    def zero(cls, spec, rows, cols):
        z = SkewElem.zero(spec)
        return cls(spec, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_ore(cls, spec, ore_entries):
        return cls(spec, [[SkewElem.from_ore(e) for e in row]
                          for row in ore_entries])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("%d x %d plus %d x %d matrix" % (
                self.rows, self.cols, other.rows, other.cols))

    def __add__(self, other):
        self._same_shape(other)
        return SkewMatrix(self.spec,
                          [[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return SkewMatrix(self.spec,
                          [[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return SkewMatrix(self.spec,
                          [[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, SkewElem):
            return SkewMatrix(self.spec, [[a * other for a in row]
                                          for row in self.entries])
        if self.cols != other.rows:
            raise ValueError("%d x %d times %d x %d matrix" % (
                self.rows, self.cols, other.rows, other.cols))
        if not (self.rows and self.cols):
            return SkewMatrix.zero(self.spec, self.rows, other.cols)
        return SkewMatrix(self.spec, mat_mul(self.entries, other.entries))

    def shift_central(self, rf):
        """self + rf * I for a square matrix and a central rf: only the
        diagonal changes."""
        c = SkewElem.from_ratfun(rf)
        return SkewMatrix(self.spec, [
            row[:i] + (row[i] + c,) + row[i + 1:]
            for i, row in enumerate(self.entries)])

    def __pow__(self, e):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        return power(self, e,
                     lambda: SkewMatrix.identity(self.spec, self.rows))

    def is_zero(self):
        return all(a.is_zero() for row in self.entries for a in row)

    def __eq__(self, other):
        return (isinstance(other, SkewMatrix) and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def direct_sum(self, other):
        spec = self.spec
        z = SkewElem.zero(spec)
        out = []
        for i in range(self.rows):
            out.append(list(self.entries[i]) + [z] * other.cols)
        for i in range(other.rows):
            out.append([z] * self.cols + list(other.entries[i]))
        return SkewMatrix(spec, out)

    def submatrix(self, row0, row1, col0, col1):
        return SkewMatrix(self.spec,
                          [row[col0:col1] for row in self.entries[row0:row1]])

    def __repr__(self):
        return "SkewMatrix(%d x %d)\n%s" % (
            self.rows, self.cols,
            "\n".join("  [" + ", ".join(repr(e) for e in row) + "]"
                      for row in self.entries))


# ---------------------------------------------------------------------------
# the tilde embedding

def tilde(A):
    """The unique matrix over F_q(F^ell) representing right multiplication
    by A on center-decomposed rows: (BA)_parts = B_parts * tilde(A).

    A is an n x n SkewMatrix; the result is an (n*ell) x (n*ell) matrix
    over RatFun, organized in ell x ell blocks of n x n.  Row i*n + m is
    F^i times row m of A, read off the parts a_t of each entry without a
    product in K: F^i * a_t * F^t = phi^i(a_t) * s^((i+t) // ell) *
    F^((i+t) % ell)."""
    spec = A.spec
    n = A.rows
    if A.cols != n:
        raise ValueError("tilde of a non-square matrix")
    ell = spec.ell
    N = n * ell
    s = RatFun.s(spec)
    out = [[None] * N for _ in range(N)]
    for m, row in enumerate(A.entries):
        for c, e in enumerate(row):
            for i in range(ell):
                for t, a in enumerate(e.parts):
                    if i:
                        a = a.frobenius(i)
                    j = i + t
                    if j >= ell:
                        j -= ell
                        a = a * s
                    out[i * n + m][j * n + c] = a
    return out


# ---------------------------------------------------------------------------
# central multipliers

def central_multiplier(P):
    """For nonzero P in F_q[F], find Q in F_q[F] and nonzero c in F_p[s]
    with Q * P = c(F^ell): Q = c * P^{-1}, with c clearing the central
    denominators of P^{-1} in K."""
    if P.is_zero():
        raise ValueError("central multiplier of zero")
    c, Q = SkewElem.from_ore(P).inverse().clear_central()
    d_parts = (Q * P).center_decompose()
    if d_parts[0] != c or not all(a.is_zero() for a in d_parts[1:]):
        raise SplitSelfCheckError("Q * P is not c(F^ell)")
    if not c.in_prime_field() or c.is_zero():
        raise SplitSelfCheckError("central multiplier is not a nonzero "
                                  "element of F_p[s]")
    return Q, c


# ---------------------------------------------------------------------------
# division-ring Gaussian elimination

def gauss_eliminate(M):
    """Row reduce a SkewMatrix over K.

    Returns (rank, R, T) with T * M = R, T invertible, R in reduced row
    echelon form (pivots 1, pivot columns cleared); T is read off the
    reduction of [M | I]."""
    spec, m = M.spec, M.cols
    eye = SkewMatrix.identity(spec, M.rows).entries
    rows, pivots = rref([r + e for r, e in zip(M.entries, eye)], m)
    return (len(pivots), SkewMatrix(spec, [r[:m] for r in rows]),
            SkewMatrix(spec, [r[m:] for r in rows]))


def matrix_inverse(M):
    """Exact inverse of a square SkewMatrix; raises SingularMatrixError."""
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    rank, _, T = gauss_eliminate(M)
    if rank < M.rows:
        raise SingularMatrixError("matrix is singular over K")
    # the reduced echelon form of a full-rank square matrix is I
    return T


def column_space_basis(M):
    """Indices of a maximal right-linearly-independent set of columns of
    M (column space with right scalar multiplication): the pivot columns
    of its echelon form."""
    return rref(M.entries, M.cols)[1]


def right_kernel(M):
    """Basis of {v : M v = 0} as columns over K (right kernel)."""
    R, pivots = rref(M.entries, M.cols)
    return rref_kernel(R, pivots, M.cols, SkewElem.zero(M.spec),
                       SkewElem.one(M.spec))


# ---------------------------------------------------------------------------
# polynomials over the center F_p(s)

class CenterPoly(CPoly):
    """Polynomial in x with coefficients in F_q(s); the public pipeline
    only produces instances whose coefficients lie in F_p(s).  All of
    its arithmetic is CPoly's; the ring hook sets the coefficient field."""

    __slots__ = ()

    _ring = staticmethod(cache(RatFunRing))

    @classmethod
    def x(cls, spec):
        return cls(spec, (RatFun.zero(spec), RatFun.one(spec)))

    @classmethod
    def x_minus(cls, value):
        return cls(value.spec, (-value, RatFun.one(value.spec)))

    def constant_term(self):
        return self.coeff(0)

    def in_prime_field(self):
        return all(c.in_prime_field() for c in self._c)

    def assert_prime_field(self):
        if not self.in_prime_field():
            raise ValueError("coefficients do not lie in F_p(s)")
        return self

    def evaluate_matrix(self, A):
        """Q(A) for a square SkewMatrix A; coefficients act centrally."""
        acc = SkewMatrix.zero(A.spec, A.rows, A.rows)
        for c in reversed(self.coeffs):
            acc = (acc * A).shift_central(c)
        return acc

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            xv = "" if i == 0 else ("x" if i == 1 else "x^%d" % i)
            if not xv:
                parts.append("(%s)" % repr(c))
            elif c.is_one():
                parts.append(xv)
            else:
                parts.append("(%s)*%s" % (repr(c), xv))
        return " + ".join(parts)


def companion_matrix(g):
    """Companion matrix of a monic CenterPoly, over RatFun."""
    n = g.degree
    spec = g.spec
    z = RatFun.zero(spec)
    o = RatFun.one(spec)
    M = [[z] * n for _ in range(n)]
    for i in range(1, n):
        M[i][i - 1] = o
    for i in range(n):
        M[i][n - 1] = -g.coeff(i)
    return M


def min_poly_center(A):
    """Monic least-degree Q over F_p(s) with Q(A) = 0, for a square
    SkewMatrix A.  Terminates by the Cayley-Hamilton bound deg Q <= n*ell.

    Q is the first linear relation over F_p(s) among I, A, A^2, ..., and
    it is found on the top row block of tilde(A)^k: rows 0..n-1 of
    tilde(B) are exactly the parts of the entries of B, and tilde(A^k) =
    tilde(A)^k.  With T = tilde(A) and d the lcm of T's denominators,
    T' = d*T is a matrix over F_q[s].  d lies in F_p[s]: row block i of
    T holds phi^i of the parts of A (times s past F^ell, which changes
    only the power of the phi-fixed factor s), so d is monic and fixed by
    phi.  The block X_k = X_{k-1} * T' / g_k stays over F_q[s], g_k its
    content over F_p[s]: the gcd of its prime coordinates, the F_p-slots
    of its packed coefficients.  So X_k holds the parts of A^k times
    scale_k = d^k / (g_1 ... g_k), an F_p(s) scalar; a content over F_q
    would not be one, and without content removal d^k piles up on inputs
    with central denominators.  The prime coordinates of X_k, polynomials
    over F_p = FieldSpec(p, 1), are column k.

    Scaling column k by an F_p(s) scalar scales only coordinate k of a
    kernel vector: w is a relation among the columns exactly when
    (w_k * scale_k)_k is one among the powers.  The first column that
    depends on the earlier ones gives the least degree, and the monic Q
    of least degree is unique, so the answer does not depend on the
    scales.  The columns are kept in Bareiss fraction-free echelon form
    over F_p[s] as powers are added: the steps taken so far (pivot row
    swap, pivot, heads below it, previous pivot) are replayed on each new
    column only, so no earlier column is reduced again.  With R =
    n^2*ell^2 rows and m <= n*ell powers this costs about R*m^2/2
    polynomial operations.  The first column without a pivot is back
    substituted against the stored echelon entries over F_p(s)."""
    spec = A.spec
    n = A.rows
    ell = spec.ell
    N = n * ell
    fp = spec if ell == 1 else FieldSpec.get(spec.p, 1)
    T = tilde(A)
    dens = {e.den for row in T for e in row}
    d = CPoly.one(spec)
    for den in dens:
        d = d.lcm(den)
    if not d.in_prime_field():
        raise SplitSelfCheckError("the denominators of tilde(A) have an "
                                  "lcm outside F_p[s]")
    cof = {den: d.exact_div(den) for den in dens}
    # T' = d*T as sparse columns: column J lists (I, T'[I][J]) where nonzero
    cols_T = [[] for _ in range(N)]
    for I, row in enumerate(T):
        for J, e in enumerate(row):
            if not e.is_zero():
                c = cof[e.den]
                cols_T[J].append((I, e.num if c.is_one() else e.num * c))
    d_fp = lift_cpoly(d, fp)
    zero, one = CPoly.zero(spec), CPoly.one(spec)
    p, mask = spec.p, spec._slot_mask
    slots = [spec._w * t for t in range(ell)]
    fp_zeros = [CPoly.zero(fp)] * ell

    def prime_coordinates(X):
        if ell == 1:
            return [x for row in X for x in row]
        out = []
        for row in X:
            for x in row:
                c = x._c
                if not c:
                    out += fp_zeros
                elif max(c) < p:
                    out.append(_poly(CPoly, fp, c))
                    out += fp_zeros[1:]
                else:
                    out += [_poly(CPoly, fp, [(a >> sh) & mask for a in c])
                            for sh in slots]
        return out

    X = [[one if J == m else zero for J in range(N)] for m in range(n)]
    v = prime_coordinates(X)
    scale = RatFun.one(fp)
    cols = []  # per power k: (pivot row swapped in, scale_k, echelon column k)
    for k in range(N + 1):
        if k:
            X = [[_sparse_dot(row, col, zero) for col in cols_T] for row in X]
            v = prime_coordinates(X)
            g = None
            for x in v:
                if x._c:
                    g = x.monic() if g is None else g.gcd(x)
                    if not g.degree:
                        break
            if g is None or not g.degree:
                g = CPoly.one(fp)
            else:
                g_spec = lift_cpoly(g, spec)
                X = [[x.exact_div(g_spec) if x._c else x for x in row]
                     for row in X]
                v = prime_coordinates(X)
            scale = scale * RatFun(d_fp, g)
        rows = len(v)
        prev = None
        for t, (swap, _, col) in enumerate(cols):
            v[t], v[swap] = v[swap], v[t]
            piv, top = col[t], v[t]
            for i in range(t + 1, rows):
                x, head = v[i], col[i]
                if head._c and top._c:
                    x = piv * x - head * top
                elif x._c:
                    x = piv * x
                else:
                    continue
                if prev is not None and x._c:
                    x = x.exact_div(prev)
                v[i] = x
            prev = None if piv.is_one() else piv
        pr = next((i for i in range(k, rows) if v[i]._c), None)
        if pr is not None:
            v[k], v[pr] = v[pr], v[k]
            cols.append((pr, scale, v))
            continue
        # v[:k] = -(echelon columns 0..k-1) * w', with w'_k = 1
        w = [None] * k
        for t in reversed(range(k)):
            acc = RatFun(v[t], _canonical=True)
            for j in range(t + 1, k):
                u = cols[j][2][t]
                if not u.is_zero():
                    acc = acc + RatFun(u, _canonical=True) * w[j]
            w[t] = -(acc / RatFun(cols[t][2][t], _canonical=True))
        inv_scale = scale.inverse()
        coeffs = [w[j] * cols[j][1] * inv_scale for j in range(k)]
        return CenterPoly(spec, [
            RatFun(lift_cpoly(c.num, spec), lift_cpoly(c.den, spec),
                   _canonical=True) for c in coeffs]
            + [RatFun.one(spec)]).assert_prime_field()
    raise SplitSelfCheckError("no annihilating polynomial below the "
                              "Cayley-Hamilton bound")


def _sparse_dot(row, col, zero):
    """Sum of row[I] * t over the (I, t) of a sparse column."""
    acc = zero
    for I, t in col:
        x = row[I]
        if x._c:
            acc = acc + x * t
    return acc


def char_poly_tilde(A):
    """Characteristic polynomial of tilde(A) as a CenterPoly over F_q(s)."""
    return CenterPoly(A.spec, char_poly(tilde(A)))
