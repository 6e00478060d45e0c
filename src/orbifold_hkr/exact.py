"""Exact arithmetic kernels.

Arbitrary-precision rationals (stdlib Fraction), dense linear algebra over Q,
truncated series, and integer lattices.  Everything is rational:
characteristic polynomials come from integer power sums by Newton's
identities, so no eigenvalue is ever needed.  Every value is immutable and
every function pure.

There is one series expansion, det_series_factor: 1 / det(I - tM) in
integers, from the key elementary_symmetric makes of M's power sums.
BiSeries is the bigraded table the Molien sums are reported in; it only adds.

There is one elimination loop, _echelon: fraction-free (Bareiss) Gauss-Jordan
on integer-cleared rows.  rref, mat_rank, nullspace_basis, linear_solve,
inverse_pair (and with it mat_inv) and mat_det are views of its result.

There is one unimodular integer reduction, hermite_form: the row Hermite form
by gcd steps.  The oracle's invariant lattice is reduced by it, and
smith_normal_form is a view of it: Hermite forms of rows and columns in turn.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul
import re

QZERO = Fraction(0)
QONE = Fraction(1)


class BadRational(ValueError):
    """String is not of the form p or p/q with integer p and positive integer q."""


class NotInvertible(ZeroDivisionError):
    """A matrix inverse was requested and the determinant vanishes."""


class InternalError(RuntimeError):
    """A check that holds for every valid input failed: a bug, not bad input."""


class CapExceeded(RuntimeError):
    """A size limit was passed: a cap, a bound that every finite group or
    finite-order element keeps, or the oracle's work guard."""


# rationals -----------------------------------------------------------------

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")


def parse_rational(text):
    """Parse "p" or "p/q" (decimal integers, optional sign on p) exactly.

    >>> parse_rational("-6/4")
    Fraction(-3, 2)
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise BadRational("expected 'p' or 'p/q' with integer entries, got %r" % (text,))
    s = text.strip()
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise BadRational("zero denominator in %r" % (text,))
        return Fraction(int(num), int(den))
    return Fraction(int(s))


# dense linear algebra over Q -----------------------------------------------
# Entries are Fractions; plain ints are lifted to Fraction on entry.

def mat_identity(n):
    return tuple(tuple(QONE if i == j else QZERO for j in range(n)) for i in range(n))


def mat_mul(A, B):
    # the QZERO start makes every entry a Fraction, even for int inputs
    if A and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col), QZERO) for col in cols) for row in A)


def mat_sub(A, B):
    return tuple(tuple(Fraction(a - b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def transpose(A):
    return tuple(zip(*A))


def mat_vec(A, v):
    return tuple(sum(map(mul, row, v), QZERO) for row in A)


# integer matrices over one denominator ---------------------------------------
# A rational matrix M is the pair (d, N), N = d * M integral and d > 0 the
# least such, i.e. the lcm of the entries' denominators; then
# gcd(d, content of N) = 1, so the pair is unique and can serve as a key.

def integer_form(M):
    """The pair (d, N) of M, a tuple of int tuples; entries may be ints or Fractions."""
    d = lcm(*[x.denominator for row in M for x in row])
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in M)


def lowest_terms(d, N):
    """The pair (d, N) with gcd(d, content of N) divided out of both."""
    g = gcd(d, *[x for row in N for x in row]) if d > 1 else 1
    return (d, N) if g == 1 else (d // g, tuple(tuple(x // g for x in row) for row in N))


def rational_matrix(d, N):
    """The Fraction matrix N / d."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in N)


def int_mat_mul(A, B):
    """Product of integer matrices; a B with no rows gives empty rows."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def _echelon(A):
    """The one elimination loop: fraction-free Gauss-Jordan on the rows of A.

    Each row is cleared of denominators and divided by its content, then
    eliminated Bareiss-style: a touched row becomes (piv * x - f * y) // q,
    exact because every entry stays a minor of the cleared matrix.  q is the
    pivot the row last saw, so a row with a zero in the pivot column is left
    as it is and catches up at its next update; sparse rows cost nothing
    until touched.  Rows that fall to zero are dropped.

    Returns (rows, pivots, (s, t)): rows[i] is an integer multiple of the
    i-th nonzero row of the reduced echelon form, with its pivot in column
    pivots[i]; for square A of full rank det(A) = s * p / t, p the last
    pivot entry.
    """
    s = t = 1
    rest = []  # [row, the pivot it last saw] of each row not yet a pivot row
    for row in A:
        den = lcm(*[x.denominator for x in row])
        ints = ([x.numerator * (den // x.denominator) for x in row] if den > 1
                else [x.numerator for x in row])
        g = gcd(*ints)
        if g:
            rest.append([[x // g for x in ints] if g > 1 else ints, 1])
            s *= g
            t *= den
    top = []   # the same for the pivot rows, in pivot order
    pivots = []
    prev = 1
    for c in range(len(A[0]) if A else 0):
        if not rest:
            break
        for j, entry in enumerate(rest):
            if entry[0][c]:
                break
        else:
            continue
        del rest[j]
        if j % 2:
            s = -s
        prow, seen = entry
        if seen != prev:
            prow = [x * prev // seen for x in prow]
        piv = prow[c]
        for entry in top:
            row, seen = entry
            f = row[c]
            if f:
                entry[0] = [(piv * x - f * y) // seen for x, y in zip(row, prow)]
                entry[1] = piv
        kept = []
        for entry in rest:
            row, seen = entry
            f = row[c]
            if f:
                row = [(piv * x - f * y) // seen for x, y in zip(row, prow)]
                if not any(row):
                    continue
                entry = [row, piv]
            kept.append(entry)
        rest = kept
        top.append([prow, piv])
        pivots.append(c)
        prev = piv
    return [row for row, _ in top], pivots, (s, t)


def rref(A):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows, pivots, _ = _echelon(A)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    ncols = len(A[0]) if A else 0
    return out + [[QZERO] * ncols for _ in range(len(A) - len(rows))], pivots


def mat_rank(A):
    return len(_echelon(A)[1])


def nullspace_basis(A):
    """Echelon basis of {v : Av = 0}; deterministic, one vector per free column.

    The vector of free column j is 1 at j and 0 at every other free column;
    elsewhere it is nonzero only at pivot columns left of j, since a pivot is
    its row's first nonzero.  So its last nonzero entry is the 1 at j.
    """
    if not A:
        return []
    ncols = len(A[0])
    rows, pivots, _ = _echelon(A)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [QZERO] * ncols
        v[f] = QONE
        for row, p in zip(rows, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return basis


def linear_solve(A, rhs):
    """One solution of A x = b for each b in rhs, free variables zeroed, from
    one echelon of [A | b_1 ... b_k]; None if any b is outside the column
    span of A."""
    if not A:
        return [()] * len(rhs)
    ncols = len(A[0])
    rows, pivots, _ = _echelon([list(a) + [b[i] for b in rhs] for i, a in enumerate(A)])
    if pivots and pivots[-1] >= ncols:
        return None
    sols = []
    for j in range(ncols, ncols + len(rhs)):
        x = [QZERO] * ncols
        for row, p in zip(rows, pivots):
            x[p] = Fraction(row[j], row[p])
        sols.append(tuple(x))
    return sols


def inverse_pair(A):
    """The pair (e, V) of A^-1 = V / e in lowest terms, from the right half of
    the echelon of [A | I]; raises NotInvertible on singular input.

    [A | I] always has rank n, so A is invertible exactly when the n pivots
    are the columns of A.
    """
    n = len(A)
    rows, pivots, _ = _echelon([list(a) + [int(i == j) for j in range(n)]
                                for i, a in enumerate(A)])
    if pivots != list(range(n)):
        raise NotInvertible("matrix is singular")
    e = lcm(*[row[i] for i, row in enumerate(rows)])
    return lowest_terms(e, tuple(tuple(x * (e // row[i]) for x in row[n:])
                                 for i, row in enumerate(rows)))


def mat_inv(A):
    return rational_matrix(*inverse_pair(A))


def mat_det(A):
    """Determinant from the echelon: the last pivot times the row scaling."""
    if not A:
        return QONE
    rows, pivots, (s, t) = _echelon(A)
    if len(pivots) < len(A):
        return QZERO
    return Fraction(s * rows[-1][pivots[-1]], t)


def elementary_symmetric(power_sums):
    """The integer key (1, c_1, ..., c_f) of det(I - tA) = sum c_k t^k, so
    e_k(A) = (-1)^k c_k, from the power sums p_j = tr(A^j), j <= f, of a
    finite-order A by Newton's identities k c_k = -(p_1 c_(k-1) + ... +
    p_k c_0); an inexact division or c_f = +-det A other than +-1 raises
    InternalError.

    >>> elementary_symmetric((2, 2))  # the 2 x 2 identity: (1 - t)^2
    (1, -2, 1)
    """
    coeffs = [1]
    for k in range(1, len(power_sums) + 1):
        c, r = divmod(-sum(map(mul, power_sums, reversed(coeffs))), k)
        if r or k == len(power_sums) and c not in (1, -1):
            raise InternalError("the power sums are no finite-order matrix's; "
                                "this is a bug, not bad input")
        coeffs.append(c)
    return tuple(coeffs)


# truncated series --------------------------------------------------------

class BiSeries:
    """Bigraded coefficient table: polynomial in u, series in t cut at t_max.

    rows[p][d] is the coefficient of u^p t^d, 0 <= p <= u_max, 0 <= d <= t_max,
    kept as the exact value given (an int or a Fraction; the Molien tables
    give ints), and every zero it adds is the int 0.  Sums pad the summand
    with fewer u degrees by zero rows.
    """

    __slots__ = ("u_max", "t_max", "rows")

    def __init__(self, u_max, t_max, rows):
        rs = tuple(map(tuple, rows))
        if len(rs) != u_max + 1 or any(len(r) != t_max + 1 for r in rs):
            raise ValueError("rows must form a (u_max+1) x (t_max+1) rectangle")
        self.u_max = u_max
        self.t_max = t_max
        self.rows = rs

    @classmethod
    def zero(cls, u_max, t_max):
        return cls(u_max, t_max, [[0] * (t_max + 1) for _ in range(u_max + 1)])

    def coeff(self, p, d):
        if d < 0 or d > self.t_max:
            raise ValueError("t-degree %d outside truncation %d" % (d, self.t_max))
        if p < 0 or p > self.u_max:
            return 0
        return self.rows[p][d]

    def row(self, p):
        if p > self.u_max:
            return (0,) * (self.t_max + 1)
        return self.rows[p]

    def __add__(self, other):
        if self.t_max != other.t_max:
            raise ValueError("t truncations differ")
        u = max(self.u_max, other.u_max)
        return BiSeries(u, self.t_max, [[x + y for x, y in zip(self.row(p), other.row(p))]
                                        for p in range(u + 1)])

    def __eq__(self, other):
        return (isinstance(other, BiSeries) and self.u_max == other.u_max
                and self.t_max == other.t_max and self.rows == other.rows)

    def __hash__(self):
        return hash((self.u_max, self.t_max, self.rows))

    def __repr__(self):
        return "BiSeries(u_max=%d, t_max=%d, %s)" % (
            self.u_max, self.t_max, [[str(c) for c in row] for row in self.rows])


def det_series_factor(key, t_max):
    """1 / det(I - tM) to t^t_max from the key c of elementary_symmetric: the
    integers B_0 = 1, B_m = -(c_1 B_(m-1) + ... + c_f B_(m-f)).

    >>> det_series_factor(elementary_symmetric((1,)), 3)
    (1, 1, 1, 1)
    """
    B = [1]
    for m in range(1, t_max + 1):
        B.append(-sum(key[k] * B[m - k] for k in range(1, min(m, len(key) - 1) + 1)))
    return tuple(B)


# integer lattices ---------------------------------------------------------------

def _xgcd(a, b):
    # (g, x, y) with g = gcd(a, b) = x a + y b >= 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, x0, y0, x1, y1 = b, r, x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hermite_form(vectors, ncols):
    """The nonzero rows of the row Hermite form of vectors in Z^ncols.

    Each row's first nonzero entry, its pivot, is positive and lies right of
    the row above's, and the entries above each pivot are reduced modulo it.
    Vectors are folded in by unimodular gcd steps (Cohen, section 2.4), so
    the rows span exactly their lattice, of any rank; the form is unique.
    """
    basis = {}  # pivot column -> row
    for v in vectors:
        for c in range(ncols):
            if not v[c]:
                continue
            b = basis.get(c)
            if b is None:
                basis[c] = list(v) if v[c] > 0 else [-x for x in v]
                break
            g, x, y = _xgcd(b[c], v[c])
            s, t = b[c] // g, v[c] // g
            basis[c] = [x * bi + y * vi for bi, vi in zip(b, v)]
            v = [s * vi - t * bi for bi, vi in zip(b, v)]
    rows = [basis[c] for c in sorted(basis)]
    for i, c in enumerate(sorted(basis)):
        for r in range(i):
            q = rows[r][c] // rows[i][c]
            if q:
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[i])]
    return rows


def smith_normal_form(M):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix, given
    as a list of integer rows.

    Hermite forms of the rows and of the columns in turn (Kannan and Bachem,
    SIAM J. Comput. 8, 1979) until each row has one nonzero entry.  The form
    is unique, so a round that does not finish shrinks the leading pivot of
    the block not yet diagonal to a proper divisor or, when that pivot
    divides its row, clears its row and column for good.  Pairs of the
    diagonal are then replaced by their gcd and lcm.

    >>> smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    (2, 2, 156)
    """
    rows = hermite_form(M, len(M[0]) if M else 0)
    while any(len(row) - row.count(0) > 1 for row in rows):
        rows = hermite_form(transpose(rows), len(rows))
    d = [max(row) for row in rows]  # each row's one nonzero entry, its pivot
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)
