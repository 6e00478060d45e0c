from fractions import Fraction
from itertools import combinations

import pytest

from orbifold_hkr import conjugacy_classes, generate
from orbifold_hkr.hkr import OracleSector
from orbifold_hkr.sectors import build_sector

F = Fraction


def m(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


# the four sweep groups plus extras with rational (non-integer) entries
SIGN_1D = (m([[-1]]),)
MINUS_I2 = (m([[-1, 0], [0, -1]]),)
ROT4 = (m([[0, -1], [1, 0]]),)
S3_PERM = (m([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
           m([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
C3_RAT = (m([[0, -1], [1, -1]]),)
C6_RAT = (m([[1, -1], [1, 0]]),)
D4 = (m([[0, -1], [1, 0]]), m([[1, 0], [0, -1]]))
C4_SCALED = (m([[0, -2], [F(1, 2), 0]]),)
B3 = (m([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
      m([[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
      m([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
# a det-3 change of basis that gives B3 non-integer entries
B3_BASIS = m([[1, 1, 0], [-1, 1, 1], [0, 1, 2]])

# Cartan matrices; the simple reflection s_i sends alpha_j to
# alpha_j - A_ij alpha_i, so with the B4 matrix the roots span the lattice of
# the C4 roots, e_i +- e_j and 2 e_i
B4_CARTAN = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2))
D4_CARTAN = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def cartan_generators(A):
    """The simple reflections of the Cartan matrix A in the root basis."""
    n = len(A)
    return tuple(m([[int(k == j) - (A[i][j] if k == i else 0) for j in range(n)]
                    for k in range(n)]) for i in range(n))


SWEEP = {
    "C2 sign on A1": SIGN_1D,
    "minus I on A2": MINUS_I2,
    "C4 rotation on A2": ROT4,
    "S3 permutation on A3": S3_PERM,
}

ZOO = dict(SWEEP)
ZOO.update({
    "C3 rational on A2": C3_RAT,
    "C6 rational on A2": C6_RAT,
    "D4 on A2": D4,
    "C4 scaled on A2": C4_SCALED,
})


@pytest.fixture(scope="session")
def sweep_groups():
    return {name: generate(gens, 100000) for name, gens in SWEEP.items()}


@pytest.fixture(scope="session")
def zoo_groups():
    return {name: generate(gens, 100000) for name, gens in ZOO.items()}


def oracle_sector(G, cls, classes):
    """The oracle's record of the class cls, with the fixed dimension f that
    the Molien sector (and so the report's homology table) gives it."""
    return OracleSector(G, cls, build_sector(G, cls, classes).fixed_dim)


def oracle_sectors(G):
    """The oracle's record of every class of G, in class order."""
    classes = conjugacy_classes(G)
    return [oracle_sector(G, cls, classes) for cls in classes]


def fraction_gauss_jordan(A):
    """Reference reduced row echelon form by plain Fraction Gauss-Jordan:
    (rows, pivots, det), det the determinant when A is square."""
    rows = [[F(x) for x in row] for row in A]
    ncols = len(rows[0]) if rows else 0
    pivots, det, r = [], F(1), 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = -det
        piv = rows[r][c]
        det *= piv
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if len(pivots) < len(rows):
        det = F(0)
    return rows, pivots, det


def char_key(M):
    """Reference coefficients (1, c_1, ..., c_n) of det(I - tM) = sum c_k t^k
    for a Fraction matrix M with an integral characteristic polynomial, by
    principal minors: c_k = (-1)^k times the sum of the k x k ones."""
    n = len(M)
    coeffs = [(-1) ** k * sum(fraction_gauss_jordan([[M[i][j] for j in I] for i in I])[2]
                              for I in combinations(range(n), k)) if k else F(1)
              for k in range(n + 1)]
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)
