"""Chain-level checks around the filtered circle.

Integral homology of the degree-r cofiber Gamma_r and of its r-fold cover,
fiber dimensions of the coordinate-axes degeneration over A^1, the two-term
homotopy-limit complex with its cyclic symmetry, and the homotopy colimit
graph of the generic fiber.  Everything is finite linear algebra over Z or Q,
plus a union-find count of graph components; no simplicial machinery.
"""

from collections import namedtuple

from .exact import (InternalError, QONE, QZERO, int_mat_mul, linear_solve,
                    mat_rank, mat_vec, nullspace_basis, smith_normal_form)


class ChainComplex:
    """Bounded complex of finitely generated free Z-modules.

    differentials[k] is the matrix of d: C_{k+1} -> C_k, shaped
    ranks[k] x ranks[k+1], kept as a tuple of int tuples; rectangular rows,
    the shape and d o d = 0 are checked at construction.
    """

    def __init__(self, ranks, differentials):
        self.ranks = tuple(int(r) for r in ranks)
        if any(r < 0 for r in self.ranks):
            raise ValueError("negative rank")
        if len(differentials) != len(self.ranks) - 1:
            raise ValueError("need one differential per adjacent pair of ranks")
        ds = []
        for k, d in enumerate(differentials):
            m = tuple(tuple(int(x) for x in row) for row in d)
            if m and any(len(r) != len(m[0]) for r in m):
                raise ValueError("differential %d has ragged rows" % k)
            if self.ranks[k] and self.ranks[k + 1]:
                rows, cols = len(m), len(m[0]) if m else 0
                if (rows, cols) != (self.ranks[k], self.ranks[k + 1]):
                    raise ValueError("differential %d has shape %dx%d, expected %dx%d"
                                     % (k, rows, cols, self.ranks[k], self.ranks[k + 1]))
            elif any(any(row) for row in m):
                raise ValueError("nonzero differential on a rank-zero module")
            ds.append(m)
        self.differentials = tuple(ds)
        for k in range(len(ds) - 1):
            a, b = ds[k], ds[k + 1]
            if a and a[0] and b and b[0]:
                if any(any(row) for row in int_mat_mul(a, b)):
                    raise ValueError("d o d != 0 between degrees %d and %d" % (k + 2, k))

    def homology(self):
        """[(free rank, torsion factors > 1)] in each degree, via Smith form."""
        n = len(self.ranks)
        snfs = []
        for d in self.differentials:
            if d and d[0]:
                snfs.append(smith_normal_form(d))
            else:
                snfs.append(())
        out = []
        for k in range(n):
            rank_out = len(snfs[k - 1]) if k >= 1 else 0
            incoming = snfs[k] if k < n - 1 else ()
            free = self.ranks[k] - rank_out - len(incoming)
            torsion = tuple(x for x in incoming if x > 1)
            out.append((free, torsion))
        return out


def gamma_homology(r):
    """Integral homology (H0, H1, H2) of the degree-r cofiber on the circle.

    CW model: one 0-cell, one 1-cell glued as a loop (so d1 = 0), one 2-cell
    attached along the loop traversed r times.

    >>> gamma_homology(2)
    ((1, ()), (0, (2,)), (0, ()))
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    cx = ChainComplex((1, 1, 1), ([[0]], [[r]]))
    return tuple(cx.homology())


def cover_homology(r):
    """Integral homology of the r-fold cover model: a circle with r 2-cells
    each glued once around the loop.

    >>> cover_homology(3)
    ((1, ()), (0, ()), (2, ()))
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    cx = ChainComplex((1, 1, r), ([[0]], [[1] * r]))
    return tuple(cx.homology())


def _axes_basis(n, top):
    # the coordinate-axes algebra has the unit in weight 0 and x_i^d in weight d
    basis = [(0, 0)]
    for d in range(1, top + 1):
        for i in range(n):
            basis.append((d, i))
    return basis


def fiber_dimension(n, at_zero=False):
    """Dimension of the fiber of the n coordinate axes over A^1.

    The map is t = x_1 + ... + x_n; the fiber algebra is the quotient by
    sigma - c with c = 0 at the special point and c = 1 otherwise.
    Multiplication by sigma - c sends weight d into weights <= d + 1, and its
    top-weight part is injective on weights >= 1, so the exact quotient
    dimension is visible in a finite truncation.  Computed at cutoffs 2, 3, 4
    and required to agree.

    >>> fiber_dimension(3), fiber_dimension(3, at_zero=True)
    (3, 3)
    """
    if n < 1:
        raise ValueError("need at least one axis")
    c = QZERO if at_zero else QONE
    dims = []
    for top in (2, 3, 4):
        tgt = _axes_basis(n, top)
        src = _axes_basis(n, top - 1)
        tidx = {b: i for i, b in enumerate(tgt)}
        M = [[QZERO] * len(src) for _ in tgt]
        for col, (d, i) in enumerate(src):
            if d == 0:
                for j in range(n):
                    M[tidx[(1, j)]][col] += QONE
                M[tidx[(0, 0)]][col] -= c
            else:
                M[tidx[(d + 1, i)]][col] += QONE
                M[tidx[(d, i)]][col] -= c
        dims.append(len(tgt) - mat_rank(M))
    if len(set(dims)) != 1:
        raise InternalError("fiber dimension did not stabilize: %r" % (dims,))
    return dims[0]


CentralReport = namedtuple("CentralReport", ["h0", "h1", "character", "trivial"])


def central_complex(n):
    """Cohomology of the two-term complex over the central fiber, with its
    cyclic symmetry.

    The complex is k^{n+1} / k.(0,1,...,1) -> k^n with
    (a_0, ..., a_n) |-> (a_1 - a_2, ..., a_n - a_1), and the cyclic group
    rotates a_1..a_n (a_0 stays put) and the target coordinates the same way.
    Equivariance is asserted, both cohomologies are computed by exact rank,
    and the character of every group power on H^0 and H^1 is extracted by
    solving for the induced scalar.

    >>> central_complex(4).h0, central_complex(4).h1, central_complex(4).trivial
    (1, 1, True)
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    D = [[QZERO] * (n + 1) for _ in range(n)]
    for i in range(n):
        D[i][i + 1] += QONE
        D[i][(i + 1) % n + 1] -= QONE
    s = (QZERO,) + (QONE,) * n
    if any(mat_vec(D, s)):
        raise InternalError("the diagonal class is not in the kernel")
    # the rotations as index maps: (T x)_j = x_src[j] on the source, with a_0
    # fixed and a_j picking up a_{j-1} cyclically in 1..n, and (N y)_i =
    # y_tgt[i] on the target; D T = N D says D[i][j] = D[tgt[i]][src[j]]
    src = [0, n] + list(range(1, n))
    tgt = [(i - 1) % n for i in range(n)]
    if any(D[i][j] != D[tgt[i]][src[j]] for i in range(n) for j in range(n + 1)):
        raise InternalError("rotation does not commute with the differential")
    kernel = nullspace_basis(D)
    h0 = len(kernel) - 1
    rank = mat_rank(D)
    h1 = n - rank
    if h0 != 1 or h1 != 1:
        raise InternalError("unexpected cohomology ranks (%d, %d)" % (h0, h1))
    # a kernel vector independent of the collapsed diagonal class
    w = None
    for v in kernel:
        if mat_rank([list(s), list(v)]) == 2:
            w = v
            break
    if w is None:
        raise InternalError("kernel collapsed onto the diagonal class")
    # coker generator: any target vector off the image; e_0 works since the
    # column sums of D vanish, so the sum functional kills the image
    u = tuple(QONE if i == 0 else QZERO for i in range(n))
    A = [[w[i], s[i]] for i in range(n + 1)]
    A1 = [[u[i]] + [D[i][j] for j in range(n + 1)] for i in range(n)]
    # T^p w and N^p u for p = 1..n-1, each from the one before
    Tws, Nus = [w], [u]
    for _ in range(1, n):
        Tws.append(tuple(Tws[-1][k] for k in src))
        Nus.append(tuple(Nus[-1][k] for k in tgt))
    # H^0: solve T^p w = lam w + mu s; lam is forced since w, s independent
    sols = linear_solve(A, Tws[1:])
    if sols is None:
        raise InternalError("rotation image left the kernel")
    # H^1: solve N^p u = lam u + D x; lam is forced since u is off the image
    sols1 = linear_solve(A1, Nus[1:])
    if sols1 is None:
        raise InternalError("rotation image left the target")
    chars = [(QONE, QONE)] + [(x[0], y[0]) for x, y in zip(sols, sols1)]
    trivial = all(a == QONE and b == QONE for a, b in chars)
    return CentralReport(h0, h1, tuple(chars), trivial)


def generic_fiber_homology(n):
    """H0, H1 over Q of the homotopy colimit graph of the generic fiber.

    Vertices: n source points (one per axis) and n target copies of n-1
    points; one edge per (source point, map).  The map with index s sends the
    axis-j point to target-s point number (j - s) mod n, except that residues
    0 and 1 both land on point 1.  For a graph, H0 is the number of connected
    components c and H1 = E - V + c; union-find counts c.

    >>> generic_fiber_homology(2)
    (1, 1)
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    V = n + n * (n - 1)
    edges = []
    for s in range(n):
        for j in range(n):
            delta = (j - s) % n
            i = 1 if delta <= 1 else delta
            edges.append((j, n + s * (n - 1) + (i - 1)))
    parent = list(range(V))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = V
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return (components, len(edges) - V + components)
