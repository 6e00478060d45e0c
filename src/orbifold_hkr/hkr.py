"""Hochschild invariants of [A^n / G] computed sector by sector.

Two independent routes to the same numbers:

  * Molien averaging: centralizer element h contributes e_p(A_h) u^p times
    the t-series 1/det(I - t A_h), A_h its action on V^g, placed at t^p for
    homology and with no t-power for cohomology.  Both tables read the
    sector's weighted terms, whose keys (the coefficients of det(I - t A_h))
    come from traces of the closure, never from A_h.  The weights, signed by
    the character for cohomology, are summed per key, each key that does not
    cancel is expanded once, and each integer cell is divided by |Z(g)| once.
  * A brute-force oracle: explicit representation matrices on a monomial and
    exterior basis, then the rank of the averaging projector.  It checks the
    report's tables on sectors of its own, one class at a time: an
    OracleSector holds V^g and the per-element data of sectors.fixed_geometry
    and is dropped once its cells are checked.  Each sector's centralizer
    acts in a reduced basis of its invariant lattice sum_h A_h Z^f (integer
    Hermite form, then LLL for the form sum_h A_h^T A_h), where every matrix
    and its inverse is integral.  Each distinct Sym^k image is built once
    per degree and shared, and the Lambda^p minors once per p.  The
    projector is built by columns, skipping every column that
    P rho(h) = chi_h P puts in the span of those built (one per orbit for a
    signed-permutation action), and its distinct columns are ranked by the
    one elimination kernel of exact.  The work of every cell is estimated
    from binomials and guarded before any V^g is built.

The oracle shares no series or characteristic-polynomial code with the Molien
path on purpose; agreement of the two is the correctness argument.

Homology table: row p holds HH_p, column d the weight (x_i and dx_i both
weight 1).  Cohomology table: row p + c_g per sector (p the polyvector
degree, c_g the normal codimension), column m the plain Sym degree; the
underlying geometric weight of a cell is m - p since each polyvector field
lowers weight by one.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import mul

from .exact import (BiSeries, CapExceeded, InternalError, det_series_factor,
                    hermite_form, int_mat_mul, inverse_pair, mat_rank, transpose)
from .groups import conjugacy_classes
from .sectors import build_sector, fixed_geometry, monomials

# oracle work, counted as projector entries plus images summed into them:
# ORACLE_GUARD bounds one cell at worst (dim columns of dim entries, 40 MB),
# ORACLE_WORK the sum over every cell of a job (S5 on A^5 at t_max 6: 2.2e7)
ORACLE_GUARD = 5 * 10 ** 6
ORACLE_WORK = 3 * 10 ** 7

HOMOLOGY_CONVENTIONS = {
    "rows": "p = de Rham form degree; row p is HH_p of the sector sum",
    "columns": "weight d; x_i and dx_i both carry weight 1",
}

COHOMOLOGY_CONVENTIONS = {
    "rows": "cohomological degree p + c_g, p = polyvector degree, "
            "c_g = codimension of the sector's fixed subspace",
    "columns": "Sym degree m; the underlying weight of a cell is m - p",
}


# every (sector, series) pair of one quotient plus their total
HHReport = namedtuple("HHReport", "sectors total")


class OracleSector:
    """The oracle's own record of one sector ([g], V^g): the class, n, f,
    c_g = n - f, the triple of sectors.fixed_geometry and, once made, the
    tables of _oracle_tables."""

    __slots__ = ("class_ref", "n", "fixed_dim", "c_g", "fixed_basis",
                 "restricted_action", "det_normal_char", "_oracle")

    def __init__(self, G, cls, f):
        self.class_ref = cls
        self.n = G.n
        self.fixed_dim = f
        self.c_g = G.n - f
        self.fixed_basis, self.restricted_action, self.det_normal_char = \
            fixed_geometry(G, cls, f)
        self._oracle = None


def _molien_average(sector, t_max, twisted):
    # rows p = 0..f of the centralizer average of chi_h e_p(A_h) / det(I - t A_h),
    # chi_h the det-of-normal character when twisted (else 1), e_p = (-1)^p c_p
    # for the key c: the signed weights are summed per key, each key that does
    # not cancel is expanded once, and each integer cell divided by |Z(g)|
    weights = Counter()
    for key, chi, weight in sector.terms:
        weights[key] += chi * weight if twisted else weight
    sums = [[0] * (t_max + 1) for _ in range(sector.fixed_dim + 1)]
    for key, weight in weights.items():
        if weight:
            series = det_series_factor(key, t_max)
            for p, (row, c) in enumerate(zip(sums, key)):
                if c:
                    c *= -weight if p % 2 else weight
                    row[:] = [s + c * x for s, x in zip(row, series)]
    order = len(sector.class_ref.centralizer)
    if any(s % order or s < 0 for row in sums for s in row):
        raise InternalError("averaged series has a non-integral or negative entry; "
                            "this is a bug in the Molien pipeline")
    return [[s // order for s in row] for row in sums]


def sector_hh_series(sector, t_max):
    """Bigraded Hilbert series of the sector's contribution to HH_*.

    Averages det(I + u t D) / det(I - t D) over the centralizer, D the dual
    action on V^g: row p is the average of e_p(D) / det(I - t D) moved right
    by p.  The restricted action A stands in for D = A^-1: A has finite order
    and rational entries, so its eigenvalues are roots of unity closed under
    complex conjugation, which for roots of unity is inversion.
    """
    rows = _molien_average(sector, t_max, False)
    return BiSeries(sector.fixed_dim, t_max,
                    [([0] * p + row)[:t_max + 1] for p, row in enumerate(rows)])


def sector_hhcoh_series(sector, t_max):
    """Sector contribution to HH^*, rows already shifted by c_g.

    Per centralizer element: determinant-of-normal character times
    det(I + u A) on the polyvector side times the symmetric series of the
    dual action, so row p + c_g is the twisted average of e_p(A) / det(I - t A),
    with A standing in for its inverse as in sector_hh_series.
    """
    rows = _molien_average(sector, t_max, True)
    return BiSeries(sector.n, t_max, [[0] * (t_max + 1)] * sector.c_g + rows)


def _ext_minors(C, f):
    # Lambda^p of the integer matrix C for p = 0..f: per p, per p-subset I in
    # combinations order, the nonzero (index of J, minor C[I, J]); a p-minor
    # is expanded along its first row into (p - 1)-minors
    minors = {((), ()): 1}
    out = [[[(0, 1)]]]
    for p in range(1, f + 1):
        subsets = list(combinations(range(f), p))
        minors = {(I, J): sum((-1) ** k * C[I[0]][J[k]] * minors[I[1:], J[:k] + J[k + 1:]]
                              for k in range(p))
                  for I in subsets for J in subsets}
        out.append([[(j, minors[I, J]) for j, J in enumerate(subsets) if minors[I, J]]
                    for I in subsets])
    return out


def _lll_reduce(basis, Q):
    """LLL (delta = 3/4, Lenstra-Lenstra-Lovasz 1982) of the rows of basis for
    the positive-definite integer form x Q y^T.

    Textbook form (Cohen, section 2.6): Gram-Schmidt in Fractions, row k
    size-reduced against every earlier row, then swapped down while the
    Lovasz condition fails.  The rows span the same lattice throughout.
    """
    b = [list(v) for v in basis]

    def form(x, y):
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, Q) if xi)

    def gram_schmidt():
        star, norms, mu = [], [], []
        for v in b:
            w, coeffs = [Fraction(x) for x in v], []
            for s, ns in zip(star, norms):
                m = form(v, s) / ns
                coeffs.append(m)
                w = [wi - m * si for wi, si in zip(w, s)]
            star.append(w)
            norms.append(form(w, w))
            mu.append(coeffs)
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu[k] = [m - q * mj for m, mj in zip(mu[k], mu[j])] + mu[k][j:]
                mu[k][j] -= q
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b


def _reduced_actions(sector):
    # the centralizer's action on V^g in a reduced basis of the invariant
    # lattice L = sum_h A_h Z^f: the Hermite basis of L (from the columns of
    # every A_h over their common denominator m), LLL-reduced for the
    # invariant form sum_h A_h^T A_h.  Every A_h maps L onto L, so in that
    # basis T (columns) each T^-1 A_h T is an integer matrix, and so is its
    # inverse; with A_h = N_h / d_h and T^-1 = V / e it is V N_h T / (e d_h)
    f = sector.fixed_dim
    m = lcm(*[d for d, _ in sector.restricted_action])
    columns = dict.fromkeys(tuple(x * (m // d) for x in col)
                            for d, N in sector.restricted_action for col in zip(*N))
    Q = [[0] * f for _ in range(f)]
    for d, N in sector.restricted_action:
        s = (m // d) ** 2
        Q = [[q + s * x for q, x in zip(qrow, row)]
             for qrow, row in zip(Q, int_mat_mul(transpose(N), N))]
    basis = hermite_form(columns, f)
    if len(basis) < f:
        raise InternalError("the oracle's lattice vectors do not span Q^f; "
                            "this is a bug, not bad input")
    T = transpose(_lll_reduce(basis, Q))
    e, V = inverse_pair(T)
    out = []
    for d, N in sector.restricted_action:
        M = int_mat_mul(int_mat_mul(V, N), T)
        q = e * d
        if any(x % q for row in M for x in row):
            raise InternalError("the oracle's lattice is not invariant; "
                                "this is a bug, not bad input")
        out.append(tuple(tuple(x // q for x in row) for row in M))
    return out


def _oracle_tables(sector):
    # the integer data of every centralizer element h, made once per sector
    # and kept on it, all in the reduced lattice basis of _reduced_actions:
    # "dual" holds B_h = A_h^-1, the dual action, "sym"[k] the degree-k level
    # of _sym_images (the distinct Sym^k images, and per h the index of each
    # monomial's image among them), and each mode the Lambda minors of C_h,
    # C_h = B_h for forms and A_h^T for polyvectors
    if sector._oracle is None:
        f = sector.fixed_dim
        actions = _reduced_actions(sector)
        dual = [inverse_pair(A)[1] for A in actions]
        sector._oracle = {
            "dual": dual,
            "sym": [((((0,), (1,)),), [(0,)] * len(dual))],  # every h: 1 -> 1
            "forms": [_ext_minors(B, f) for B in dual],
            "polyvectors_twisted": [_ext_minors(transpose(A), f) for A in actions],
        }
    return sector._oracle


def _sym_images(tables, f, k):
    # the degree-k level (images, refs): images holds each distinct Sym^k
    # image once, as the pair (indices of its degree-k monomials in
    # monomials(f, k) order, their integer coefficients), and refs[h][a] is
    # the index in images of the image of monomial a under B_h.  The image of
    # x^alpha is that of x^(alpha - e_i) times row i of B_h, so the parent's
    # index and that row fix it: each distinct pair is expanded once, and an
    # image equal to an earlier one is kept as that one's index
    levels = tables["sym"]
    while len(levels) <= k:
        lower = {m: i for i, m in enumerate(monomials(f, len(levels) - 1))}
        monos = monomials(f, len(levels))
        index = {m: i for i, m in enumerate(monos)}
        up = [[index[m[:i] + (m[i] + 1,) + m[i + 1:]] for i in range(f)] for m in lower]
        steps = []
        for alpha in monos:
            i = next(i for i, a in enumerate(alpha) if a)
            steps.append((i, lower[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]]))
        images_below, refs_below = levels[-1]
        table, products, refs = {}, {}, []
        for B, below in zip(tables["dual"], refs_below):
            out = []
            for i, parent in steps:
                key = below[parent], B[i]
                ref = products.get(key)
                if ref is None:
                    poly = {}
                    for b, cb in zip(*images_below[below[parent]]):
                        for t, bt in zip(up[b], B[i]):
                            if bt:
                                poly[t] = poly.get(t, 0) + cb * bt
                    image = tuple(zip(*sorted((t, c) for t, c in poly.items() if c)))
                    ref = products[key] = table.setdefault(image, len(table))
                out.append(ref)
            refs.append(tuple(out))
        levels.append((tuple(table), refs))
    return levels[k]


def _cell_shape(f, p, d, mode):
    # (Sym degree, basis size) of one oracle cell, the size from binomials
    # alone: monomials of the Sym degree in f variables times p-subsets of f
    if mode == "forms":
        deg = d - p
    elif mode == "polyvectors_twisted":
        deg = d
    else:
        raise ValueError("mode must be 'forms' or 'polyvectors_twisted'")
    if p < 0 or p > f or deg < 0:
        return deg, 0
    return deg, (comb(deg + f - 1, f - 1) if f else int(deg == 0)) * comb(f, p)


def _cell_work(z, dim):
    # the projector's entries plus the images summed into it, z = |Z(g)|
    return dim * dim + z * dim


def brute_force_invariants(sector, p, d, mode):
    """Invariant dimension at one bidegree, by averaging-projector rank.

    mode "forms": weight-d piece of Sym(V^g dual) (x) Lambda^p(V^g dual); the
    Sym degree is d - p since each dy carries weight 1.  mode
    "polyvectors_twisted": Sym degree d with Lambda^p of the tangent action
    and the determinant-of-normal twist, matching the cohomology table's
    column convention.

    Sums explicit representation matrices on the monomial/exterior basis and
    takes the exact rank.  The centralizer acts in a reduced basis of its
    invariant lattice (Hermite form, then LLL), where every matrix and its
    inverse is integral, so the Sym images (built degree by degree) and the
    Lambda minors, made once and kept on the OracleSector, are integer and the
    characters are +-1.  The 1/|Z| of the projector is left out, since no
    scaling changes a rank.  P rho(h) = chi_h P for h in Z(g), so when h maps
    a built basis vector to sum_k c_k e_k (c_k != 0) and the columns of all
    but one e_k lie in the span of the built ones, so does the last: it is
    never built.  A signed-permutation action builds one column per orbit.
    A cell whose worst case, dim^2 entries plus summed images, exceeds
    ORACLE_GUARD raises CapExceeded before anything is built.
    """
    deg, dim = _cell_shape(sector.fixed_dim, p, d, mode)
    if dim == 0:
        return 0
    work = _cell_work(len(sector.class_ref.centralizer), dim)
    if work > ORACLE_GUARD:
        raise CapExceeded("oracle cell has %d basis elements, work %d over the "
                          "guard %d" % (dim, work, ORACLE_GUARD))
    f = sector.fixed_dim
    ns = comb(f, p)
    tables = _oracle_tables(sector)
    chars = (sector.det_normal_char if mode == "polyvectors_twisted"
             else [1] * len(sector.class_ref.centralizer))
    images, refs = _sym_images(tables, f, deg)
    data = list(zip(chars, refs, [m[p] for m in tables[mode]]))
    covered = [False] * dim  # the column lies in the span of the built ones
    columns = []
    for col in range(dim):
        if covered[col]:
            continue
        covered[col] = True
        a, i = divmod(col, ns)
        column = [0] * dim
        for chi, row, minors in data:
            targets = minors[i]
            free = 0
            for b, cb in zip(*images[row[a]]):
                base = b * ns
                wc = chi * cb
                for j, mj in targets:
                    column[base + j] += wc * mj
                    if not covered[base + j]:
                        free, k = free + 1, base + j
            if free == 1:  # sum_k c_k P e_k = chi_h P e_col
                covered[k] = True
        columns.append(tuple(column))
    return mat_rank(list(dict.fromkeys(columns)))


def full_report(G, t_max, mode="homology"):
    """Every sector's series plus the total, as an HHReport."""
    if mode not in ("homology", "cohomology"):
        raise ValueError("mode must be 'homology' or 'cohomology'")
    series = sector_hh_series if mode == "homology" else sector_hhcoh_series
    pairs = []
    total = BiSeries.zero(G.n, t_max)
    classes = conjugacy_classes(G)
    for cls in classes:
        sec = build_sector(G, cls, classes)
        s = series(sec, t_max)
        pairs.append((sec, s))
        total = total + s
    return HHReport(tuple(pairs), total)


def _oracle_work(classes, tables, t_max):
    # the estimated work of every cell that oracle_verdict checks, from each
    # class's centralizer order and f, the u_max of its homology table
    return [_cell_work(len(cls.centralizer), _cell_shape(hom.u_max, pdeg, d, kind)[1])
            for cls, (hom, _) in zip(classes, tables)
            for kind in ("forms", "polyvectors_twisted")
            for pdeg in range(hom.u_max + 1) for d in range(t_max + 1)]


def oracle_verdict(G, tables):
    """Check every cell of a report's tables against the brute-force oracle.

    tables[i] is the (homology, cohomology) pair of BiSeries that
    full_report made for the i-th class of conjugacy_classes(G); t_max is
    theirs, and f is the u_max of the homology table.  Before any V^g is
    built, the work of every cell is estimated from binomials alone, as
    brute_force_invariants measures it; a cell over ORACLE_GUARD or a total
    over ORACLE_WORK raises CapExceeded.  Then each class gets an
    OracleSector of its own, which checks that dim V^g is f, and is dropped
    once its cells are checked.  Returns None on full agreement, else a dict
    locating the first mismatch.
    """
    classes = conjugacy_classes(G)
    if len(tables) != len(classes):
        raise InternalError("%d table pairs for %d classes; this is a bug, not bad input"
                            % (len(tables), len(classes)))
    t_max = tables[0][0].t_max
    work = _oracle_work(classes, tables, t_max)
    if max(work) > ORACLE_GUARD or sum(work) > ORACLE_WORK:
        raise CapExceeded("oracle work estimate %d (largest cell %d) is over the "
                          "guard %d (per cell %d)"
                          % (sum(work), max(work), ORACLE_WORK, ORACLE_GUARD))
    for idx, (cls, (hom, coh)) in enumerate(zip(classes, tables)):
        sec = OracleSector(G, cls, hom.u_max)
        for mode, s, kind, shift in (("homology", hom, "forms", 0),
                                     ("cohomology", coh, "polyvectors_twisted", sec.c_g)):
            for pdeg in range(sec.fixed_dim + 1):
                for d in range(t_max + 1):
                    want = brute_force_invariants(sec, pdeg, d, kind)
                    got = s.coeff(pdeg + shift, d)
                    if got != want:
                        return {"mode": mode, "sector": idx, "degree": pdeg + shift,
                                "weight": d, "molien": str(got), "oracle": str(want)}
        del sec  # its oracle tables go before the next class's V^g is built
    return None
