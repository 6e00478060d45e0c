"""Hochschild invariants of [A^n / G] computed sector by sector.

Two independent routes to the same numbers:

  * Molien averaging: centralizer element h contributes e_p(A_h) u^p times
    the t-series 1/det(I - t A_h), A_h its action on V^g, placed at t^p for
    homology and with no t-power for cohomology.  Each table comes from one
    set of rows, the average of e_p(A_h) / det(I - t A_h) over the
    centralizer: elementary_symmetric runs once per element and
    det_series_factor once per distinct (e(A_h), character) key.
  * A brute-force oracle: explicit representation matrices on a monomial and
    exterior basis, then the rank of the averaging projector.  The matrices
    are integer: each sector's Sym^k images are built once, degree by degree,
    and its Lambda^p minors once per p; the projector, summed over a common
    denominator, is ranked exactly by the one elimination kernel of exact.

The oracle shares no series or characteristic-polynomial code with the Molien
path on purpose; agreement of the two is the correctness argument.

Homology table: row p holds HH_p, column d the weight (x_i and dx_i both
weight 1).  Cohomology table: row p + c_g per sector (p the polyvector
degree, c_g the normal codimension), column m the plain Sym degree; the
underlying geometric weight of a cell is m - p since each polyvector field
lowers weight by one.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .exact import (BiSeries, InternalError, QONE, QZERO, det_series_factor,
                    elementary_symmetric, integer_form, mat_inv, mat_rank,
                    transpose)
from .groups import conjugacy_classes
from .sectors import build_sector, monomials

ORACLE_GUARD = 100000

HOMOLOGY_CONVENTIONS = {
    "rows": "p = de Rham form degree; row p is HH_p of the sector sum",
    "columns": "weight d; x_i and dx_i both carry weight 1",
}

COHOMOLOGY_CONVENTIONS = {
    "rows": "cohomological degree p + c_g, p = polyvector degree, "
            "c_g = codimension of the sector's fixed subspace",
    "columns": "Sym degree m; the underlying weight of a cell is m - p",
}


class BasisTooLarge(RuntimeError):
    """The oracle basis at the requested bidegree is over the guard size."""


class HHReport:
    """All sectors of one quotient plus their total, with the table conventions."""

    __slots__ = ("sectors", "total", "mode", "conventions")

    def __init__(self, sectors, total, mode, conventions):
        self.sectors = sectors
        self.total = total
        self.mode = mode
        self.conventions = conventions

    def __repr__(self):
        return "HHReport(mode=%r, sectors=%d)" % (self.mode, len(self.sectors))


def _check_integral(series):
    for row in series.rows:
        for v in row:
            if v.denominator != 1 or v < 0:
                raise InternalError(
                    "averaged series has a non-integral or negative entry; "
                    "this is a bug in the Molien pipeline")
    return series


def _molien_average(sector, t_max, twisted):
    # rows p = 0..f of the centralizer average of chi_h e_p(A_h) / det(I - t A_h),
    # A_h the action on V^g and chi_h the det-of-normal character when twisted
    # (else 1); a term depends only on the key (e(A_h), chi_h), so each
    # distinct key is expanded once and weighted by its count
    Z = sector.class_ref.centralizer
    chars = sector.det_normal_char if twisted else [QONE] * len(Z)
    keys = Counter(zip(map(elementary_symmetric, sector.restricted_action), chars))
    rows = [[QZERO] * (t_max + 1) for _ in range(sector.fixed_dim + 1)]
    for (e, chi), count in keys.items():
        series = det_series_factor(e, t_max)
        w = chi * Fraction(count, len(Z))
        for row, ep in zip(rows, e):
            c = w * ep
            if c:
                for d, x in enumerate(series):
                    if x:
                        row[d] += c * x
    return rows


def sector_hh_series(sector, t_max):
    """Bigraded Hilbert series of the sector's contribution to HH_*.

    Averages det(I + u t D) / det(I - t D) over the centralizer, D the dual
    action on V^g: row p is the average of e_p(D) / det(I - t D) moved right
    by p.  The restricted action A stands in for D = A^-1: A has finite order
    and rational entries, so its eigenvalues are roots of unity closed under
    complex conjugation, which for roots of unity is inversion.
    """
    rows = _molien_average(sector, t_max, False)
    return _check_integral(BiSeries(sector.fixed_dim, t_max,
                                    [([QZERO] * p + row)[:t_max + 1]
                                     for p, row in enumerate(rows)]))


def sector_hhcoh_series(sector, t_max):
    """Sector contribution to HH^*, rows already shifted by c_g.

    Per centralizer element: determinant-of-normal character times
    det(I + u A) on the polyvector side times the symmetric series of the
    dual action, so row p + c_g is the twisted average of e_p(A) / det(I - t A),
    with A standing in for its inverse as in sector_hh_series.
    """
    rows = _molien_average(sector, t_max, True)
    return _check_integral(BiSeries(sector.n, t_max,
                                    [[QZERO] * (t_max + 1)] * sector.c_g + rows))


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


def _oracle_tables(sector):
    # the integer data of every centralizer element h, made once per sector
    # and kept on it: "dual" holds (D_h, B_h D_h) with B_h = A_h^-1 the dual
    # action, "sym"[k] the Sym^k images, and each mode its (E_h, Lambda minors
    # of C_h E_h), C_h = B_h for forms and A_h^T for polyvectors
    if sector._oracle is None:
        f = sector.fixed_dim
        actions = sector.restricted_action
        dual = [integer_form(mat_inv(A) if f else ()) for A in actions]
        sector._oracle = {
            "dual": dual,
            "sym": [[[{0: 1}] for _ in dual]],
            "forms": [(D, _ext_minors(B, f)) for D, B in dual],
            "polyvectors_twisted": [(E, _ext_minors(C, f)) for E, C in
                                    (integer_form(transpose(A)) for A in actions)],
        }
    return sector._oracle


def _sym_images(tables, f, k):
    # per h, the image of each degree-k monomial (monomials(f, k) order) as
    # {index of a degree-k monomial: integer coefficient} over D_h^k; the
    # image of x^alpha is that of x^(alpha - e_i) times row i of B_h D_h
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
        level = []
        for (_, B), images in zip(tables["dual"], levels[-1]):
            out = []
            for i, parent in steps:
                poly = {}
                for b, cb in images[parent].items():
                    for t, bt in zip(up[b], B[i]):
                        if bt:
                            poly[t] = poly.get(t, 0) + cb * bt
                out.append({t: c for t, c in poly.items() if c})
            level.append(out)
        levels.append(level)
    return levels[k]


def brute_force_invariants(sector, p, d, mode):
    """Invariant dimension at one bidegree, by averaging-projector rank.

    mode "forms": weight-d piece of Sym(V^g dual) (x) Lambda^p(V^g dual); the
    Sym degree is d - p since each dy carries weight 1.  mode
    "polyvectors_twisted": Sym degree d with Lambda^p of the tangent action
    and the determinant-of-normal twist, matching the cohomology table's
    column convention.

    Sums explicit representation matrices on the monomial/exterior basis and
    takes the exact rank.  Everything is integer: each sector's Sym images
    (built degree by degree) and Lambda minors are made once and kept on the
    Sector, each matrix is scaled to the common denominator of the cell, and
    the 1/|Z| of the projector is left out, since no scaling changes a rank.
    """
    if mode == "forms":
        deg = d - p
    elif mode == "polyvectors_twisted":
        deg = d
    else:
        raise ValueError("mode must be 'forms' or 'polyvectors_twisted'")
    f = sector.fixed_dim
    if p < 0 or p > f or deg < 0:
        return 0
    ns = comb(f, p)
    dim = len(monomials(f, deg)) * ns
    if dim == 0:
        return 0
    if dim > ORACLE_GUARD:
        raise BasisTooLarge("oracle basis has %d elements (guard %d)"
                            % (dim, ORACLE_GUARD))
    tables = _oracle_tables(sector)
    ext = tables[mode]
    chars = (sector.det_normal_char if mode == "polyvectors_twisted"
             else [QONE] * len(sector.class_ref.centralizer))
    # the matrix of h is (integer matrix) / (den(chi_h) D_h^deg E_h^p)
    dens = [chi.denominator * D ** deg * E ** p
            for chi, (D, _), (E, _) in zip(chars, tables["dual"], ext)]
    L = lcm(*dens)
    P = [[0] * dim for _ in range(dim)]
    for chi, den, images, (_, minors) in zip(chars, dens,
                                             _sym_images(tables, f, deg), ext):
        w = chi.numerator * (L // den)
        for a, image in enumerate(images):
            for i, targets in enumerate(minors[p]):
                col = a * ns + i
                for b, cb in image.items():
                    base = b * ns
                    wc = w * cb
                    for j, mj in targets:
                        P[base + j][col] += wc * mj
    return mat_rank(P)


def full_report(G, t_max, mode="homology"):
    """Every sector's series plus the total, as an HHReport."""
    if mode not in ("homology", "cohomology"):
        raise ValueError("mode must be 'homology' or 'cohomology'")
    series = sector_hh_series if mode == "homology" else sector_hhcoh_series
    pairs = []
    total = BiSeries.zero(G.n, t_max)
    for cls in conjugacy_classes(G):
        sec = build_sector(G, cls)
        s = series(sec, t_max)
        pairs.append((sec, s))
        total = total + s
    conv = HOMOLOGY_CONVENTIONS if mode == "homology" else COHOMOLOGY_CONVENTIONS
    return HHReport(tuple(pairs), total, mode, dict(conv))


def oracle_verdict(G, t_max):
    """Check every Molien cell of both tables against the brute-force oracle.

    Returns None on full agreement, else a dict locating the first mismatch.
    """
    for idx, cls in enumerate(conjugacy_classes(G)):
        sec = build_sector(G, cls)
        for mode, series, kind, shift in (
                ("homology", sector_hh_series, "forms", 0),
                ("cohomology", sector_hhcoh_series, "polyvectors_twisted", sec.c_g)):
            s = series(sec, t_max)
            for pdeg in range(sec.fixed_dim + 1):
                for d in range(t_max + 1):
                    want = brute_force_invariants(sec, pdeg, d, kind)
                    got = s.coeff(pdeg + shift, d)
                    if got != want:
                        return {"mode": mode, "sector": idx, "degree": pdeg + shift,
                                "weight": d, "molien": str(got), "oracle": str(want)}
    return None
