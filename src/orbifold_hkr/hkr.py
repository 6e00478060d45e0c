"""Hochschild invariants of [A^n / G] computed sector by sector.

Two independent routes to the same numbers:

  * Molien averaging: each centralizer element contributes a closed-form
    rational factor and the average is expanded as an exact bigraded series.
  * A brute-force oracle: explicit representation matrices on a monomial and
    exterior basis, then the rank of the averaging projector.

The oracle shares no series or characteristic-polynomial code with the Molien
path on purpose; agreement of the two is the correctness argument.

Homology table: row p holds HH_p, column d the weight (x_i and dx_i both
weight 1).  Cohomology table: row p + c_g per sector (p the polyvector
degree, c_g the normal codimension), column m the plain Sym degree; the
underlying geometric weight of a cell is m - p since each polyvector field
lowers weight by one.
"""

from fractions import Fraction
from itertools import combinations

from .exact import (BiSeries, QONE, QZERO, det_series_factor,
                    elementary_symmetric, mat_det, mat_inv, mat_rank,
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
                raise RuntimeError(
                    "averaged series has a non-integral or negative entry; "
                    "this is a bug in the Molien pipeline")
    return series


def _molien_average(sector, t_max, u_max, twisted, numerator):
    # average of numerator(A) / det(I - t A) over the centralizer, A the
    # action on V^g, times the det-of-normal character when twisted; a term
    # depends only on the characteristic polynomial of A and that character,
    # so it is summed once per distinct key, weighted by the key's count
    Z = sector.class_ref.centralizer
    groups = {}
    for h in Z:
        A = sector.restricted_action[h]
        char = sector.det_normal_char[h] if twisted else QONE
        groups.setdefault((elementary_symmetric(A), char), [A, 0])[1] += 1
    total = BiSeries.zero(u_max, t_max)
    for (_, char), (A, count) in groups.items():
        den = det_series_factor(A, t_max, sign="minus", marker="t",
                                reciprocal=True)
        total = total + (numerator(A) * den).scale(char * Fraction(count, len(Z)))
    return _check_integral(total)


def sector_hh_series(sector, t_max):
    """Bigraded Hilbert series of the sector's contribution to HH_*.

    Averages det(I + u t D) / det(I - t D) over the centralizer, D the dual
    action on V^g, one term per distinct characteristic polynomial.  The
    restricted action A stands in for D = A^-1: A has finite order and
    rational entries, so its eigenvalues are roots of unity closed under
    complex conjugation, which for roots of unity is inversion.
    """
    return _molien_average(sector, t_max, sector.fixed_dim, False, lambda A:
                           det_series_factor(A, t_max, sign="plus", marker="ut"))


def sector_hhcoh_series(sector, t_max):
    """Sector contribution to HH^*, rows already shifted by c_g.

    Per centralizer element: determinant-of-normal character times
    det(I + u A) on the polyvector side times the symmetric series of the
    dual action, then the whole block moves down by the codimension.  Terms
    are grouped, and A stands in for its inverse, as in sector_hh_series.
    """
    return _molien_average(sector, t_max, sector.n, True, lambda A:
                           det_series_factor(A, t_max, sign="plus", marker="u")
                           .shift_u(sector.c_g))


def _linear_substitute(poly, row):
    # multiply a polynomial dict {exponents: coeff} by sum_j row[j] y_j
    out = {}
    for expo, c in poly.items():
        for j, bj in enumerate(row):
            if bj:
                e2 = list(expo)
                e2[j] += 1
                e2 = tuple(e2)
                out[e2] = out.get(e2, QZERO) + c * bj
    return out


def _monomial_image(B, alpha):
    # image of y^alpha when y_i maps to sum_j B[i][j] y_j
    poly = {tuple([0] * len(alpha)): QONE}
    for i, a in enumerate(alpha):
        for _ in range(a):
            poly = _linear_substitute(poly, B[i])
    return poly


def _minor(C, rows, cols):
    return mat_det(tuple(tuple(C[i][j] for j in cols) for i in rows))


def brute_force_invariants(sector, p, d, mode):
    """Invariant dimension at one bidegree, by averaging-projector rank.

    mode "forms": weight-d piece of Sym(V^g dual) (x) Lambda^p(V^g dual); the
    Sym degree is d - p since each dy carries weight 1.  mode
    "polyvectors_twisted": Sym degree d with Lambda^p of the tangent action
    and the determinant-of-normal twist, matching the cohomology table's
    column convention.

    Builds explicit representation matrices on the monomial/exterior basis
    and takes the exact rank of (1/|Z|) sum of them.
    """
    if mode == "forms":
        deg = d - p
        twisted = False
    elif mode == "polyvectors_twisted":
        deg = d
        twisted = True
    else:
        raise ValueError("mode must be 'forms' or 'polyvectors_twisted'")
    f = sector.fixed_dim
    if p < 0 or p > f or deg < 0:
        return 0
    monos = monomials(f, deg)
    subsets = list(combinations(range(f), p))
    dim = len(monos) * len(subsets)
    if dim == 0:
        return 0
    if dim > ORACLE_GUARD:
        raise BasisTooLarge("oracle basis has %d elements (guard %d)"
                            % (dim, ORACLE_GUARD))
    midx = {m: i for i, m in enumerate(monos)}
    sidx = {s: i for i, s in enumerate(subsets)}
    ns = len(subsets)
    Z = sector.class_ref.centralizer
    P = [[QZERO] * dim for _ in range(dim)]
    for h in Z:
        A = sector.restricted_action[h]
        B = mat_inv(A) if f else ()
        C = B if mode == "forms" else transpose(A)
        scale = sector.det_normal_char[h] if twisted else QONE
        ext = {}
        for I in subsets:
            images = {}
            for J in subsets:
                m = _minor(C, I, J)
                if m:
                    images[J] = m
            ext[I] = images
        for a, alpha in enumerate(monos):
            poly = _monomial_image(B, alpha)
            for I in subsets:
                col = a * ns + sidx[I]
                for beta, cb in poly.items():
                    if not cb:
                        continue
                    b = midx[beta]
                    for J, mj in ext[I].items():
                        P[b * ns + sidx[J]][col] += scale * cb * mj
    inv = Fraction(1, len(Z))
    P = [[v * inv for v in row] for row in P]
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
        total = total + s.pad_u(G.n)
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
