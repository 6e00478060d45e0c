"""Per-sector geometry of a linear action on affine space.

For each conjugacy class [g], given as element indices of the group: the
dimension psi(1) of the fixed subspace V^g and the Molien route's terms,
from the trace character of the closure alone (build_sector); for the
oracle, V^g = ker(g - I) in the kernel's free coordinates, the restricted
centralizer action on it ((d, N) pairs in lowest terms) and the determinant
character on the normal directions (ints +-1) (fixed_geometry); and two
bigraded Hilbert series that realize the derived fixed locus (Koszul side)
and its shifted-tangent model.

Weight conventions: coordinates x_i carry weight 1 and so do the 1-forms dx_i
(equivalently the Koszul exterior generators); that choice is what makes the
two series below agree bidegree by bidegree.
"""

from itertools import combinations
from math import comb

from .exact import (BiSeries, InternalError, elementary_symmetric, int_mat_mul,
                    integer_form, lowest_terms, mat_det, mat_identity, mat_rank,
                    mat_sub, nullspace_basis)


def monomials(nvars, degree):
    """Exponent tuples of total degree `degree`, in a fixed deterministic order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    if nvars == 1:
        return [(degree,)]
    out = []
    for a in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - a):
            out.append((a,) + rest)
    return out


class Sector:
    """One twisted sector as the Molien tables read it: the class, n,
    fixed_dim f = psi(1), c_g = n - f and the weighted terms of _trace_terms."""

    __slots__ = ("class_ref", "n", "fixed_dim", "c_g", "terms")

    def __init__(self, class_ref, n, fixed_dim, terms):
        self.class_ref = class_ref
        self.n = n
        self.fixed_dim = fixed_dim
        self.c_g = n - fixed_dim
        self.terms = terms

    def __repr__(self):
        return "Sector(f=%d, c=%d, class_size=%d)" % (
            self.fixed_dim, self.c_g, len(self.class_ref.members))


def build_sector(G, cls, classes):
    """The Sector of a conjugacy class of element indices, from _trace_terms
    alone: the trace character of the closure, with no elimination."""
    f, terms = _trace_terms(G, cls, classes)
    return Sector(cls, G.n, f, terms)


def fixed_geometry(G, cls, f):
    """The triple (fixed_basis, restricted_action, det_normal_char) of a
    class whose fixed dimension by the trace average is f.

    V^g is the nullspace of N - d I, (d, N) = G.elements[g] for the
    representative g, and its dimension must be f.  Each basis vector is 1
    at its own free column and 0 at every other one (nullspace_basis), so
    with P the free columns, each vector's last nonzero entry, and
    (delta, Phi) = integer_form of the fixed basis F (columns), the rows P of
    Phi are delta I.  The normal complement is spanned by the coordinate
    vectors e_c, c in comp, the coordinates off P; the determinant character
    lives on the quotient V/V^g, so the choice cannot matter.

    In the basis [F | e_c for c in comp], h = N / d = G.elements[h] acts by
    [[A_h, *], [0, Q_h]]: A_h = (h F)[P] is the pair (delta d, (N Phi)[P]) in
    lowest terms, delta d Q_h = delta N[comp][comp] - Phi[comp] N[P][comp],
    and the lower-left block vanishes exactly when
    Phi[comp] (N Phi)[P] = delta (N Phi)[comp].  The character
    det(delta d Q_h) / (delta d)^c must be +-1.  Both tuples are in the order
    of cls.centralizer; a failed guard raises InternalError.
    """
    d, N = G.elements[cls.representative]
    fixed = nullspace_basis([[x - d if i == j else x for j, x in enumerate(row)]
                             for i, row in enumerate(N)])
    if len(fixed) != f:
        raise InternalError("the trace average of <g> is %d, not the fixed dimension "
                            "%d; this is a bug, not bad input" % (f, len(fixed)))
    n, c = G.n, G.n - f
    P = [max(i for i, x in enumerate(v) if x) for v in fixed]
    comp = [j for j in range(n) if j not in P]
    delta, Phi = integer_form(tuple(tuple(v[i] for v in fixed) for i in range(n)))
    R = [Phi[i] for i in comp]

    def element(h):
        # (A_h, chi_h) of element h, both guards checked
        d, N = G.elements[h]
        NPhi = int_mat_mul(N, Phi)  # column k: d delta h times the k-th fixed vector
        X = tuple(NPhi[i] for i in P)
        if int_mat_mul(R, X) != tuple(tuple(delta * y for y in NPhi[i]) for i in comp):
            raise InternalError(
                "centralizer element does not preserve the fixed subspace; "
                "this is a bug, not bad input")
        # delta d Q_h is integral and Q_h has finite order, so det Q_h = +-1
        Q = [[delta * N[i][j] - sum(r * N[p][j] for r, p in zip(R[a], P))
              for j in comp] for a, i in enumerate(comp)]
        det, unit = mat_det(Q), (delta * d) ** c
        if det not in (unit, -unit):
            raise InternalError(
                "the determinant of a centralizer element on the normal "
                "directions is not +-1; this is a bug, not bad input")
        return lowest_terms(delta * d, X), 1 if det == unit else -1

    return (tuple(fixed),) + tuple(zip(*map(element, cls.centralizer)))


def _trace_terms(G, cls, classes):
    """The pair (f, terms) of the sector of cls, in integers from the trace
    character alone (Molien 1897): f = dim V^g and the terms (key, chi_h,
    weight), weights summing to |Z(g)|.  For x in Z(g), g of order m,
    psi(x) = (1/m) sum_k tr(g^k x) is the trace of x on V^g, one average per
    <g>-coset, and f = psi(1).  A term h (a G-class representative, weighted
    by its size, when g commutes with every generator; else a <g>-coset
    leader) has the power sums psi(h^j), j <= f, Newton's key c of
    det(I - t A_h) and chi_h = det_V(h) e_f, with det_V(h) = G.det_v[h].  The
    cosets of a G-class start with <h>, so a central sector reads h^j off
    them; a coset leader's are walked along its BFS word.  g is the identity
    on V^g, so a coset shares A_h, and chi_g = -1 splits it into halves of
    opposite characters.  Every division must be exact.
    """
    m, right, parents, g = cls.order, G.right, G.parents, cls.representative

    def word(x):  # the generator indices k_1, ..., k_r of x = s_k1 ... s_kr
        ks = []
        while x:
            x, k = parents[x]
            ks.append(k)
        return ks[::-1]

    def times(x, ks):  # x s_k1 ... s_kr
        for k in ks:
            x = right[k][x]
        return x

    central = len(cls.members) == 1
    if central and any(t[g] != times(t[0], word(g)) for t in right):
        raise InternalError("a central class does not commute with every "
                            "generator; this is a bug, not bad input")
    psi = {}
    for i in range(0, len(cls.cosets), m):
        run = cls.cosets[i:i + m]
        average, r = divmod(sum(G.traces[x] for x in run), m)
        if r:
            raise InternalError("a coset's trace average is not an integer; "
                                "this is a bug, not bad input")
        psi.update(dict.fromkeys(run, average))
    f, keys = psi[0], {}  # keys: one per distinct tuple of power sums

    def term(h, powers):  # powers: h, h^2, ..., h^f
        sums = tuple(map(psi.__getitem__, powers))
        key = keys[sums] = keys.get(sums) or elementary_symmetric(sums)
        return key, (-1) ** f * key[-1] * G.det_v[h]

    def walked(h):
        ks, powers = word(h), [0]
        for _ in range(f):
            powers.append(times(powers[-1], ks))
        return term(h, powers[1:])

    if central:
        return f, tuple(term(k.representative, [k.cosets[j % k.order]
                                                for j in range(1, f + 1)])
                        + (len(k.members),) for k in classes)
    signs = (1,) if G.det_v[g] == 1 else (1, -1)
    return f, tuple((key, s * chi, m // len(signs))
                    for key, chi in map(walked, cls.cosets[::m]) for s in signs)


def _form_count(m, p, d):
    # p-forms of weight d in m variables: monomials of degree d - p times
    # p-subsets of the m differentials
    k = d - p
    if k < 0:
        return 0
    return comb(m, p) * (comb(m - 1 + k, k) if m else int(k == 0))


def _koszul_boundary(L, p, d, n):
    # matrix of K_{p,d} -> K_{p-1,d}: multiply by the forms L rows, contract e_I
    src_mono = monomials(n, d - p)
    tgt_mono = monomials(n, d - p + 1)
    src_sub = list(combinations(range(n), p))
    tgt_sub = list(combinations(range(n), p - 1))
    tmono = {m: i for i, m in enumerate(tgt_mono)}
    tsub = {s: i for i, s in enumerate(tgt_sub)}
    rows = len(tgt_mono) * len(tgt_sub)
    cols = len(src_mono) * len(src_sub)
    M = [[0] * cols for _ in range(rows)]
    for a, alpha in enumerate(src_mono):
        for b, I in enumerate(src_sub):
            col = a * len(src_sub) + b
            for r, i in enumerate(I):
                sign = -1 if r % 2 else 1
                rest = I[:r] + I[r + 1:]
                for j in range(n):
                    cij = L[i][j]
                    if cij:
                        beta = list(alpha)
                        beta[j] += 1
                        row = tmono[tuple(beta)] * len(tgt_sub) + tsub[rest]
                        M[row][col] += sign * cij
    return M


def derived_fixed_hilbert(g, t_max):
    """Koszul homology of the n linear forms given by the rows of (g - I).

    Row p, column d is dim H_p in weight d, where the monomial x^a sits in
    weight |a| and each exterior generator adds 1.  For finite-order g this is
    the derived self-intersection along the g-twisted diagonal, weight by
    weight, with no Groebner machinery: one exact rank per bidegree.  A
    BiSeries with u_max = n, like the HKR tables.
    """
    n = len(g)
    L = mat_sub(g, mat_identity(n))
    ranks = {(p, d): mat_rank(_koszul_boundary(L, p, d, n))
             for p in range(1, n + 1) for d in range(p, t_max + 1)}
    return BiSeries(n, t_max, [[_form_count(n, p, d) - ranks.get((p, d), 0)
                                - ranks.get((p + 1, d), 0) for d in range(t_max + 1)]
                               for p in range(n + 1)])


def shifted_tangent_hilbert(sector, t_max):
    """Bigraded dimensions of Sym(V^g dual) tensor Lambda^p(V^g dual).

    dx shifts the weight by one, so row p starts at weight p; rows above the
    fixed dimension vanish.  A BiSeries padded to u_max = n, so it compares
    with derived_fixed_hilbert by ==.
    """
    f = sector.fixed_dim
    return BiSeries(sector.n, t_max, [[_form_count(f, p, d) for d in range(t_max + 1)]
                                      for p in range(sector.n + 1)])
