import json
import sys
from fractions import Fraction
from collections import Counter
from itertools import combinations
from math import comb, gcd, prod
from types import FunctionType

import pytest

from orbifold_hkr import cli, exact, hkr, sectors
from orbifold_hkr.exact import (BiSeries, det_series_factor, mat_det, mat_inv,
                                mat_mul, rational_matrix, rref, transpose)
from orbifold_hkr.groups import conjugacy_classes, generate
from orbifold_hkr.hkr import (BasisTooLarge, brute_force_invariants, full_report,
                              oracle_verdict, sector_hh_series,
                              sector_hhcoh_series)
from orbifold_hkr.sectors import build_sector, monomials

from conftest import (B3, B3_BASIS, B4_CARTAN, D4_CARTAN, MINUS_I2, ROT4, S3_PERM,
                      SIGN_1D, cartan_generators, char_key, fraction_gauss_jordan, m)
from test_sectors import _conjugation_blocks

F = Fraction


def _sectors(G):
    # as full_report builds them: central classes take one term per G-class
    classes = conjugacy_classes(G)
    return [build_sector(G, cls, classes) for cls in classes]


def _trivial_group(n):
    return generate((tuple(tuple(F(1 if i == j else 0) for j in range(n))
                           for i in range(n)),), 10)


# homology sectors ---------------------------------------------------------------

def test_trivial_group_line():
    G = _trivial_group(1)
    s = sector_hh_series(_sectors(G)[0], 5)
    # (1 + u t) / (1 - t)
    assert s.row(0) == (F(1),) * 6
    assert s.row(1) == (F(0),) + (F(1),) * 5


def test_sign_action_untwisted_sector():
    G = generate(SIGN_1D, 100)
    e, tw = _sectors(G)
    s = sector_hh_series(e, 6)
    assert s.row(0) == (F(1), F(0), F(1), F(0), F(1), F(0), F(1))
    # x^odd dx has even total weight and is invariant: 1/2[(1+ut)/(1-t) +
    # (1-ut)/(1+t)] = (1 + u t^2)/(1 - t^2), so the p = 1 row lives in
    # even weights >= 2 (the brute-force oracle agrees cell by cell)
    assert s.row(1) == (F(0), F(0), F(1), F(0), F(1), F(0), F(1))
    st = sector_hh_series(tw, 6)
    assert st.row(0) == (F(1),) + (F(0),) * 6


def test_sign_action_twisted_sector_is_point():
    G = generate(SIGN_1D, 100)
    tw = _sectors(G)[1]
    s = sector_hh_series(tw, 3)
    assert s.u_max == 0
    assert s.coeff(0, 0) == 1


# cohomology sectors --------------------------------------------------------------

def test_trivial_group_cohomology_rows():
    G = _trivial_group(1)
    s = sector_hhcoh_series(_sectors(G)[0], 5)
    assert s.row(0) == (F(1),) * 6
    assert s.row(1) == (F(1),) * 6  # x^m d/dx, one per Sym degree m


def test_minus_identity_cohomology_degree_two():
    G = generate(MINUS_I2, 100)
    secs = _sectors(G)
    tw = [s for s in secs if s.fixed_dim == 0][0]
    s = sector_hhcoh_series(tw, 3)
    assert s.coeff(2, 0) == 1


def test_sign_twisted_cohomology_vanishes_at_weight_zero():
    G = generate(SIGN_1D, 100)
    tw = [s for s in _sectors(G) if s.fixed_dim == 0][0]
    s = sector_hhcoh_series(tw, 3)
    # the sign character averages to zero against the trivial Sym factor
    assert s.coeff(1, 0) == 0
    assert s.row(1) == (F(0),) * 4


def test_sign_untwisted_cohomology_polyvector_row():
    G = generate(SIGN_1D, 100)
    e = [s for s in _sectors(G) if s.fixed_dim == 1][0]
    s = sector_hhcoh_series(e, 3)
    # x^m d/dx survives averaging at odd m only
    assert s.row(1) == (F(0), F(1), F(0), F(1))


# brute-force oracle ---------------------------------------------------------------

def test_oracle_trivial_group():
    G = _trivial_group(1)
    sec = _sectors(G)[0]
    assert brute_force_invariants(sec, 0, 5, "forms") == 1


def test_oracle_sign_action_form_cell():
    G = generate(SIGN_1D, 100)
    e = _sectors(G)[0]
    # x dx picks up (-1)(-1) = +1, so the weight-2 one-form line is invariant
    assert brute_force_invariants(e, 1, 2, "forms") == 1
    assert brute_force_invariants(e, 1, 1, "forms") == 0


def test_oracle_s3_quadrics():
    G = generate(S3_PERM, 100000)
    e = _sectors(G)[0]
    assert brute_force_invariants(e, 0, 2, "forms") == 2


def test_oracle_guard():
    G = _trivial_group(8)
    sec = _sectors(G)[0]
    with pytest.raises(BasisTooLarge):
        brute_force_invariants(sec, 4, 16, "forms")
    assert sec._oracle is None  # the guard runs before any image is built


def test_oracle_cell_guard_boundary(monkeypatch):
    # identity sector of S3, forms p = 1 at weight 3: 6 quadrics times 3
    # one-forms, so the work is 18^2 entries plus 6 * 18 summed images
    G = generate(S3_PERM, 100000)
    work = 18 * 18 + 6 * 18
    monkeypatch.setattr(hkr, "ORACLE_GUARD", work)
    sec = _sectors(G)[0]
    assert sec.fixed_dim == 3
    assert brute_force_invariants(sec, 1, 3, "forms") == sector_hh_series(sec, 3).coeff(1, 3)
    monkeypatch.setattr(hkr, "ORACLE_GUARD", work - 1)
    sec = _sectors(G)[0]
    with pytest.raises(BasisTooLarge):
        brute_force_invariants(sec, 1, 3, "forms")
    assert sec._oracle is None


def _oracle_work_by_hand(G, t_max):
    # (sum, largest) over sectors, both modes, p and d of dim^2 + |Z| dim,
    # dim = (monomials of the Sym degree) * (p-subsets), from binomials
    cells = []
    for sec in _sectors(G):
        f, z = sec.fixed_dim, len(sec.class_ref.centralizer)
        for p in range(f + 1):
            for d in range(t_max + 1):
                for deg in (d - p, d):  # forms, polyvectors
                    dim = comb(deg + f - 1, f - 1) * comb(f, p) if deg >= 0 else 0
                    cells.append(dim * dim + z * dim)
    return sum(cells), max(cells)


def test_oracle_work_guard_boundary(monkeypatch):
    G = generate(S3_PERM, 100000)
    total, largest = _oracle_work_by_hand(G, 4)
    assert (total, largest) == (12780, 2295)
    monkeypatch.setattr(hkr, "ORACLE_WORK", total)
    monkeypatch.setattr(hkr, "ORACLE_GUARD", largest)
    assert oracle_verdict(G, 4) is None

    def no_images(sector):
        raise AssertionError("an oracle image was built")

    monkeypatch.setattr(hkr, "_oracle_tables", no_images)
    for work, guard in ((total - 1, largest), (total, largest - 1)):
        monkeypatch.setattr(hkr, "ORACLE_WORK", work)
        monkeypatch.setattr(hkr, "ORACLE_GUARD", guard)
        with pytest.raises(BasisTooLarge):
            oracle_verdict(G, 4)


def test_oracle_guards_admit_s5_through_t_max_6():
    G = generate(_adjacent_transpositions(5), 1000)
    for t_max, admitted in ((6, True), (7, False)):
        total, largest = _oracle_work_by_hand(G, t_max)
        work = hkr._oracle_work(_sectors(G), t_max)
        assert (sum(work), max(work)) == (total, largest)
        assert (total <= hkr.ORACLE_WORK and largest <= hkr.ORACLE_GUARD) == admitted


def test_oracle_rejects_unknown_mode():
    G = _trivial_group(1)
    with pytest.raises(ValueError):
        brute_force_invariants(_sectors(G)[0], 0, 0, "nope")


# full reports ----------------------------------------------------------------------

def test_full_report_trivial_line():
    G = _trivial_group(1)
    rep = full_report(G, 4, "homology")
    assert len(rep.sectors) == 1
    assert rep.total.row(0) == (F(1),) * 5
    assert rep.total.row(1) == (F(0),) + (F(1),) * 4


def test_full_report_sign_action_hh0():
    G = generate(SIGN_1D, 100)
    rep = full_report(G, 4, "homology")
    assert len(rep.sectors) == 2
    assert rep.total.coeff(0, 0) == 2


def test_full_report_cyclic4_sector_count():
    G = generate(ROT4, 100)
    rep = full_report(G, 4, "homology")
    assert len(rep.sectors) == 4
    dims = sorted(sec.fixed_dim for sec, _ in rep.sectors)
    assert dims == [0, 0, 0, 2]
    assert rep.total.coeff(0, 0) == 4


def test_full_report_rejects_unknown_mode():
    G = _trivial_group(1)
    with pytest.raises(ValueError):
        full_report(G, 3, "middle")


def test_report_entries_integral_nonnegative(zoo_groups):
    for G in zoo_groups.values():
        for mode in ("homology", "cohomology"):
            rep = full_report(G, 5, mode)
            for row in rep.total.rows:
                for v in row:
                    assert v.denominator == 1
                    assert v >= 0


def test_abelian_centralizers_are_whole_group(zoo_groups):
    G = zoo_groups["C4 rotation on A2"]
    for cls in conjugacy_classes(G):
        assert len(cls.centralizer) == G.order


def test_s3_invariant_ring_dimensions():
    G = generate(S3_PERM, 100000)
    e = _sectors(G)[0]
    s = sector_hh_series(e, 5)
    assert s.row(0) == (F(1), F(1), F(2), F(3), F(4), F(5))


def test_oracle_verdict_smoke():
    G = generate(SIGN_1D, 100)
    assert oracle_verdict(G, 4) is None


def _key_and_e(A):
    # the reference key of the Fraction matrix A and its e_k = (-1)^k c_k
    key = char_key(A)
    return key, [F(-c if k % 2 else c) for k, c in enumerate(key)]


def _per_element_hh(sec, t_max):
    # one term per centralizer element, with the dual action D = A^-1: the
    # product of det(I + u t D) = sum e_p(D) u^p t^p with 1 / det(I - t D)
    Z = sec.class_ref.centralizer
    assert len(sec.restricted_action) == len(Z)
    rows = [[F(0)] * (t_max + 1) for _ in range(sec.fixed_dim + 1)]
    for pair in sec.restricted_action:
        A = rational_matrix(*pair)
        key, e = _key_and_e(mat_inv(A) if sec.fixed_dim else ())
        series = det_series_factor(key, t_max)
        for p, ep in enumerate(e):
            for d in range(p, t_max + 1):
                rows[p][d] += ep * series[d - p] / len(Z)
    return BiSeries(sec.fixed_dim, t_max, rows)


def _per_element_hhcoh(sec, t_max):
    # chi times det(I + u A) = sum e_p(A) u^p times 1 / det(I - t D), D = A^-1,
    # moved down by c_g rows
    Z = sec.class_ref.centralizer
    assert len(sec.restricted_action) == len(sec.det_normal_char) == len(Z)
    rows = [[F(0)] * (t_max + 1) for _ in range(sec.n + 1)]
    for pair, chi in zip(sec.restricted_action, sec.det_normal_char):
        A = rational_matrix(*pair)
        series = det_series_factor(
            _key_and_e(mat_inv(A) if sec.fixed_dim else ())[0], t_max)
        for p, ep in enumerate(_key_and_e(A)[1]):
            for d in range(t_max + 1):
                rows[p + sec.c_g][d] += chi * ep * series[d] / len(Z)
    return BiSeries(sec.n, t_max, rows)


def test_grouped_molien_sums_match_per_element_sums(zoo_groups):
    for G in zoo_groups.values():
        for sec in _sectors(G):
            assert sector_hh_series(sec, 8) == _per_element_hh(sec, 8)
            assert sector_hhcoh_series(sec, 8) == _per_element_hhcoh(sec, 8)


def test_molien_key_is_computed_once_per_term(zoo_groups, monkeypatch):
    # build_sector makes one key per distinct tuple of power sums, so one per
    # distinct key of its terms; each table sums the weights of its terms per
    # key, signed by the character for cohomology, and expands
    # det_series_factor once per key whose net weight does not cancel, so no
    # call comes from anywhere else
    keyed, expanded = [], []
    real_key, real_series = exact.elementary_symmetric, exact.det_series_factor
    monkeypatch.setattr(sectors, "elementary_symmetric",
                        lambda sums: keyed.append(sums) or real_key(sums))
    monkeypatch.setattr(hkr, "det_series_factor",
                        lambda key, t_max: expanded.append(key) or real_series(key, t_max))
    cancelled = 0
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        for cls in classes:
            keyed.clear()
            sec = build_sector(G, cls, classes)
            keys = {key for key, _, _ in sec.terms}
            assert len(keyed) == len(set(keyed)) == len(keys), sec
            net = Counter()
            for key, chi, weight in sec.terms:
                net[key] += chi * weight
            signed = {key for key, weight in net.items() if weight}
            cancelled += len(keys - signed)
            for series, want in ((sector_hh_series, keys), (sector_hhcoh_series, signed)):
                expanded.clear()
                series(sec, 6)
                assert sorted(expanded) == sorted(want), (sec, series)
    assert cancelled


# the oracle against its dense Fraction form ----------------------------------------

def _linear_substitute(poly, row):
    # multiply a polynomial dict {exponents: coeff} by sum_j row[j] y_j
    out = {}
    for expo, c in poly.items():
        for j, bj in enumerate(row):
            if bj:
                e2 = list(expo)
                e2[j] += 1
                e2 = tuple(e2)
                out[e2] = out.get(e2, F(0)) + c * bj
    return out


def _monomial_image(B, alpha):
    # image of y^alpha when y_i maps to sum_j B[i][j] y_j
    poly = {tuple([0] * len(alpha)): F(1)}
    for i, a in enumerate(alpha):
        for _ in range(a):
            poly = _linear_substitute(poly, B[i])
    return poly


def _minor(C, rows, cols):
    return fraction_gauss_jordan([[C[i][j] for j in cols] for i in rows])[2]


def _reference_oracle(sector, p, d, mode):
    # rank of (1/|Z|) sum of the dense Fraction representation matrices,
    # every monomial image rebuilt from degree 0
    deg = d - p if mode == "forms" else d
    f = sector.fixed_dim
    if p < 0 or p > f or deg < 0:
        return 0
    monos = monomials(f, deg)
    subsets = list(combinations(range(f), p))
    dim = len(monos) * len(subsets)
    if dim == 0:
        return 0
    midx = {mono: i for i, mono in enumerate(monos)}
    sidx = {sub: i for i, sub in enumerate(subsets)}
    ns = len(subsets)
    Z = sector.class_ref.centralizer
    assert len(sector.restricted_action) == len(sector.det_normal_char) == len(Z)
    P = [[F(0)] * dim for _ in range(dim)]
    for pair, chi in zip(sector.restricted_action, sector.det_normal_char):
        A = rational_matrix(*pair)
        B = [row[f:] for row in fraction_gauss_jordan(
            [list(a) + [F(int(i == j)) for j in range(f)]
             for i, a in enumerate(A)])[0]]
        C = B if mode == "forms" else transpose(A)
        scale = chi if mode != "forms" else F(1)
        ext = {I: {J: _minor(C, I, J) for J in subsets} for I in subsets}
        for a, alpha in enumerate(monos):
            poly = _monomial_image(B, alpha)
            for I in subsets:
                col = a * ns + sidx[I]
                for beta, cb in poly.items():
                    for J, mj in ext[I].items():
                        P[midx[beta] * ns + sidx[J]][col] += scale * cb * mj
    P = [[v / len(Z) for v in row] for row in P]
    return len(fraction_gauss_jordan(P)[1])


def _assert_oracle_matches_reference(G, t_max):
    for sec in _sectors(G):
        for mode in ("forms", "polyvectors_twisted"):
            for p in range(sec.fixed_dim + 1):
                for d in range(t_max + 1):
                    assert (brute_force_invariants(sec, p, d, mode)
                            == _reference_oracle(sec, p, d, mode)), (sec, mode, p, d)


def test_oracle_matches_fraction_reference_on_zoo(zoo_groups):
    for G in zoo_groups.values():
        _assert_oracle_matches_reference(G, 5)


def test_oracle_matches_fraction_reference_on_b3_conjugate():
    # non-integer entries and sectors where the normal character is -1
    G = generate(tuple(mat_mul(mat_mul(B3_BASIS, g), mat_inv(B3_BASIS))
                       for g in B3), 1000)
    secs = _sectors(G)
    assert any(F(-1) in s.det_normal_char for s in secs)
    # some element has a non-integer entry: its common denominator d is > 1
    assert any(d > 1 for d, _ in G.elements)
    _assert_oracle_matches_reference(G, 4)


def _adjacent_transpositions(n):
    gens = []
    for k in range(n - 1):
        perm = list(range(n))
        perm[k], perm[k + 1] = k + 1, k
        gens.append(m([[int(j == perm[i]) for j in range(n)] for i in range(n)]))
    return tuple(gens)


# S4 on A^4 written in a basis with denominators 2, 4 and 5 (det -8)
DET8 = m([[2, 0, 0, 2], [-2, 1, -1, -2], [-1, -2, 0, 1], [-1, 1, 2, -2]])


@pytest.mark.parametrize("gens, P", [(B3, B3_BASIS), (_adjacent_transpositions(4), DET8)],
                         ids=["B3", "S4"])
def test_molien_keys_and_sector_pairs_do_not_depend_on_the_basis(gens, P):
    # conjugate elements have one characteristic polynomial, so the multiset
    # of keys over the group does not change with the basis, and so do the
    # terms of every sector: the closure visits the elements in the same
    # order in any basis
    plain = generate(gens, 1000)
    conj = generate(tuple(mat_mul(mat_mul(P, g), mat_inv(P)) for g in gens), 1000)
    keys = Counter(char_key(rational_matrix(*e)) for e in plain.elements)
    assert any(d > 1 for d, _ in conj.elements)
    assert Counter(char_key(rational_matrix(*e)) for e in conj.elements) == keys
    assert [sec.terms for sec in _sectors(conj)] == [sec.terms for sec in _sectors(plain)]
    # finite order makes the characteristic polynomial integral
    assert all(type(x) is int for sec in _sectors(conj) for key, _, _ in sec.terms
               for x in key)
    # every restricted action is a (d, N) pair in lowest terms and every
    # character is the int 1 or -1
    for G in (plain, conj):
        for sec in _sectors(G):
            for d, N in sec.restricted_action:
                assert d > 0 and gcd(d, *[x for row in N for x in row]) == 1
            assert set(sec.det_normal_char) <= {1, -1}
            assert all(type(x) is int for x in sec.det_normal_char)


def test_oracle_in_a_basis_with_denominators_matches_the_permutation_basis():
    S4 = _adjacent_transpositions(4)
    plain = _sectors(generate(S4, 1000))
    conj = _sectors(generate(tuple(mat_mul(mat_mul(DET8, g), mat_inv(DET8))
                                   for g in S4), 1000))
    assert {x.denominator for s in conj for A in s.restricted_action
            for row in rational_matrix(*A) for x in row} == {1, 2, 4, 5}
    for a, b in zip(plain, conj):
        assert (len(a.class_ref.members), a.fixed_dim) == (len(b.class_ref.members),
                                                           b.fixed_dim)
        for mode in ("forms", "polyvectors_twisted"):
            for p in range(a.fixed_dim + 1):
                for d in range(4):
                    assert (brute_force_invariants(b, p, d, mode)
                            == brute_force_invariants(a, p, d, mode)), (b, mode, p, d)
        # the inverses of the reduced actions are the reduced actions, and the
        # Lambda^1 minors of the polyvector mode are the entries of their
        # transposes: every one is an integer in {-1, 0, 1}
        entries = ([x for B in b._oracle["dual"] for row in B for x in row]
                   + [x for minors in b._oracle["polyvectors_twisted"]
                      for row in minors[1] for _, x in row])
        assert {type(x) for x in entries} == {int}
        assert set(entries) <= {-1, 0, 1}


# central sectors by class ------------------------------------------------------

def _b4():
    # Coxeter generators of B4 on A^4: three adjacent transpositions and the
    # sign change of the last coordinate
    signs = m([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    return _adjacent_transpositions(4) + (signs,)


def _weighted_and_per_element(sec):
    # the (key, character) multiset of the sector's weighted terms, and the
    # one over every centralizer element through the per-element tuples,
    # each key a reference characteristic polynomial of A_h in Fractions
    weighted = Counter()
    for key, chi, weight in sec.terms:
        weighted[key, chi] += weight
    per_element = Counter(zip((char_key(rational_matrix(*A)) for A in sec.restricted_action),
                              sec.det_normal_char))
    return weighted, per_element


def _conjugate_group(gens, P):
    return generate(tuple(mat_mul(mat_mul(P, g), mat_inv(P)) for g in gens), 1000)


def test_class_terms_of_central_sectors_match_every_element(zoo_groups):
    groups = list(zoo_groups.values()) + [generate(_b4(), 1000)]
    for gens, P in ((B3, B3_BASIS), (_adjacent_transpositions(4), DET8)):
        groups += [generate(gens, 1000), _conjugate_group(gens, P)]
    central = 0
    for G in groups:
        classes = conjugacy_classes(G)
        for sec in _sectors(G):
            cls = sec.class_ref
            if len(cls.members) > 1:
                # one or two terms per <g>-coset, weights summing to |Z(g)|
                assert {w for _, _, w in sec.terms} <= {cls.order, cls.order // 2}
                assert sum(w for _, _, w in sec.terms) == len(cls.centralizer)
                continue
            central += 1
            assert len(sec.terms) == len(classes)
            assert [w for _, _, w in sec.terms] == [len(c.members) for c in classes]
            weighted, per_element = _weighted_and_per_element(sec)
            assert weighted == per_element, sec
            assert sum(weighted.values()) == G.order
    # every group has the identity sector, and -1 or an abelian group adds more
    assert central > len(groups)


@pytest.mark.parametrize("gens, P", [(B3, B3_BASIS), (_adjacent_transpositions(4), DET8)],
                         ids=["B3", "S4"])
def test_class_terms_of_central_sectors_do_not_depend_on_the_basis(gens, P):
    # conjugate groups enumerate their elements in the same order, so the
    # central sectors line up and their weighted multisets must be equal
    def central_terms(G):
        return [_weighted_and_per_element(sec)[0] for sec in _sectors(G)
                if len(sec.class_ref.members) == 1]

    assert central_terms(_conjugate_group(gens, P)) == central_terms(generate(gens, 1000))


def test_b4_totals_do_not_change_when_the_generators_are_reversed():
    # the closure order, the classes and so the class representatives that
    # stand for the central sectors all change; the totals must not
    gens = _b4()
    plain, reverse = generate(gens, 1000), generate(gens[::-1], 1000)
    assert plain.elements != reverse.elements
    for mode in ("homology", "cohomology"):
        assert full_report(reverse, 6, mode).total == full_report(plain, 6, mode).total


def test_element_data_is_computed_once_per_sector(zoo_groups, monkeypatch):
    # the terms come from traces, so building a sector computes no element
    # data; the first read of the per-element tuples computes each
    # centralizer element's once, for both tuples
    calls = []
    real = sectors.lowest_terms
    monkeypatch.setattr(sectors, "lowest_terms", lambda *a: calls.append(a) or real(*a))
    for G in list(zoo_groups.values()) + [generate(_b4(), 1000)]:
        classes = conjugacy_classes(G)
        for cls in classes:
            calls.clear()
            sec = build_sector(G, cls, classes)
            assert calls == []
            assert len(sec.restricted_action) == len(sec.det_normal_char) \
                == len(cls.centralizer)
            assert len(calls) == len(cls.centralizer)


def test_b4_job_keys_and_elements_within_its_pins(monkeypatch):
    # the whole B4 job at t_max 10, both tables: 1200 keys and 1208 element
    # computations when every centralizer element took its own; the keys now
    # come from traces, one per distinct tuple of power sums in each sector,
    # and no element routine runs without --oracle
    counts = Counter()
    real_key, real_pair = sectors.elementary_symmetric, sectors.lowest_terms

    def key(sums):
        counts["key"] += 1
        return real_key(sums)

    def element(*a):
        counts["element"] += 1
        return real_pair(*a)

    monkeypatch.setattr(sectors, "elementary_symmetric", key)
    monkeypatch.setattr(sectors, "lowest_terms", element)
    doc = {"command": "quotient", "t_max": 10,
           "generators": [[[str(x) for x in row] for row in g] for g in _b4()]}
    cli.run(cli.parse_jobspec(json.dumps(doc)))
    assert 0 < counts["key"] <= 400
    assert counts["element"] == 0


def test_every_sector_keeps_its_element_routine_until_the_first_read():
    # V^g and the per-element tuples have one source, the routine with the
    # element routine inside, which every sector keeps until any of them is
    # first read and replaces by the tuple (fixed_basis, actions, chars)
    for G in (generate(_b4(), 1000), _conjugate_group(B3, B3_BASIS)):
        secs = _sectors(G)
        assert {len(sec.class_ref.members) > 1 for sec in secs} == {False, True}
        for sec in secs:
            assert callable(sec._geometry)
            action = sec.restricted_action
            assert isinstance(sec._geometry, tuple)
            assert sec.restricted_action is action
            assert sec._geometry == (sec.fixed_basis, action, sec.det_normal_char)
            assert len(sec.det_normal_char) == len(action) == len(sec.class_ref.centralizer)


def _coset_groups(zoo_groups):
    return list(zoo_groups.values()) + [generate(_b4(), 1000),
                                        _conjugate_group(B3, B3_BASIS),
                                        _conjugate_group(_adjacent_transpositions(4), DET8)]


def _code_names(fn):
    # every name fn's code reads, with its nested code and, in turn, every
    # function of its own module that it names
    module = sys.modules[fn.__module__]
    seen, names, todo = set(), set(), [fn.__code__]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_names"))
        todo.extend(v.__code__ for n, v in vars(module).items()
                    if n in code.co_names and isinstance(v, FunctionType)
                    and v.__module__ == module.__name__)
    return names


def test_cosets_walk_the_centralizer_by_left_multiplication(zoo_groups):
    # checked by Fraction products, with no left table: every class lists
    # its centralizer as runs h, g h, ..., g^(order-1) h, each from its least
    # index, the first one <g> from the identity; a central class walks all
    # of G
    central = 0
    for G in _coset_groups(zoo_groups):
        mats = [rational_matrix(*pair) for pair in G.elements]
        index = {M: i for i, M in enumerate(mats)}
        for cls in conjugacy_classes(G):
            central += len(cls.members) == 1
            g, k = mats[cls.representative], cls.order
            runs = [cls.cosets[i:i + k] for i in range(0, len(cls.cosets), k)]
            assert sorted(cls.cosets) == list(cls.centralizer)
            assert runs[0][:2] == (0, cls.representative)[:k]
            for run in runs:
                assert len(run) == k and run[0] == min(run)
                assert [index[mat_mul(g, mats[h])] for h in run] == list(run[1:] + run[:1])
    assert central > len(_coset_groups(zoo_groups))
    # the sectors read the cosets and build no left table of their own
    names = _code_names(sectors.build_sector)
    assert "cosets" in names and "left" not in names


def test_molien_route_reads_no_element_data():
    # the Molien tables come from traces and the closure tree alone: neither
    # build_sector's term code nor _molien_average names the element
    # routine, the per-element tuples or the matrix kernels behind them
    banned = {"_element", "element", "int_mat_mul", "mat_det", "nullspace_basis",
              "restricted_action", "det_normal_char", "lowest_terms", "fixed_basis",
              "_geometry", "geometry"}
    terms, average = _code_names(sectors._trace_terms), _code_names(hkr._molien_average)
    assert "_trace_terms" in _code_names(sectors.build_sector)
    assert "cosets" in terms and "elementary_symmetric" in terms
    assert "terms" in average and "det_series_factor" in average
    assert not terms & banned and not average & banned


def test_report_path_makes_no_elimination(zoo_groups, monkeypatch):
    # both tables of every sector come from the closure: with the one
    # elimination kernel made to raise, full_report gives the same tables;
    # the oracle's V^g then has the trace average's dimension, which is
    # that of the nullspace of g - I
    groups = _coset_groups(zoo_groups) + [generate(cartan_generators(B4_CARTAN), 1000)]

    def tables(G):
        return [[s for _, s in rep.sectors] + [rep.total]
                for rep in (full_report(G, 6, "homology"), full_report(G, 6, "cohomology"))]

    want = [tables(G) for G in groups]

    def echelon(A):
        raise AssertionError("the report path called the elimination kernel")

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_echelon", echelon)
        assert [tables(G) for G in groups] == want
    for G in groups:
        for sec in _sectors(G):
            g = rational_matrix(*G.elements[sec.class_ref.representative])
            kernel = exact.nullspace_basis(exact.mat_sub(g, exact.mat_identity(G.n)))
            assert sec.fixed_dim == len(sec.fixed_basis) == len(kernel), sec


def test_newton_keys_match_a_fraction_characteristic_polynomial(zoo_groups):
    # every sector's weighted terms are the (characteristic polynomial of
    # A_h, chi_h) multiset of its centralizer, each polynomial made in
    # Fractions from the oracle's per-element tuples, in permutation,
    # rational and root bases
    groups = _coset_groups(zoo_groups) + [generate(cartan_generators(B4_CARTAN), 1000)]
    for G in groups:
        for sec in _sectors(G):
            weighted, per_element = _weighted_and_per_element(sec)
            assert weighted == per_element, sec
            assert {len(key) for key, _, _ in sec.terms} == {sec.fixed_dim + 1}


def test_coset_terms_match_every_element_by_conjugation(zoo_groups):
    # every sector's weighted (key, character) multiset must be the one of
    # its per-element tuples, and those must be the blocks of B^-1 h B for
    # every h; the sectors with chi_g = -1 split each coset in two halves
    groups = _coset_groups(zoo_groups)
    non_central = odd = 0
    for G in groups:
        for sec in _sectors(G):
            cls = sec.class_ref
            pivots = rref(sec.fixed_basis)[1] if sec.fixed_basis else []
            default = [j for j in range(G.n) if j not in pivots]
            assert (sec.restricted_action, sec.det_normal_char) == \
                _conjugation_blocks(G, cls, default), sec
            weighted, per_element = _weighted_and_per_element(sec)
            assert weighted == per_element, sec
            if len(cls.members) > 1:
                non_central += 1
                odd += sec.det_normal_char[cls.centralizer.index(cls.representative)] == -1
    assert non_central > len(groups)
    assert odd


# the projector by columns ----------------------------------------------------------

def _cell_elements(sec, p, d, mode):
    # one oracle cell from the oracle's own tables: its dimension, ns = the
    # number of p-subsets and, per centralizer element h, (chi_h, the shared
    # Sym image of each monomial, the Lambda^p minors)
    deg, dim = hkr._cell_shape(sec, p, d, mode)
    tables = hkr._oracle_tables(sec)
    chars = (sec.det_normal_char if mode == "polyvectors_twisted"
             else [1] * len(sec.class_ref.centralizer))
    images, refs = hkr._sym_images(tables, sec.fixed_dim, deg)
    return dim, comb(sec.fixed_dim, p), list(zip(
        chars, [[images[r] for r in row] for row in refs], [m[p] for m in tables[mode]]))


def _rho(dim, ns, images, minors):
    # the dense matrix of one element on the cell: column a * ns + i is the
    # image of basis vector (a, i), monomial a times p-subset i
    R = [[0] * dim for _ in range(dim)]
    for a, image in enumerate(images):
        for i, targets in enumerate(minors):
            for b, cb in zip(*image):
                for j, mj in targets:
                    R[b * ns + j][a * ns + i] += cb * mj
    return R


def _dense_projector(dim, ns, elements):
    # P = sum_h chi_h rho(h) by bilinearity: per monomial a, the elements are
    # grouped by the image v of a, and column (a, i) gets v (x) (the sum of
    # chi_h Lambda^p(h) e_i over each group), far fewer terms than the sum of
    # the dense rho(h) when many elements share an image
    P = [[0] * dim for _ in range(dim)]
    flat = [[(i * ns + j, chi * mj) for i, targets in enumerate(minors) for j, mj in targets]
            for chi, _, minors in elements]
    for a in range(dim // ns):
        groups = {}
        for (_, images, _), pairs in zip(elements, flat):
            acc = groups.get(images[a])
            if acc is None:
                acc = groups[images[a]] = [0] * (ns * ns)
            for k, x in pairs:
                acc[k] += x
        for image, acc in groups.items():
            for k, x in enumerate(acc):
                if x:
                    i, j = divmod(k, ns)
                    for b, cb in zip(*image):
                        P[b * ns + j][a * ns + i] += cb * x
    return P


def _oracle_cells(sec, t_max):
    return [(p, d, mode) for mode in ("forms", "polyvectors_twisted")
            for p in range(sec.fixed_dim + 1) for d in range(t_max + 1)
            if hkr._cell_shape(sec, p, d, mode)[1]]


@pytest.mark.parametrize("gens, P", [(B3, B3_BASIS), (_adjacent_transpositions(4), DET8)],
                         ids=["B3", "S4"])
def test_projector_times_rho_is_the_character_times_the_projector(gens, P):
    # the identity behind every column that brute_force_invariants skips,
    # and the grouped dense P against the literal sum of the rho(h)
    for sec in _sectors(_conjugate_group(gens, P)):
        for p, d, mode in _oracle_cells(sec, 3):
            dim, ns, elements = _cell_elements(sec, p, d, mode)
            P_cell = _dense_projector(dim, ns, elements)
            columns = list(zip(*P_cell))
            literal = [[0] * dim for _ in range(dim)]
            for chi, images, minors in elements:
                rho = _rho(dim, ns, images, minors)
                literal = [[x + chi * y for x, y in zip(row, R)] for row, R in zip(literal, rho)]
                # column c of P rho(h) is the sum of rho[k][c] times column k of P
                for c, rho_c in enumerate(zip(*rho)):
                    want = [0] * dim
                    for k, v in enumerate(rho_c):
                        if v:
                            want = [x + v * y for x, y in zip(want, columns[k])]
                    assert want == [chi * y for y in columns[c]], (sec, p, d, mode)
            assert literal == P_cell


def test_oracle_by_columns_matches_the_dense_projector_in_root_bases():
    # in the root bases of D4 and B4 some reduced actions are no signed
    # permutations, so the oracle builds some of their columns and skips
    # others; the dense P is ranked on its distinct rows
    for A in (D4_CARTAN, B4_CARTAN):
        secs = _sectors(generate(cartan_generators(A), 1000))
        for sec in secs:
            for p, d, mode in _oracle_cells(sec, 4):
                P = _dense_projector(*_cell_elements(sec, p, d, mode))
                want = exact.mat_rank(list(dict.fromkeys(map(tuple, P))))
                assert brute_force_invariants(sec, p, d, mode) == want, (sec, p, d, mode)
        assert any(sum(map(bool, row)) > 1
                   for sec in secs for B in sec._oracle["dual"] for row in B)



# the shared Sym images --------------------------------------------------------------

def _per_element_images(B, f, t_max):
    # per degree, the image of each monomial under y_i -> sum_j B[i][j] y_j as
    # a dict {index of a monomial: coefficient}, each element expanded on its
    # own: y^alpha is y^(alpha - e_i) times row i for the last i in alpha
    levels, polys = [], {(0,) * f: {(0,) * f: 1}}
    for k in range(t_max + 1):
        index = {beta: b for b, beta in enumerate(monomials(f, k))}
        for alpha in monomials(f, k) if k else ():
            i = max(j for j, a in enumerate(alpha) if a)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            polys[alpha] = _linear_substitute(polys[lower], B[i])
        levels.append([{index[beta]: c for beta, c in polys[alpha].items() if c}
                       for alpha in monomials(f, k)])
    return levels


def test_sym_images_are_shared_and_match_each_elements_expansion(zoo_groups):
    # every element's images, read through the shared table, are its own
    # expansion from tables["dual"], and images equal in value are one entry
    # of their degree's table; a permutation action maps monomials to
    # monomials, so S4's identity sector keeps 210 images through degree 6
    # (the monomials of degree <= 6 in 4 variables), not 24 times as many
    cases = [(G, 3) for G in zoo_groups.values()]
    cases += [(_conjugate_group(B3, B3_BASIS), 4),
              (_conjugate_group(_adjacent_transpositions(4), DET8), 4),
              (generate(cartan_generators(B4_CARTAN), 1000), 4),
              (generate(_adjacent_transpositions(4), 1000), 6)]
    for G, t_max in cases:
        for sec in _sectors(G):
            f, tables = sec.fixed_dim, hkr._oracle_tables(sec)
            expanded = [_per_element_images(B, f, t_max) for B in tables["dual"]]
            for k in range(t_max + 1):
                images, refs = hkr._sym_images(tables, f, k)
                assert len(refs) == len(tables["dual"])
                shared = {}
                for row, levels in zip(refs, expanded):
                    assert [dict(zip(*images[r])) for r in row] == levels[k], (sec, k)
                    for r, image in zip(row, levels[k]):
                        shared.setdefault(frozenset(image.items()), set()).add(r)
                assert all(len(rs) == 1 for rs in shared.values()), (sec, k)
                assert len(shared) == len(images), (sec, k)
    identity = _sectors(generate(_adjacent_transpositions(4), 1000))[0]
    tables = hkr._oracle_tables(identity)
    assert sum(len(hkr._sym_images(tables, 4, k)[0]) for k in range(7)) == 210

# the invariant lattice basis --------------------------------------------------------

def test_hermite_basis_spans_exactly_the_lattice_of_its_generators():
    gens = [(4, 6, 2), (-2, 3, 5), (6, 0, 4), (0, 9, -3), (2, 2, 2), (0, 0, -7)]
    basis = hkr._hermite_basis(gens, 3)
    for c, row in enumerate(basis):
        assert not any(row[:c]) and row[c] > 0
        assert all(0 <= basis[r][c] < row[c] for r in range(c))
    # each generator is an integral combination of the rows: back-substitute
    for v in gens:
        rest = list(v)
        for c, row in enumerate(basis):
            q, r = divmod(rest[c], row[c])
            assert r == 0
            rest = [x - q * y for x, y in zip(rest, row)]
        assert not any(rest)
    # and the rows lie in the lattice of the generators: the index of the
    # lattice they span is the gcd of the generators' 3 x 3 minors
    minors = [int(mat_det(c)) for c in combinations(gens, 3)]
    assert prod(row[c] for c, row in enumerate(basis)) == gcd(*minors)


def _gram_schmidt(b, Q):
    def form(x, y):
        return sum(x[i] * Q[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))
    star, mu = [], []
    for v in b:
        coeffs = [form(v, s) / form(s, s) for s in star]
        w = [F(x) for x in v]
        for c, s in zip(coeffs, star):
            w = [wi - c * si for wi, si in zip(w, s)]
        star.append(w)
        mu.append(coeffs)
    return mu, [form(s, s) for s in star]


def test_lll_reduce_is_size_reduced_and_lovasz_under_q():
    Q = ((4, 1, 0), (1, 3, 1), (0, 1, 2))
    basis = [[201, 37, -12], [1648, 297, -94], [-55, 8, 33]]
    out = hkr._lll_reduce(basis, Q)
    mu, norms = _gram_schmidt(out, Q)
    assert all(abs(x) <= F(1, 2) for row in mu for x in row)
    assert all(norms[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, len(out)))
    # the same lattice: integral coordinates in the old basis, equal |det|
    coords = mat_mul(out, mat_inv(m(basis)))
    assert all(x.denominator == 1 for row in coords for x in row)
    assert abs(mat_det(out)) == abs(mat_det(basis))
    assert out != basis


def test_oracle_code_shares_nothing_with_molien():
    # every name the oracle's code reads, following its helpers in hkr
    seen, names = set(), set()
    todo = [hkr.brute_force_invariants.__code__]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_names"))
        todo.extend(v.__code__ for n, v in vars(hkr).items()
                    if n in code.co_names and isinstance(v, FunctionType)
                    and v.__module__ == hkr.__name__)
    assert "_oracle_tables" in names and "_sym_images" in names
    assert "restricted_action" in names and "det_normal_char" in names
    assert not names & {"elementary_symmetric", "det_series_factor", "_molien_average",
                        "terms"}


def test_oracle_builds_its_per_element_data_only_when_asked(monkeypatch):
    # the Molien tables read the weighted terms alone, so without --oracle no
    # sector makes its V^g, per-element tuples or oracle tables; the oracle's
    # sectors make both, each its tables once, and drop the tables when
    # their cells are checked
    built, tabled = [], []
    real, real_tables = hkr.build_sector, hkr._oracle_tables

    def tables(sec):
        if sec._oracle is None:
            tabled.append(sec)
        return real_tables(sec)

    monkeypatch.setattr(hkr, "build_sector", lambda *a: built.append(real(*a)) or built[-1])
    monkeypatch.setattr(hkr, "_oracle_tables", tables)
    doc = {"command": "quotient", "t_max": 3,
           "generators": [[[str(x) for x in row] for row in g] for g in B3]}
    cli.run(cli.parse_jobspec(json.dumps(doc)))
    assert len(built) == 2 * len(conjugacy_classes(generate(B3, 1000)))
    assert all(callable(sec._geometry) and sec._oracle is None for sec in built)
    assert not tabled
    built.clear()
    report = cli.run(cli.parse_jobspec(json.dumps(dict(doc, oracle=True))))
    assert report["oracle"]["agreement"] is True
    oracle_sectors = built[-len(report["sectors"]):]
    assert sorted(map(id, tabled)) == sorted(map(id, oracle_sectors))
    assert all(isinstance(sec._geometry, tuple) and sec._oracle is None
               for sec in oracle_sectors)
