import json
from fractions import Fraction
from itertools import combinations

import pytest

from orbifold_hkr import groups, hkr, sectors
from orbifold_hkr.cli import main
from orbifold_hkr.exact import (InternalError, NotInvertible, integer_form,
                                mat_det, mat_identity, mat_inv, mat_mul,
                                mat_rank, mat_sub, mat_vec, nullspace_basis,
                                rational_matrix, rref)
from orbifold_hkr.groups import ConjClass, MatrixGroup, conjugacy_classes, generate
from orbifold_hkr.sectors import (build_sector, derived_fixed_hilbert, monomials,
                                  shifted_tangent_hilbert)

from conftest import B3, B3_BASIS, ROT4, S3_PERM, SIGN_1D, m

F = Fraction


def _index(G, g):
    # the element index of the matrix g
    return G.elements.index(integer_form(m(g)))


def _class_of(G, g):
    i = _index(G, g)
    return next(cls for cls in conjugacy_classes(G) if i in cls.members)


def _sector_of(G, g):
    return build_sector(G, _class_of(G, g), conjugacy_classes(G))


def _position(G, sec, g):
    # where the matrix g sits in the sector's centralizer-ordered tuples
    return sec.class_ref.centralizer.index(_index(G, g))


def test_monomial_count():
    assert monomials(0, 0) == [()]
    assert monomials(0, 3) == []
    assert len(monomials(3, 4)) == 15
    assert all(sum(a) == 4 for a in monomials(3, 4))


def test_sign_group_sectors():
    G = generate(SIGN_1D, 100)
    e = _sector_of(G, [[1]])
    tw = _sector_of(G, [[-1]])
    assert (e.fixed_dim, e.c_g) == (1, 0)
    assert (tw.fixed_dim, tw.c_g) == (0, 1)
    assert set(e.det_normal_char) == {F(1)}
    assert sorted(tw.det_normal_char) == [F(-1), F(1)]


def test_rotation_sector_determinant_one():
    G = generate(ROT4, 100)
    rot = _sector_of(G, [[0, -1], [1, 0]])
    assert (rot.fixed_dim, rot.c_g) == (0, 2)
    assert rot.det_normal_char[_position(G, rot, [[0, -1], [1, 0]])] == F(1)


def test_transposition_sector_of_s3():
    G = generate(S3_PERM, 100)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    sec = _sector_of(G, swap)
    assert (sec.fixed_dim, sec.c_g) == (2, 1)
    at = _position(G, sec, swap)
    assert sec.det_normal_char[at] == F(-1)
    # g acts as the identity on its own fixed subspace
    assert sec.restricted_action[at] == integer_form(mat_identity(2))


def test_fixed_basis_is_correct(zoo_groups):
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        for cls in classes:
            sec = build_sector(G, cls, classes)
            g = rational_matrix(*G.elements[cls.representative])
            A = mat_sub(g, mat_identity(G.n))
            for b in sec.fixed_basis:
                assert not any(mat_vec(A, b))
            assert mat_rank(A) == sec.c_g


def test_det_normal_char_is_multiplicative(zoo_groups):
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        for cls in classes:
            sec = build_sector(G, cls, classes)
            Z = [rational_matrix(*G.elements[h]) for h in cls.centralizer]
            # the product h1 h2 as a matrix, looked up among the centralizer
            where = {integer_form(h): k for k, h in enumerate(Z)}
            chi = sec.det_normal_char
            for a, h1 in enumerate(Z):
                for b, h2 in enumerate(Z):
                    prod = where[integer_form(mat_mul(h1, h2))]
                    assert chi[prod] == chi[a] * chi[b]


def test_change_of_complement_leaves_character_alone():
    G = generate(S3_PERM, 100)
    cls = _class_of(G, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    default = build_sector(G, cls, conjugacy_classes(G))
    other = build_sector(G, cls, conjugacy_classes(G), complement=[0])
    assert default.det_normal_char == other.det_normal_char


def test_bad_complement_is_rejected():
    # the complement is chosen where V^g is made, on the first read
    G = generate(S3_PERM, 100)
    cls = _class_of(G, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotInvertible):
        # e_2 lies inside the fixed subspace, so it is no complement
        build_sector(G, cls, conjugacy_classes(G), complement=[2]).fixed_basis
    with pytest.raises(ValueError):
        build_sector(G, cls, conjugacy_classes(G), complement=[0, 1]).fixed_basis


def _conjugation_blocks(G, cls, comp):
    # the blocks of B^-1 h B, B = [fixed basis | e_c for c in comp], by
    # Fraction products, as build_sector formed them before it used the
    # block formulas; None when B is singular, i.e. comp is no complement
    n = G.n
    g = rational_matrix(*G.elements[cls.representative])
    fixed = nullspace_basis(mat_sub(g, mat_identity(n)))
    f = len(fixed)
    B = tuple(tuple(fixed[k][i] if k < f else F(int(i == comp[k - f]))
                    for k in range(n)) for i in range(n))
    try:
        Binv = mat_inv(B)
    except NotInvertible:
        return None
    restricted, charv = [], []
    for h in cls.centralizer:
        M = mat_mul(mat_mul(Binv, rational_matrix(*G.elements[h])), B)
        assert not any(M[i][j] for i in range(f, n) for j in range(f))
        # build_sector keeps the pair (d, N) in lowest terms, integer_form's
        restricted.append(integer_form(tuple(tuple(M[i][j] for j in range(f))
                                             for i in range(f))))
        charv.append(mat_det(tuple(tuple(M[i][j] for j in range(f, n))
                                   for i in range(f, n))))
    return tuple(restricted), tuple(charv)


def test_block_formulas_match_conjugation_by_b(zoo_groups):
    b3_conjugate = tuple(mat_mul(mat_mul(B3_BASIS, g), mat_inv(B3_BASIS)) for g in B3)
    for G in list(zoo_groups.values()) + [generate(b3_conjugate)]:
        classes = conjugacy_classes(G)
        for cls in classes:
            sec = build_sector(G, cls, classes)
            # the default complement: the coordinates off the pivots of the fixed basis
            pivots = rref(sec.fixed_basis)[1] if sec.fixed_basis else []
            default = [j for j in range(G.n) if j not in pivots]
            assert (sec.restricted_action, sec.det_normal_char) == \
                _conjugation_blocks(G, cls, default)
            # hkr reads both tuples side by side, in centralizer order
            assert (len(sec.restricted_action) == len(sec.det_normal_char)
                    == len(sec.class_ref.centralizer))
            assert cls.members[0] == cls.representative
            for comp in combinations(range(G.n), sec.c_g):
                want = _conjugation_blocks(G, cls, comp)
                if want is None:
                    with pytest.raises(NotInvertible):
                        build_sector(G, cls, classes, complement=comp).restricted_action
                    continue
                other = build_sector(G, cls, classes, complement=comp)
                assert (other.restricted_action, other.det_normal_char) == want
                # and the sector does not depend on the choice
                assert other.restricted_action == sec.restricted_action
                assert other.det_normal_char == sec.det_normal_char


def test_fixed_subspace_guard_is_an_internal_error(monkeypatch):
    G = generate(S3_PERM, 100)
    cls = _class_of(G, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # span(e_1, e_3) is not fixed by the swap, which moves e_1 to e_2; it has
    # the right dimension, so the terms are made, and the per-element guard
    # fires when the oracle reads the tuples
    monkeypatch.setattr(sectors, "nullspace_basis",
                        lambda A: [m([[1, 0, 0]])[0], m([[0, 0, 1]])[0]])
    sec = build_sector(G, cls, conjugacy_classes(G))
    with pytest.raises(InternalError, match="does not preserve the fixed subspace"):
        sec.restricted_action


# Koszul homology of (g - I) ---------------------------------------------------

def test_derived_fixed_identity_element():
    rep = derived_fixed_hilbert([[1]], 4)
    assert rep.row(0) == (1, 1, 1, 1, 1)
    assert rep.row(1) == (0, 1, 1, 1, 1)


def test_derived_fixed_minus_one():
    rep = derived_fixed_hilbert([[-1]], 4)
    assert rep.row(0) == (1, 0, 0, 0, 0)
    assert rep.row(1) == (0, 0, 0, 0, 0)


def test_derived_fixed_minus_identity_2d():
    rep = derived_fixed_hilbert([[-1, 0], [0, -1]], 4)
    assert rep.row(0) == (1, 0, 0, 0, 0)
    assert rep.row(1) == (0, 0, 0, 0, 0)
    assert rep.row(2) == (0, 0, 0, 0, 0)


def test_shifted_tangent_point_sector():
    G = generate(SIGN_1D, 100)
    tw = _sector_of(G, [[-1]])
    rep = shifted_tangent_hilbert(tw, 4)
    assert rep.row(0) == (1, 0, 0, 0, 0)
    assert rep.row(1) == (0, 0, 0, 0, 0)


def test_shifted_tangent_line_sector():
    G = generate(SIGN_1D, 100)
    e = _sector_of(G, [[1]])
    rep = shifted_tangent_hilbert(e, 4)
    assert rep.row(0) == (1, 1, 1, 1, 1)
    assert rep.row(1) == (0, 1, 1, 1, 1)


def test_shifted_tangent_plane_count():
    G = generate(S3_PERM, 100)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    sec = _sector_of(G, swap)
    rep = shifted_tangent_hilbert(sec, 4)
    # f = 2: p = 1 at weight 3 counts x^a y^b dx and x^a y^b dy with a + b = 2
    assert rep.row(1)[3] == 6


def test_derived_equals_shifted_across_zoo(zoo_groups):
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        for cls in classes:
            sec = build_sector(G, cls, classes)
            want = shifted_tangent_hilbert(sec, 6)
            for g in cls.members:
                assert derived_fixed_hilbert(rational_matrix(*G.elements[g]), 6) == want


def test_normal_character_guard_is_an_internal_error(monkeypatch):
    G = generate(S3_PERM, 100)
    cls = _class_of(G, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # det(eps d Q_h) off by one is no longer +-(eps d)^c, so no character +-1;
    # the guard fires when the oracle reads the per-element tuples
    sec = build_sector(G, cls, conjugacy_classes(G))
    real = sectors.mat_det
    monkeypatch.setattr(sectors, "mat_det", lambda A: real(A) + 1)
    with pytest.raises(InternalError, match="normal directions is not"):
        sec.det_normal_char


def test_central_class_guard_checks_every_generator(tmp_path, capsys, monkeypatch):
    # a hand-built class claims that the swap of x_1 and x_2 is central; it
    # commutes with itself but not with the 3-cycle, and the index check on
    # every generator sees that before any term is made
    G = generate(S3_PERM, 100)
    swap = _index(G, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    fake = ConjClass(swap, (swap,), tuple(range(G.order)), 2, cosets=())
    identity = conjugacy_classes(G)[0]
    with pytest.raises(InternalError, match="does not commute with every generator"):
        build_sector(G, fake, [identity, fake])
    # through the CLI the guard is exit 5, one line on stderr and no report
    monkeypatch.setattr(hkr, "conjugacy_classes", lambda G: [fake] + conjugacy_classes(G))
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"command": "quotient", "t_max": 3,
                                "generators": [[[str(x) for x in row] for row in g]
                                               for g in S3_PERM]}))
    assert main(["quotient", "--spec", str(spec)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: a central class does not commute")
    assert err.count("\n") == 1 and "Traceback" not in err


# guards of the trace route -----------------------------------------------------

def test_generator_determinant_guard_is_an_internal_error(monkeypatch):
    # generator determinants twice too large; the group reads them once from
    # its closure pairs, for the det_v that the terms' characters take (generate
    # checks its input generators before the walk, so the group is rebuilt
    # from a closure made with the real determinants)
    G = generate(S3_PERM, 100)
    real = groups.mat_det
    monkeypatch.setattr(groups, "mat_det", lambda A: 2 * real(A))
    with pytest.raises(InternalError, match="generator's determinant is not"):
        MatrixGroup(G.n, G.elements, G.right, G.parents)


def test_trace_guard_is_an_internal_error():
    # the identity of S3 stored as the pair (2, I) reads as I / 2, whose
    # trace 3/2 is no integer
    G = generate(S3_PERM, 100)
    elements = ((2, G.elements[0][1]),) + G.elements[1:]
    with pytest.raises(InternalError, match="trace is not an integer"):
        MatrixGroup(G.n, elements, G.right, G.parents)


def test_coset_average_guard_is_an_internal_error(monkeypatch):
    # the square -I of the rotation by a quarter turn read with trace -1: the
    # coset {I, -I} of <-I> has traces 2 and -1, whose average is no integer
    G = generate(ROT4, 100)
    cls = _class_of(G, [[-1, 0], [0, -1]])
    traces = list(G.traces)
    traces[cls.representative] = -1
    monkeypatch.setattr(G, "traces", traces)
    with pytest.raises(InternalError, match="trace average is not an integer"):
        build_sector(G, cls, conjugacy_classes(G))


def test_fixed_dimension_guard_is_an_internal_error(monkeypatch):
    # a fixed basis one vector short disagrees with the trace average of <g>;
    # the report reads only the trace average, and the first read of V^g fails
    G = generate(SIGN_1D, 100)
    classes = conjugacy_classes(G)
    real = sectors.nullspace_basis
    monkeypatch.setattr(sectors, "nullspace_basis", lambda A: real(A)[1:])
    sec = build_sector(G, classes[0], classes)
    with pytest.raises(InternalError, match="trace average of <g> is 1, not the "
                                            "fixed dimension 0"):
        sec.fixed_basis
