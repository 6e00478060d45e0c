from fractions import Fraction
from math import gcd
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from orbifold_hkr.exact import (BadRational, BiSeries, IntMatrix,
                                NotInvertible, QONE, det_series_factor,
                                elementary_symmetric, linear_solve, mat_det,
                                mat_identity, mat_inv, mat_mul, parse_rational,
                                smith_normal_form)

from conftest import m

F = Fraction


# rational parsing -----------------------------------------------------------

def test_parse_rational_examples():
    assert parse_rational("3") == F(3)
    assert parse_rational("-6/4") == F(-3, 2)
    assert parse_rational("+7/21") == F(1, 3)


@pytest.mark.parametrize("bad", ["1.5", "x", "", "1/0", "1/-2", "2/3/4", "1e3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(BadRational):
        parse_rational(bad)


@given(st.fractions())
def test_parse_format_round_trip(q):
    assert parse_rational(str(q)) == q


# truncated determinant series -------------------------------------------------

def test_reciprocal_geometric_series():
    s = det_series_factor(((QONE,),), 3, sign="minus", marker="t", reciprocal=True)
    assert s.row(0) == (F(1), F(1), F(1), F(1))


def test_numerator_with_ut_marker():
    s = det_series_factor(((F(-1),),), 3, sign="plus", marker="ut")
    assert s.coeff(0, 0) == 1
    assert s.coeff(1, 1) == -1
    assert s.coeff(1, 0) == 0


def test_reciprocal_identity_2x2():
    s = det_series_factor(mat_identity(2), 2, sign="minus", marker="t",
                          reciprocal=True)
    assert s.row(0) == (F(1), F(2), F(3))


def test_elementary_symmetric_identity():
    assert elementary_symmetric(mat_identity(2)) == (F(1), F(2), F(1))


def test_reciprocal_times_polynomial_is_one(zoo_groups):
    # det(I - tM)^{-1} * det(I - tM) == 1 for finite-order M
    for G in zoo_groups.values():
        for g in list(G.elements)[:6]:
            rec = det_series_factor(g, 6, sign="minus", marker="t",
                                    reciprocal=True)
            poly = det_series_factor(g, 6, sign="minus", marker="t")
            prod = rec * poly
            assert prod.row(0) == (F(1),) + (F(0),) * 6


# smith normal form ------------------------------------------------------------

def test_smith_examples():
    assert smith_normal_form([[2]]) == (2,)
    assert smith_normal_form([[1, 0], [0, 0]]) == (1,)
    assert smith_normal_form([[5]]) == (5,)
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == (2, 2, 156)


def _minor_gcd(rows, k):
    n, c = len(rows), len(rows[0])
    g = 0
    for ri in combinations(range(n), k):
        for ci in combinations(range(c), k):
            sub = [[F(rows[i][j]) for j in ci] for i in ri]
            g = gcd(g, int(mat_det(sub)))
    return abs(g)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=3))
def test_smith_divisibility_and_minor_gcds(rows):
    factors = smith_normal_form(rows)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    # d_1 ... d_k equals the gcd of all k x k minors
    prod = 1
    for k, d in enumerate(factors, start=1):
        prod *= d
        assert prod == _minor_gcd(rows, k)


# assorted kernels ---------------------------------------------------------------

def test_linear_solve_consistent_and_not():
    A = [[F(1), F(2)], [F(3), F(4)]]
    x = linear_solve(A, (F(5), F(11)))
    assert x == (F(1), F(2))
    A2 = [[F(1), F(0)], [F(1), F(0)]]
    assert linear_solve(A2, (F(0), F(1))) is None


def test_mat_inv_singular_raises():
    # [[1, 0], [0, 0]]: only the last pivot is missing, and rref([A | I])
    # finds it in the identity half instead
    for rows in ([[1, 2], [2, 4]], [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0]],
                 [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                 [[1, 1, 0], [0, 0, 1], [0, 0, 2]]):
        with pytest.raises(NotInvertible):
            mat_inv(m(rows))


def test_mat_inv_times_element_is_identity(zoo_groups):
    for G in zoo_groups.values():
        ident = mat_identity(G.n)
        for g in G.elements:
            assert mat_mul(mat_inv(g), g) == ident


def test_biseries_arithmetic():
    a = BiSeries(1, 2, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    b = a + a
    assert b.coeff(1, 1) == 2
    prod = a * a
    assert prod.u_max == 2
    assert prod.coeff(2, 2) == 1
    assert prod.coeff(0, 0) == 1
    with pytest.raises(ValueError):
        a.coeff(0, 3)
    assert a.coeff(5, 0) == 0


def test_intmatrix_shape_checks():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    assert IntMatrix([[1, 2]]).cols == 2
