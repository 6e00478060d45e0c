from fractions import Fraction
from math import gcd
from itertools import combinations
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbifold_hkr.exact import (BadRational, BiSeries, InternalError, NotInvertible,
                                det_series_factor, elementary_symmetric,
                                integer_form, linear_solve, lowest_terms,
                                mat_det, mat_identity, mat_inv, mat_mul,
                                mat_rank, nullspace_basis, parse_rational,
                                rational_matrix, rref, smith_normal_form)
from orbifold_hkr.groups import conjugacy_classes, generate
from orbifold_hkr.sectors import build_sector

from conftest import B3, B3_BASIS, fraction_gauss_jordan, m

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
    s = det_series_factor(elementary_symmetric((1,)), 3)
    assert s == (F(1), F(1), F(1), F(1))


def test_reciprocal_identity_2x2():
    s = det_series_factor(elementary_symmetric((2, 2)), 2)
    assert s == (F(1), F(2), F(3))


def _power_sums(M):
    # tr(M^j) for j = 1..n by Fraction products, each an integer here
    sums, P = [], M
    for _ in range(len(M)):
        sums.append(sum((P[i][i] for i in range(len(M))), F(0)))
        P = mat_mul(P, M)
    assert all(x.denominator == 1 for x in sums)
    return tuple(int(x) for x in sums)


def _from_key(key):
    # e_0, ..., e_n from the key (1, c_1, ..., c_n): e_k = (-1)^k c_k
    return tuple(-c if k % 2 else c for k, c in enumerate(key))


def test_elementary_symmetric_identity():
    # det(I - tI) = (1 - t)^2, so e = (1, 2, 1)
    assert elementary_symmetric(_power_sums(mat_identity(2))) == (1, -2, 1)
    assert _from_key((1, -2, 1)) == (F(1), F(2), F(1))


def _fraction_elementary_symmetric(M):
    # Faddeev-LeVerrier on Fractions, as elementary_symmetric ran it before it
    # moved to the integer matrix d * M
    n = len(M)
    B = M = tuple(tuple(F(x) for x in row) for row in M)
    coeffs = [F(1)]
    for k in range(1, n + 1):
        c = -sum((B[i][i] for i in range(n)), F(0)) / k
        coeffs.append(c)
        if k < n:
            shifted = tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                            for i, row in enumerate(B))
            B = mat_mul(M, shifted)
    return tuple(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))


def _finite_order_cases(zoo_groups):
    # every element and every restricted action of the zoo, the elements of
    # B3 in a det-3 basis (entries with denominators), and the 0x0 matrix
    b3 = generate(tuple(mat_mul(mat_mul(B3_BASIS, g), mat_inv(B3_BASIS)) for g in B3))
    cases = [rational_matrix(*e) for G in list(zoo_groups.values()) + [b3]
             for e in G.elements]
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        for cls in classes:
            cases.extend(rational_matrix(*A)
                         for A in build_sector(G, cls, classes).restricted_action)
    return cases + [()]


def test_elementary_symmetric_matches_fraction_recursion(zoo_groups):
    cases = _finite_order_cases(zoo_groups)
    assert any(x.denominator > 1 for M in cases for row in M for x in row)
    for M in cases:
        got = elementary_symmetric(_power_sums(M))
        assert _from_key(got) == _fraction_elementary_symmetric(M)
        assert all(type(x) is int for x in got)


def test_newton_guard_is_an_internal_error():
    # power sums (1, 0) would need c_2 = 1/2, and those of [[2]] give
    # det = 2: no matrix of finite order has either
    for sums in ((1, 0), (2,)):
        with pytest.raises(InternalError, match="power sums are no finite-order"):
            elementary_symmetric(sums)


def _padded_reciprocal(M, t_max):
    # 1 / det(I - tM) as det_series_factor expanded it before: the n + 1
    # coefficients padded with zeros up to t_max, inverted by the Fraction
    # recursion over all of them
    n = len(M)
    e = _fraction_elementary_symmetric(M)
    a = [(e[k] if k % 2 == 0 else -e[k]) if k <= n else F(0) for k in range(t_max + 1)]
    b = [F(0)] * (t_max + 1)
    b[0] = 1 / a[0]
    for d in range(1, t_max + 1):
        s = F(0)
        for k in range(1, min(d, len(a) - 1) + 1):
            if a[k]:
                s = s + a[k] * b[d - k]
        b[d] = -(b[0] * s)
    return tuple(b)


def test_reciprocal_matches_padded_recursion(zoo_groups):
    for M in _finite_order_cases(zoo_groups):
        got = det_series_factor(elementary_symmetric(_power_sums(M)), 300)
        assert got == _padded_reciprocal(M, 300)
        assert all(type(x) is int for x in got)
    # the long one: order 2 at t_max 2000
    got = det_series_factor(elementary_symmetric((-1,)), 2000)
    assert got == _padded_reciprocal(m([[-1]]), 2000)


def test_reciprocal_times_polynomial_is_one(zoo_groups):
    # det(I - tM)^{-1} * det(I - tM) == 1 for finite-order M
    for G in zoo_groups.values():
        for g in G.elements[:6]:
            key = elementary_symmetric(_power_sums(rational_matrix(*g)))
            rec = det_series_factor(key, 6)
            prod = tuple(sum(key[k] * rec[d - k] for k in range(min(d, len(key) - 1) + 1))
                         for d in range(7))
            assert prod == (1,) + (0,) * 6


def test_lowest_terms_matches_integer_form():
    rng = random.Random(20261021)
    assert lowest_terms(1, ((2, 4),)) == (1, ((2, 4),))
    assert lowest_terms(4, ((2, 0), (0, 2))) == (2, ((1, 0), (0, 1)))
    assert lowest_terms(6, ()) == (1, ())
    for n in range(1, 4):
        for _ in range(20):
            d = rng.randint(1, 12)
            N = tuple(tuple(rng.randint(-6, 6) * rng.choice((1, 2, 3))
                            for _ in range(n)) for _ in range(n))
            assert lowest_terms(d, N) == integer_form(rational_matrix(d, N))


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
    x = linear_solve(A, [(F(5), F(11))])
    assert x == [(F(1), F(2))]
    assert linear_solve(A, [(F(5), F(11)), (F(1), F(3))]) == [(F(1), F(2)), (F(1), F(0))]
    A2 = [[F(1), F(0)], [F(1), F(0)]]
    assert linear_solve(A2, [(F(0), F(1))]) is None
    # one right-hand side outside the span fails the whole batch
    assert linear_solve(A2, [(F(1), F(1)), (F(0), F(1))]) is None


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
        for g in [rational_matrix(*e) for e in G.elements]:
            assert mat_mul(mat_inv(g), g) == ident


def test_biseries_arithmetic():
    a = BiSeries(1, 2, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    b = a + a
    assert b.coeff(1, 1) == 2
    # the summand with fewer u degrees is padded with zero rows
    c = BiSeries(0, 2, [[F(2), F(0), F(1)]])
    assert a + c == c + a == BiSeries(1, 2, [[F(3), F(0), F(1)], [F(0), F(1), F(0)]])
    with pytest.raises(ValueError):
        a + BiSeries(1, 3, [[F(0)] * 4] * 2)
    with pytest.raises(ValueError):
        a.coeff(0, 3)
    assert a.coeff(5, 0) == 0


# the fraction-free kernel against plain Fraction Gauss-Jordan -------------------

def _kernel_cases(rng):
    def entry():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-6, 6), rng.randint(1, 5))

    cases = [[], [[]], [[], []], [[F(0)] * 3], [[F(0)] * 2] * 2]
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 8)
        kind = rng.randrange(3)
        if kind == 0:
            A = [[entry() for _ in range(cols)] for _ in range(rows)]
        elif kind == 1:  # rank at most k
            k = rng.randint(1, min(rows, cols))
            A = mat_mul([[entry() for _ in range(k)] for _ in range(rows)],
                        [[entry() for _ in range(cols)] for _ in range(k)])
        else:  # a zero row and a zero column
            A = [[entry() for _ in range(cols)] for _ in range(rows)]
            zr, zc = rng.randrange(rows), rng.randrange(cols)
            A = [[F(0) if i == zr or j == zc else x for j, x in enumerate(row)]
                 for i, row in enumerate(A)]
        cases.append(A)
        # the leading square block, singular in kind 1 when k < rows
        if cols >= rows:
            cases.append([row[:rows] for row in A])
    return cases


def test_kernel_matches_fraction_gauss_jordan():
    for A in _kernel_cases(random.Random(20240607)):
        rows, pivots, det = fraction_gauss_jordan(A)
        assert rref(A) == (rows, pivots)
        assert mat_rank(A) == len(pivots)
        ncols = len(A[0]) if A else 0
        if A:
            want = []
            for f in range(ncols):
                if f not in pivots:
                    v = [F(0)] * ncols
                    v[f] = F(1)
                    for row, p in zip(rows, pivots):
                        v[p] = -row[f]
                    want.append(tuple(v))
            assert nullspace_basis(A) == want
        if len(A) == ncols:
            assert mat_det(A) == det
            n = len(A)
            if det:
                inv = fraction_gauss_jordan(
                    [list(a) + [F(int(i == j)) for j in range(n)]
                     for i, a in enumerate(A)])[0]
                assert mat_inv(A) == tuple(tuple(row[n:]) for row in inv)
            else:
                with pytest.raises(NotInvertible):
                    mat_inv(A)
