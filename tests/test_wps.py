from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from orbifold_hkr.wps import WeightedStack, hh_vector, inertia_components


def test_weights_validation():
    with pytest.raises(ValueError):
        WeightedStack(())
    with pytest.raises(ValueError):
        WeightedStack((1, 0))
    with pytest.raises(ValueError):
        WeightedStack((1, True))


def test_football_components():
    comps = inertia_components(WeightedStack((2, 3)))
    assert len(comps) == 4
    assert comps[0].k == 0 and comps[0].support == (0, 1)
    supports = [c.support for c in comps[1:]]
    # one BC2 point (zeta = -1 fixes x only), two BC3 points
    assert supports.count((0,)) == 1
    assert supports.count((1,)) == 2
    assert [c.dimension for c in comps] == [1, 0, 0, 0]


def test_ordinary_p1_has_trivial_twisted_inertia():
    comps = inertia_components(WeightedStack((1, 1)))
    assert len(comps) == 1
    assert comps[0].dimension == 1


def test_mu2_gerbe_over_p1():
    comps = inertia_components(WeightedStack((2, 2)))
    assert len(comps) == 2
    assert all(c.support == (0, 1) for c in comps)
    assert all(c.dimension == 1 for c in comps)


def test_hh_vector_examples():
    assert hh_vector(WeightedStack((2, 3))) == {0: 5}
    assert hh_vector(WeightedStack((1,))) == {0: 1}
    assert hh_vector(WeightedStack((1, 1, 1))) == {0: 3}
    assert hh_vector(WeightedStack((1, 7))) == {0: 8}


def _union_of_root_groups(weights):
    # |union of mu_{a_i}| by inclusion-exclusion over gcds
    from itertools import combinations
    idx = range(len(weights))
    total = 0
    for r in range(1, len(weights) + 1):
        for S in combinations(idx, r):
            g = 0
            for i in S:
                g = gcd(g, weights[i])
            total += (-1) ** (r + 1) * g
    return total


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
def test_counting_identity(weights):
    W = WeightedStack(tuple(weights))
    comps = inertia_components(W)
    assert sum(c.dimension + 1 for c in comps) == sum(weights)
    assert len(comps) == _union_of_root_groups(tuple(weights))
    hh = hh_vector(W)
    assert set(hh) == {0}
    assert hh[0] == sum(weights)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
def test_untwisted_component_is_the_stack(weights):
    W = WeightedStack(tuple(weights))
    comps = inertia_components(W)
    assert comps[0].k == 0
    assert comps[0].support == tuple(range(len(weights)))
    assert comps[0].dimension == W.dim


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_components_match_the_definitional_loop(weights):
    # every k < lcm whose root zeta_N^k fixes some coordinate, k ascending
    ws = tuple(weights)
    N = lcm(*ws)
    expected = []
    for k in range(N):
        support = tuple(i for i, a in enumerate(ws) if (k * a) % N == 0)
        if support:
            expected.append((N, k, support, tuple(ws[i] for i in support)))
    got = [(c.order, c.k, c.support, c.component_weights)
           for c in inertia_components(WeightedStack(ws))]
    assert got == expected


def test_coprime_weights_give_point_sectors():
    comps = inertia_components(WeightedStack((3, 5)))
    assert all(c.dimension == 0 for c in comps[1:])
