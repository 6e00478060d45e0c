from fractions import Fraction

import pytest

from orbifold_hkr.circle import (ChainComplex, central_complex, cover_homology,
                                 fiber_dimension, gamma_homology,
                                 generic_fiber_homology)

F = Fraction


def test_chain_complex_rejects_nonzero_d_squared():
    with pytest.raises(ValueError):
        ChainComplex((1, 1, 1), ([[1]], [[1]]))


def test_chain_complex_rejects_bad_shape():
    with pytest.raises(ValueError):
        ChainComplex((2, 1), ([[1]],))
    # one differential too many
    with pytest.raises(ValueError, match="one differential per"):
        ChainComplex((1, 1), ([[0]], [[0]]))


def test_chain_complex_rejects_ragged_differential():
    with pytest.raises(ValueError, match="ragged"):
        ChainComplex((2, 2), ([[1, 2], [3]],))
    # the differentials are kept as int tuples
    assert ChainComplex((1, 2), ([[1, -1]],)).differentials == (((1, -1),),)


def test_gamma_values():
    assert gamma_homology(2) == ((1, ()), (0, (2,)), (0, ()))
    assert gamma_homology(3) == ((1, ()), (0, (3,)), (0, ()))
    assert gamma_homology(5) == ((1, ()), (0, (5,)), (0, ()))
    with pytest.raises(ValueError):
        gamma_homology(1)


def test_cover_values():
    assert cover_homology(2) == ((1, ()), (0, ()), (1, ()))
    assert cover_homology(3) == ((1, ()), (0, ()), (2, ()))
    assert cover_homology(5) == ((1, ()), (0, ()), (4, ()))


def test_euler_characteristics_match():
    for r in range(2, 13):
        # cells: 1 - 1 + 1 for the cofiber, 1 - 1 + r for the cover
        g = gamma_homology(r)
        assert g[0][0] - g[1][0] + g[2][0] == 1
        c = cover_homology(r)
        assert c[0][0] - c[1][0] + c[2][0] == 1 - 1 + r


def test_fiber_dimensions():
    assert fiber_dimension(1) == 1
    assert fiber_dimension(1, at_zero=True) == 1
    for n in range(2, 8):
        assert fiber_dimension(n) == n
        assert fiber_dimension(n, at_zero=True) == n


def test_central_complex_small_n():
    for n in range(2, 7):
        rep = central_complex(n)
        assert rep.h0 == 1
        assert rep.h1 == 1
        assert rep.trivial
        assert len(rep.character) == n
        assert all(pair == (F(1), F(1)) for pair in rep.character)
    with pytest.raises(ValueError):
        central_complex(1)


def test_generic_fiber_graph():
    for n in range(2, 8):
        assert generic_fiber_homology(n) == (1, 1)
    with pytest.raises(ValueError):
        generic_fiber_homology(1)


def test_generic_fiber_n2_is_a_four_cycle():
    # two sources, two targets of one point each, four edges: a 4-cycle
    assert generic_fiber_homology(2) == (1, 1)
