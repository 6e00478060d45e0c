from fractions import Fraction
from math import lcm

import pytest

from orbifold_hkr.exact import NotInvertible
from orbifold_hkr.groups import (CapExceeded, OrderCapExceeded, conjugacy_classes,
                                 element_order, generate, matrix_key)

from conftest import D4, ROT4, S3_PERM, SIGN_1D, m

F = Fraction


def test_generate_sign_group():
    G = generate(SIGN_1D, 100)
    assert G.order == 2
    assert G.exponent == 2
    assert m([[1]]) in G
    assert m([[-1]]) in G


def test_generate_s3_from_transpositions():
    swap12 = m([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swap23 = m([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    G = generate((swap12, swap23), 100)
    assert G.order == 6
    assert G.exponent == 6


def test_shear_has_infinite_order():
    with pytest.raises(OrderCapExceeded):
        generate((m([[1, 1], [0, 1]]),), 100)


def test_singular_generator_rejected():
    with pytest.raises(NotInvertible):
        generate((m([[1, 2], [2, 4]]),), 100)


def test_cap_exceeded():
    # generator orders (4 and 2) stay under the cap, the closure does not
    with pytest.raises(CapExceeded):
        generate(D4, 5)


def test_identity_first_in_enumeration():
    G = generate(ROT4, 100)
    assert G.elements[0] == matrix_key(m([[1, 0], [0, 1]]))


def test_classes_of_sign_group():
    G = generate(SIGN_1D, 100)
    classes = conjugacy_classes(G)
    assert len(classes) == 2
    assert all(len(c.members) == 1 for c in classes)
    assert all(len(c.centralizer) == 2 for c in classes)


def test_classes_of_s3():
    G = generate(S3_PERM, 100)
    classes = conjugacy_classes(G)
    sizes = sorted(len(c.members) for c in classes)
    cents = sorted(len(c.centralizer) for c in classes)
    assert sizes == [1, 2, 3]
    assert cents == [2, 3, 6]
    # identity class comes first in enumeration order
    assert classes[0].representative == G.elements[0]


def test_classes_of_cyclic4_all_singletons():
    G = generate(ROT4, 100)
    classes = conjugacy_classes(G)
    assert len(classes) == 4
    assert all(len(c.members) == 1 for c in classes)


def test_exponent_examples():
    assert generate(SIGN_1D, 10).exponent == 2
    assert generate(S3_PERM, 10).exponent == 6
    assert generate((m([[1, 0], [0, 1]]),), 10).exponent == 1


def test_element_order_values():
    assert element_order(m([[-1]]), 10) == 2
    assert element_order(m([[0, -1], [1, -1]]), 10) == 3
    assert element_order(m([[1, -1], [1, 0]]), 10) == 6


def test_class_equation_and_orbit_stabilizer(zoo_groups):
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        assert sum(len(c.members) for c in classes) == G.order
        for c in classes:
            assert len(c.members) * len(c.centralizer) == G.order
            assert c.representative in c.members
            assert G.elements[0] in c.centralizer


def test_conjugation_stays_in_class(zoo_groups):
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        where = {}
        for i, c in enumerate(classes):
            for g in c.members:
                where[g] = i
        for h in G.elements:
            for c in classes:
                g = c.representative
                conj = G.product(G.product(h, g), G.inverse(h))
                assert where[conj] == where[g]


def test_orders_divide_exponent_and_group_order(zoo_groups):
    for G in zoo_groups.values():
        orders = [element_order(g, 10000) for g in G.elements]
        assert lcm(*orders) == G.exponent
        for o in orders:
            assert G.exponent % o == 0
            assert G.order % o == 0
        assert G.order % G.exponent == 0


def test_closure_under_product_and_inverse(zoo_groups):
    for G in zoo_groups.values():
        sample = list(G.elements)[:8]
        for a in sample:
            assert G.inverse(a) in G
            for b in sample:
                assert G.product(a, b) in G
