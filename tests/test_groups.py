from fractions import Fraction
from math import factorial, lcm
import time

import pytest

from orbifold_hkr.exact import (NotInvertible, int_mat_mul, integer_form, lowest_terms,
                                mat_det, mat_identity, mat_inv, mat_mul, rational_matrix)
from orbifold_hkr.groups import (CapExceeded, OrderCapExceeded, conjugacy_classes,
                                 element_order, generate, max_finite_order,
                                 minkowski_bound)

from conftest import B3, B3_BASIS, D4, ROT4, S3_PERM, SIGN_1D, ZOO, m

F = Fraction


def _matrices(G):
    # the Fraction matrix of each element, in index order
    return [rational_matrix(*e) for e in G.elements]


def _exponent(G):
    # element order is a class function, so the exponent is the lcm of the
    # class orders, as the quotient report computes it
    return lcm(*(c.order for c in conjugacy_classes(G)))


def test_generate_sign_group():
    G = generate(SIGN_1D, 100)
    assert G.order == 2
    assert _exponent(G) == 2
    elements = set(_matrices(G))
    assert m([[1]]) in elements
    assert m([[-1]]) in elements


def test_generate_s3_from_transpositions():
    swap12 = m([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swap23 = m([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    G = generate((swap12, swap23), 100)
    assert G.order == 6
    assert _exponent(G) == 6


def test_shear_has_infinite_order():
    with pytest.raises(OrderCapExceeded):
        generate((m([[1, 1], [0, 1]]),), 100)


def test_infinite_order_is_told_apart_from_the_cap():
    # past max_finite_order(2) = 6 the order is infinite whatever the cap
    for M in ([[2, 0], [0, 1]], [[1, 1], [0, 1]]):
        with pytest.raises(OrderCapExceeded, match="infinite order"):
            element_order(m(M), 100000)
    # order 6 under a cap of 5 is the cap's doing
    with pytest.raises(OrderCapExceeded, match="exceeds cap 5"):
        element_order(m([[1, -1], [1, 0]]), 5)
    assert element_order(m([[1, -1], [1, 0]]), 6) == 6


def test_max_finite_order_matches_brute_force():
    # cost(m) = sum of phi(p^a) over the prime powers p^a exactly dividing m,
    # 2 left out; M(n) is the largest m of cost at most n
    limit = 20000
    spf = list(range(limit))
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == p:
            for k in range(p * p, limit, p):
                if spf[k] == k:
                    spf[k] = p

    def cost(x):
        c = 0
        while x > 1:
            p, q = spf[x], 1
            while x % p == 0:
                x //= p
                q *= p
            if q > 2:
                c += q - q // p
        return c

    costs = [cost(x) for x in range(limit)]
    want = [2, 6, 6, 12, 12, 30, 30, 60, 60, 120, 120, 210]
    for n in range(1, 13):
        brute = max(x for x in range(1, limit) if costs[x] <= n)
        assert brute == want[n - 1] == max_finite_order(n)


def test_singular_generator_rejected():
    with pytest.raises(NotInvertible):
        generate((m([[1, 2], [2, 4]]),), 100)


def test_cap_exceeded():
    # generator orders (4 and 2) stay under the cap, the closure does not;
    # D4 has 8 elements, so a cap of 8 holds it and a cap of 7 does not
    with pytest.raises(CapExceeded):
        generate(D4, 5)
    with pytest.raises(CapExceeded, match="exceeds cap 7"):
        generate(D4, 7)
    assert generate(D4, 8).order == 8


def test_infinite_group_of_finite_order_generators_stops_at_minkowski():
    # two reflections whose product is a shear: the infinite dihedral group,
    # whose orbit of e_1 passes n times Minkowski's bound, or n times the cap
    gens = (m([[-1, 0], [0, 1]]), m([[-1, 1], [0, 1]]))
    with pytest.raises(CapExceeded, match="infinite: .* over 48 rows"):
        generate(gens)
    with pytest.raises(CapExceeded, match="exceeds cap 5: .* over 10 rows"):
        generate(gens, 5)
    # {1, -1} is as large as a finite subgroup of GL_1(Q) can be
    assert generate(SIGN_1D).order == minkowski_bound(1) == 2


def test_hyperoctahedral_orders_divide_minkowski():
    assert [minkowski_bound(n) for n in range(1, 6)] == [2, 24, 48, 5760, 11520]
    for n in range(1, 9):
        assert minkowski_bound(n) % (2 ** n * factorial(n)) == 0


def test_zoo_orders_divide_minkowski(zoo_groups):
    for G in zoo_groups.values():
        assert minkowski_bound(G.n) % G.order == 0


def test_identity_first_in_enumeration():
    G = generate(ROT4, 100)
    assert rational_matrix(*G.elements[0]) == m([[1, 0], [0, 1]])


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
    assert classes[0].representative == 0


def test_classes_of_cyclic4_all_singletons():
    G = generate(ROT4, 100)
    classes = conjugacy_classes(G)
    assert len(classes) == 4
    assert all(len(c.members) == 1 for c in classes)


def test_exponent_examples():
    assert _exponent(generate(SIGN_1D, 10)) == 2
    assert _exponent(generate(S3_PERM, 10)) == 6
    assert _exponent(generate((m([[1, 0], [0, 1]]),), 10)) == 1


def test_element_order_values():
    assert element_order(m([[-1]]), 10) == 2
    assert element_order(m([[0, -1], [1, -1]]), 10) == 3
    assert element_order(m([[1, -1], [1, 0]]), 10) == 6


def _product_order(M, cap):
    # the order by repeated products, as element_order ran it before it
    # walked rows: the order, or the message of its OrderCapExceeded
    n, bound = len(M), max_finite_order(len(M))
    P, k = M, 1
    while P != mat_identity(n):
        P, k = mat_mul(P, M), k + 1
        if k > bound:
            return "element has infinite order"
        if k > cap:
            return "element order exceeds cap %d" % cap
    return k


def test_row_orbit_order_matches_product_loop(zoo_groups):
    cases = [M for G in zoo_groups.values() for M in _matrices(G)]
    cases += [m([[2, 0], [0, 1]]), m([[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
              m([[1, 1], [0, 1]]), m([[1, -1], [1, 0]])]
    for M in cases:
        for cap in (1, 2, 3, 5, 6, 100000):
            try:
                got = element_order(M, cap)
            except OrderCapExceeded as e:
                got = str(e)
            assert got == _product_order(M, cap)


def test_order_of_a_large_permutation_matrix():
    # cycles 5, 7, 8, 9 and 11 on A^40: order 27720, from 40 row steps where
    # the product loop made 27720 products of 40 x 40 matrices
    perm, start = [], 0
    for length in (5, 7, 8, 9, 11):
        perm += [start + (i + 1) % length for i in range(length)]
        start += length
    M = m([[int(j == perm[i]) for j in range(40)] for i in range(40)])
    begin = time.perf_counter()
    assert element_order(M) == 27720
    assert time.perf_counter() - begin < 1.0


def test_class_equation_and_orbit_stabilizer(zoo_groups):
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        assert sum(len(c.members) for c in classes) == G.order
        for c in classes:
            assert len(c.members) * len(c.centralizer) == G.order
            assert c.representative in c.members
            assert c.members[0] == c.representative
            assert list(c.members) == sorted(c.members)
            assert list(c.centralizer) == sorted(c.centralizer)
            assert 0 in c.centralizer


def test_conjugation_stays_in_class(zoo_groups):
    for G in zoo_groups.values():
        classes = conjugacy_classes(G)
        mats = _matrices(G)
        where = {}
        for i, c in enumerate(classes):
            for g in c.members:
                where[mats[g]] = i
        for h in mats:
            for c in classes:
                g = mats[c.representative]
                conj = mat_mul(mat_mul(h, g), mat_inv(h))
                assert where[conj] == where[g]


def test_orders_divide_exponent_and_group_order(zoo_groups):
    for G in zoo_groups.values():
        orders = [element_order(g, 10000) for g in _matrices(G)]
        exponent = _exponent(G)
        assert lcm(*orders) == exponent
        for o in orders:
            assert exponent % o == 0
            assert G.order % o == 0
        assert G.order % exponent == 0


def test_closure_under_product_and_inverse(zoo_groups):
    for G in zoo_groups.values():
        elements = set(_matrices(G))
        sample = _matrices(G)[:8]
        for a in sample:
            assert mat_inv(a) in elements
            for b in sample:
                assert mat_mul(a, b) in elements


@pytest.mark.parametrize("P", [None, B3_BASIS], ids=["coxeter", "conjugate"])
def test_index_classes_match_matrix_arithmetic(P):
    gens = B3
    if P is not None:
        gens = tuple(mat_mul(mat_mul(P, g), mat_inv(P)) for g in gens)
    G = generate(gens, 1000)
    assert G.order == 48
    mats = _matrices(G)
    inverses = [mat_inv(h) for h in mats]
    classes = conjugacy_classes(G)
    assert len(classes) == 10
    for c in classes:
        g = mats[c.representative]
        orbit = {mat_mul(mat_mul(h, g), hi) for h, hi in zip(mats, inverses)}
        assert c.members == tuple(i for i, x in enumerate(mats) if x in orbit)
        assert c.members[0] == c.representative
        assert c.centralizer == tuple(i for i, h in enumerate(mats)
                                      if mat_mul(h, g) == mat_mul(g, h))
        assert c.order == element_order(g)
    assert _exponent(G) == lcm(*(element_order(g) for g in mats))


def _swap(n, k):
    # the permutation matrix of the transposition (k, k + 1)
    perm = list(range(n))
    perm[k], perm[k + 1] = perm[k + 1], perm[k]
    return m([[int(j == perm[i]) for j in range(n)] for i in range(n)])


# S4 by adjacent transpositions, and the det -8 basis change that makes the
# oracle slow on it
S4_PERM = tuple(_swap(4, k) for k in range(3))
DET_MINUS_8 = m([[2, 0, 0, 2], [-2, 1, -1, -2], [-1, -2, 0, 1], [-1, 1, 2, -2]])


def _conjugate(gens, P):
    Pinv = mat_inv(P)
    return tuple(mat_mul(mat_mul(P, g), Pinv) for g in gens)


def _fraction_closure(gens):
    # the breadth-first closure on Fraction matrices, as generate ran it
    # before it moved to integer pairs: (elements, right, parents)
    n = len(gens[0])
    elements = [mat_identity(n)]
    index = {elements[0]: 0}
    parents = [None]
    right = [[] for _ in gens]
    for i, w in enumerate(elements):
        for k, g in enumerate(gens):
            p = mat_mul(w, g)
            if p not in index:
                index[p] = len(elements)
                elements.append(p)
                parents.append((i, k))
            right[k].append(index[p])
    return elements, right, parents


def _fraction_order(M):
    P, k = M, 1
    while P != mat_identity(len(M)):
        P, k = mat_mul(P, M), k + 1
    return k


_CLOSURE_CASES = dict(ZOO, **{
    "B3": B3,
    "B3 conjugate": _conjugate(B3, B3_BASIS),
    "S4 det -8 conjugate": _conjugate(S4_PERM, DET_MINUS_8),
})


@pytest.mark.parametrize("name", list(_CLOSURE_CASES))
def test_closure_matches_fraction_closure(name):
    gens = _CLOSURE_CASES[name]
    G = generate(gens)
    elements, right, parents = _fraction_closure(gens)
    # each element is the unique integer pair (d, N) of its matrix
    assert G.elements == tuple(integer_form(M) for M in elements)
    assert _matrices(G) == elements
    assert G.right == right
    assert G.parents == parents
    assert all(type(d) is int and type(x) is int
               for d, N in G.elements for row in N for x in row)
    assert [element_order(g) for g in elements] == [_fraction_order(g)
                                                    for g in elements]
    assert G.det_v == [mat_det(g) for g in elements]


@pytest.mark.parametrize("name", list(_CLOSURE_CASES))
def test_left_tables_match_matrix_products(name):
    G = generate(_CLOSURE_CASES[name])
    mats = _matrices(G)
    index = {M: i for i, M in enumerate(mats)}
    for u, Mu in enumerate(mats):
        assert G.left(u) == [index[mat_mul(Mu, Mx)] for Mx in mats]


@pytest.mark.parametrize("name", list(_CLOSURE_CASES))
def test_class_orders_match_element_order(name):
    G = generate(_CLOSURE_CASES[name])
    mats = _matrices(G)
    for c in conjugacy_classes(G):
        assert c.order == element_order(mats[c.representative])


def _bipartitions(n):
    # pairs of partitions of sizes a + b = n: the classes of the
    # hyperoctahedral group B_n
    def partitions(k, largest):
        if k == 0:
            return 1
        return sum(partitions(k - j, j) for j in range(1, min(k, largest) + 1))
    return sum(partitions(a, a) * partitions(n - a, n - a) for a in range(n + 1))


# B5 on A^5 by adjacent transpositions and the sign change of x_1: 3840
# elements, whose BFS words run up to the length of the longest element
B5 = tuple(_swap(5, k) for k in range(4)) + (
    m([[-1 if r == j == 0 else int(r == j) for j in range(5)] for r in range(5)]),)


def test_classes_of_b5_on_a_deep_closure_tree():
    G = generate(B5)
    assert G.order == 2 ** 5 * factorial(5)
    classes = conjugacy_classes(G)
    assert len(classes) == _bipartitions(5) == 36
    assert sum(len(c.members) for c in classes) == G.order
    for c in classes:
        assert len(c.members) * len(c.centralizer) == G.order
        assert c.order == element_order(rational_matrix(*G.elements[c.representative]))


def _integer_closure(gens):
    # the breadth-first closure on integer (d, N) pairs, one matrix product
    # per element and generator, as generate ran it before it acted on row
    # orbits: (elements, right, parents)
    gens = [integer_form(g) for g in gens]
    elements = [integer_form(mat_identity(len(gens[0][1])))]
    index = {elements[0]: 0}
    parents = [None]
    right = [[] for _ in gens]
    for i, (d, N) in enumerate(elements):
        for k, (e, M) in enumerate(gens):
            p = lowest_terms(d * e, int_mat_mul(N, M))
            if p not in index:
                index[p] = len(elements)
                elements.append(p)
                parents.append((i, k))
            right[k].append(index[p])
    return elements, right, parents


def test_closure_of_b5_matches_integer_closure():
    G = generate(B5)
    elements, right, parents = _integer_closure(B5)
    assert G.elements == tuple(elements)
    assert G.right == right
    assert G.parents == parents
