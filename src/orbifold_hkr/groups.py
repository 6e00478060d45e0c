"""Finite matrix groups over Q.

An element is its index in closure order, and the matrix behind index i is
the integer pair elements[i] = (d, N) of exact.integer_form, M = N / d.
No two matrices are multiplied: the generators permute the orbit Omega of the
standard row vectors, and the breadth-first closure permutes the tuples of
Omega-indices of the elements' rows (Seress, Permutation Group Algorithms,
2.1), keeping each generator's right table and each element's BFS parent.
An element's left-multiplication table is read off the closure tree, and
conjugacy classes, centralizers and element orders come from such tables.
"""

from collections import namedtuple
from functools import partial
from math import gcd, lcm
from operator import mul

from .exact import InternalError, NotInvertible, integer_form, mat_det

DEFAULT_CAP = 100000


class CapExceeded(RuntimeError):
    """Closure grew past the cap; the generated group is too large or infinite."""


class OrderCapExceeded(RuntimeError):
    """A generator's order passed the cap or is provably infinite, e.g. a shear."""


def _check_square(mats):
    if not mats:
        raise ValueError("need at least one generator")
    n = len(mats[0])
    for M in mats:
        if len(M) != n or any(len(row) != n for row in M):
            raise ValueError("generators must be square matrices of equal size")
    return n


def max_finite_order(n):
    """Largest order m of a finite-order element of GL_n(Q).

    Its eigenvalue orders d_i have sum phi(d_i) <= n and lcm m, so the
    prime powers p^a exactly dividing m, 2 left out, have sum phi(p^a) <= n.
    A knapsack over the primes up to n + 1 finds the largest such m.
    """
    best = [1] * (n + 1)  # best[b]: largest m so far of cost at most b
    for p in range(2, n + 2):
        if any(p % q == 0 for q in range(2, p)):
            continue
        new = list(best)
        q = p
        while (cost := 0 if q == 2 else q - q // p) <= n:
            for b in range(cost, n + 1):
                new[b] = max(new[b], q * best[b - cost])
            q *= p
        best = new
    return best[n]


def minkowski_bound(n):
    """Minkowski's bound M(n) = prod_p p^(sum_k floor(n / (p^k (p - 1)))),
    k >= 0: the order of every finite subgroup of GL_n(Q) divides it.

    >>> [minkowski_bound(n) for n in range(1, 6)]
    [2, 24, 48, 5760, 11520]
    """
    bound = 1
    for p in range(2, n + 2):
        if any(p % q == 0 for q in range(2, p)):
            continue
        q = p - 1
        while q <= n:
            bound *= p ** (n // q)
            q *= p
    return bound


def _times(d, cols, row):
    # the row pair (e, x), the vector x / e, times N / d, N given by its
    # columns, as a row pair in lowest terms
    e, x = row
    y = tuple(sum(map(mul, x, col)) for col in cols)
    g = gcd(e * d, *y)
    return e * d // g, tuple(v // g for v in y)


def element_order(M, cap=DEFAULT_CAP):
    """Multiplicative order of M, the lcm of the lengths of the orbits of the
    standard row vectors under x -> x M; OrderCapExceeded past the cap, or
    past max_finite_order(n), where the order is known to be infinite."""
    n = len(M)
    bound = max_finite_order(n)
    d, N = integer_form(M)
    cols, order = tuple(zip(*N)), 1
    for i in range(n):
        start = (1, tuple(int(i == j) for j in range(n)))
        x, k = _times(d, cols, start), 1
        while x != start:
            x, k = _times(d, cols, x), k + 1
            if k > min(bound, cap):
                raise OrderCapExceeded("element has infinite order" if bound <= cap
                                       else "element order exceeds cap %d" % cap)
        order = lcm(order, k)
    if order > cap:
        raise OrderCapExceeded("element order exceeds cap %d" % cap)
    return order


def _closure(start, maps, limit, too_large):
    # breadth-first closure of start under maps: the points, each map's table
    # and each point's parent (i, k), point = maps[k](points[i])
    points, parents = list(start), [None] * len(start)
    index = {x: i for i, x in enumerate(points)}
    tables = [[] for _ in maps]
    for i, x in enumerate(points):  # points grows behind i, a BFS queue
        for k, f in enumerate(maps):
            y = f(x)
            if y not in index:
                index[y] = len(points)
                points.append(y)
                parents.append((i, k))
                if len(points) > limit:
                    raise CapExceeded(too_large)
            tables[k].append(index[y])
    return points, tables, parents


class MatrixGroup:
    """A finite subgroup of GL_n(Q), fully enumerated in closure order.

    elements[i] is the (d, N) pair of the i-th element, the matrix N / d;
    elements[0] is the identity; the rest follow breadth-first with the
    generators applied in their given order, so enumeration order (and with it
    every class representative downstream) is reproducible.  right[k][i] is
    the index of elements[i] times the k-th generator; parents[i] = (p, k)
    says that elements[i] = elements[p] times the k-th generator (i > 0).
    traces[i] = sum N_ii / d, the trace of elements[i], must be an integer.
    det_v[i] = det elements[i], the product along its BFS word of the
    generators' determinants, each read once and required to be +-1.
    """

    def __init__(self, n, elements, right, parents):
        self.n = n
        self.elements = tuple(elements)
        self.order = len(elements)
        self.right = right
        self.parents = parents
        traces = [divmod(sum(row[i] for i, row in enumerate(N)), d) for d, N in elements]
        if any(r for _, r in traces):
            raise InternalError("an element's trace is not an integer; "
                                "this is a bug, not bad input")
        self.traces = [t for t, _ in traces]
        dets = [mat_det(N) / d ** n for d, N in (self.elements[t[0]] for t in right)]
        if not set(dets) <= {1, -1}:
            raise InternalError("a generator's determinant is not +-1; "
                                "this is a bug, not bad input")
        dets = [int(x) for x in dets]
        self.det_v = [1]
        for p, k in parents[1:]:
            self.det_v.append(self.det_v[p] * dets[k])

    def left(self, u):
        """Left-multiplication table of u: left(u)[x] is the index of
        elements[u] * elements[x].  In closure order, u x = (u p) s for
        x = p s in the BFS tree, so the table costs |G| lookups."""
        table = [u]
        for p, k in self.parents[1:]:
            table.append(self.right[k][table[p]])
        return table

    def __repr__(self):
        return "MatrixGroup(n=%d, order=%d)" % (self.n, self.order)


def generate(generators, cap=DEFAULT_CAP):
    """Enumerate the group generated by exact rational matrices.

    Breadth-first closure under right multiplication by the generators, as
    permutations of Omega (its rows integer pairs (e, x) in lowest terms);
    the elements are kept as the (d, N) pairs of exact.integer_form.  Only
    the first copy of a repeated generator is kept, so right has one table
    per distinct generator.  Raises NotInvertible on a singular generator,
    OrderCapExceeded on an infinite-order generator (at once when its
    determinant is not +-1, before its order is walked), CapExceeded when the
    closure grows past the cap, or past minkowski_bound(n), where the group is
    known to be infinite, or Omega past n times that, as |Omega| <= n |G|.
    """
    n = _check_square(generators)
    bound = minkowski_bound(n)
    limit = min(bound, cap)
    too_large = ("group is infinite: it has more than %d elements, Minkowski's "
                 "bound for GL_%d(Q)" % (bound, n) if bound <= cap
                 else "group order exceeds cap %d" % cap)
    distinct = {}  # a later copy of a generator adds no product to the closure
    for g in generators:
        distinct.setdefault(integer_form(g), g)
    for g in distinct.values():
        det = mat_det(g)
        if not det:
            raise NotInvertible("matrix is singular")
        if det not in (1, -1):  # a finite-order matrix has det +-1
            raise OrderCapExceeded("element has infinite order")
        element_order(g, cap)
    units = [(1, tuple(int(i == j) for j in range(n))) for i in range(n)]
    steps = [partial(_times, d, tuple(zip(*N))) for d, N in distinct]
    rows, perms, _ = _closure(units, steps, n * limit, "%s: its orbit of row vectors "
                              "has over %d rows" % (too_large, n * limit))
    elements, right, parents = _closure(
        [tuple(range(n))], [lambda w, get=perm.__getitem__: tuple(map(get, w))
                            for perm in perms], limit, too_large)

    def pair(w):  # rows scaled to their lcm denominator, each row kept when d = e
        d = lcm(*(rows[x][0] for x in w))
        return d, tuple(y if e == d else tuple(v * (d // e) for v in y)
                        for e, y in map(rows.__getitem__, w))

    return MatrixGroup(n, [pair(w) for w in elements], right, parents)


# one conjugacy class as element indices: the representative g (its first
# member), the sorted members and centralizer, the order of g, and the
# centralizer as its <g>-cosets h, g h, ..., g^(order-1) h, each from its least index
ConjClass = namedtuple("ConjClass", "representative members centralizer order cosets")


def conjugacy_classes(G):
    """Partition of G into conjugacy classes, ordered by representative index.

    Works on element indices and returns them, with no matrix arithmetic.
    For a generator s, conjugation x -> s^-1 x s is the right table of s
    followed by the left table of s^-1.  If h = p s in the BFS tree then
    h^-1 g h = s^-1 (p^-1 g p) s, so one pass in closure order gives
    c[h] = h^-1 g h for every h: the class is the set of the c[h], sorted by
    index, and the centralizer the h with c[h] = g, so |class| * |centralizer|
    = |G|.  The order of g and the <g>-cosets of the centralizer are read off
    its left table.
    """
    conjugations = []
    for table in G.right:  # table[x] is x s, and table.index(0) is s^-1
        inverse = G.left(table.index(0))
        conjugations.append([inverse[y] for y in table])
    steps = [(p, conjugations[k]) for p, k in G.parents[1:]]
    classes, seen = [], set()
    for g in range(G.order):
        if g in seen:
            continue
        c = [g]
        for p, conj in steps:
            c.append(conj[c[p]])
        seen.update(c)
        power, order, x = G.left(g), 1, g
        while x:
            x, order = power[x], order + 1
        centralizer = tuple(h for h, y in enumerate(c) if y == g)
        cosets = {}  # walked in centralizer order, so each from its least index
        for h in centralizer:
            while h not in cosets:
                cosets[h], h = None, power[h]
        classes.append(ConjClass(g, tuple(sorted(set(c))), centralizer, order,
                                 tuple(cosets)))
    return classes
