"""Finite matrix groups over Q.

An element is its index in closure order, and the matrix behind index i is
the integer pair elements[i] = (d, N) of exact.integer_form, M = N / d.
The breadth-first closure is the only place that multiplies those pairs; it
keeps each generator's right-multiplication table and each element's BFS
parent.  Every other product is an index lookup: an element's
left-multiplication table is read off the closure tree, and conjugacy
classes, centralizers and element orders come from such tables.
"""

from collections import namedtuple

from .exact import (InternalError, int_mat_mul, integer_form, inverse_pair, lowest_terms,
                    mat_identity)

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


def _product(a, b):
    return lowest_terms(a[0] * b[0], int_mat_mul(a[1], b[1]))


def element_order(M, cap=DEFAULT_CAP):
    """Multiplicative order of M; OrderCapExceeded past the cap, or past
    max_finite_order(n), where the order is known to be infinite."""
    n = len(M)
    bound = max_finite_order(n)
    ident = integer_form(mat_identity(n))
    P = M = integer_form(M)
    k = 1
    while P != ident:
        P = _product(P, M)
        k += 1
        if k > bound:
            raise OrderCapExceeded("element has infinite order")
        if k > cap:
            raise OrderCapExceeded("element order exceeds cap %d" % cap)
    return k


class MatrixGroup:
    """A finite subgroup of GL_n(Q), fully enumerated in closure order.

    elements[i] is the (d, N) pair of the i-th element, the matrix N / d;
    elements[0] is the identity; the rest follow breadth-first with the
    generators applied in their given order, so enumeration order (and with it
    every class representative downstream) is reproducible.  right[k][i] is
    the index of elements[i] times the k-th generator; parents[i] = (p, k)
    says that elements[i] = elements[p] times the k-th generator (i > 0).
    traces[i] = sum N_ii / d, the trace of elements[i], must be an integer.
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

    Breadth-first closure under right multiplication by the generators, on
    the integer (d, N) pairs of exact.integer_form, which key the index and
    are kept as the elements; inverses come for free once the closure is
    finite.  Only the first copy of a repeated generator is kept, so right
    has one table per distinct generator.  Raises NotInvertible on a singular
    generator, OrderCapExceeded on an infinite-order generator, CapExceeded
    when the closure itself grows past the cap, or past minkowski_bound(n),
    where the group is known to be infinite.
    """
    n = _check_square(generators)
    bound = minkowski_bound(n)
    distinct = {}  # a later copy of a generator adds no product to the closure
    for g in generators:
        distinct.setdefault(integer_form(g), g)
    for g in distinct.values():
        inverse_pair(g)  # raises NotInvertible on singular input
        element_order(g, cap)
    gens = list(distinct)
    elements = [integer_form(mat_identity(n))]
    index = {elements[0]: 0}
    parents = [None]
    right = [[] for _ in gens]
    for i, w in enumerate(elements):  # elements grows behind i, a BFS queue
        for k, g in enumerate(gens):
            p = _product(w, g)
            if p not in index:
                index[p] = len(elements)
                elements.append(p)
                parents.append((i, k))
                if len(elements) > bound:
                    raise CapExceeded("group is infinite: it has more than %d "
                                      "elements, Minkowski's bound for GL_%d(Q)"
                                      % (bound, n))
                if len(elements) > cap:
                    raise CapExceeded("group order exceeds cap %d" % cap)
            right[k].append(index[p])
    return MatrixGroup(n, elements, right, parents)


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
