"""Finite matrix groups over Q.

Breadth-first closure from generators with hard caps, conjugacy classes with
centralizers, and the group exponent (lcm of the element orders).
"""

from collections import deque
from fractions import Fraction
from math import lcm

from .exact import mat_identity, mat_inv, mat_mul

DEFAULT_CAP = 100000


class CapExceeded(RuntimeError):
    """Closure grew past the cap; the generated group is too large or infinite."""


class OrderCapExceeded(RuntimeError):
    """A single element's order passed the cap, e.g. a shear of infinite order."""


def matrix_key(M):
    # tuple-of-tuples of Fractions, hashable and exact
    return tuple(tuple(Fraction(x) for x in row) for row in M)


def _check_square(mats):
    if not mats:
        raise ValueError("need at least one generator")
    n = len(mats[0])
    for M in mats:
        if len(M) != n or any(len(row) != n for row in M):
            raise ValueError("generators must be square matrices of equal size")
    return n


def element_order(M, cap=DEFAULT_CAP):
    """Multiplicative order of M, or OrderCapExceeded past the cap."""
    n = len(M)
    ident = mat_identity(n)
    P = matrix_key(M)
    k = 1
    while P != ident:
        P = matrix_key(mat_mul(P, M))
        k += 1
        if k > cap:
            raise OrderCapExceeded("element order exceeds cap %d" % cap)
    return k


class MatrixGroup:
    """A finite subgroup of GL_n(Q), fully enumerated in closure order.

    elements[0] is the identity; the rest follow breadth-first with the
    generators applied in their given order, so enumeration order (and with it
    every class representative downstream) is reproducible.
    """

    def __init__(self, n, generators, elements, exponent):
        self.n = n
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.order = len(elements)
        self.exponent = exponent
        self.index = {g: i for i, g in enumerate(elements)}

    def product(self, a, b):
        return matrix_key(mat_mul(a, b))

    def inverse(self, a):
        return matrix_key(mat_inv(a))

    def __contains__(self, M):
        return matrix_key(M) in self.index

    def __len__(self):
        return self.order

    def __repr__(self):
        return "MatrixGroup(n=%d, order=%d, exponent=%d)" % (self.n, self.order, self.exponent)


def generate(generators, cap=DEFAULT_CAP):
    """Enumerate the group generated by exact rational matrices.

    Breadth-first closure under right multiplication by the generators;
    inverses come for free once the closure is finite.  Raises NotInvertible
    on a singular generator, OrderCapExceeded on an infinite-order generator,
    CapExceeded when the closure itself grows past the cap.
    """
    gens = [matrix_key(M) for M in generators]
    n = _check_square(gens)
    for g in gens:
        mat_inv(g)  # raises NotInvertible on singular input
        element_order(g, cap)
    ident = mat_identity(n)
    elements = [ident]
    seen = {ident}
    queue = deque([ident])
    while queue:
        w = queue.popleft()
        for g in gens:
            p = matrix_key(mat_mul(w, g))
            if p not in seen:
                seen.add(p)
                elements.append(p)
                queue.append(p)
                if len(elements) > cap:
                    raise CapExceeded("group order exceeds cap %d" % cap)
    expo = 1
    for g in elements:
        expo = lcm(expo, element_order(g, cap))
    return MatrixGroup(n, gens, elements, expo)


class ConjClass:
    """One conjugacy class: earliest-enumerated representative, members, centralizer."""

    __slots__ = ("representative", "members", "centralizer")

    def __init__(self, representative, members, centralizer):
        self.representative = representative
        self.members = tuple(members)
        self.centralizer = tuple(centralizer)

    def __repr__(self):
        return "ConjClass(size=%d, centralizer=%d)" % (len(self.members), len(self.centralizer))


def conjugacy_classes(G):
    """Partition of G into conjugacy classes, ordered by representative index.

    Representative = first member in enumeration order; centralizers by direct
    commutation test.  |members| * |centralizer| = |G| per class.
    """
    inv = [G.inverse(h) for h in G.elements]
    assigned = [False] * G.order
    classes = []
    for i, g in enumerate(G.elements):
        if assigned[i]:
            continue
        member_idx = set()
        for j, h in enumerate(G.elements):
            c = G.product(G.product(h, g), inv[j])
            member_idx.add(G.index[c])
        members = [G.elements[k] for k in sorted(member_idx)]
        for k in member_idx:
            assigned[k] = True
        centralizer = [h for h in G.elements
                       if mat_mul(h, g) == mat_mul(g, h)]
        classes.append(ConjClass(g, members, centralizer))
    return classes
