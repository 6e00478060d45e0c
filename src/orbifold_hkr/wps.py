"""Weighted projective stacks P(a_0, ..., a_n).

The inertia stack has one component per root of unity that fixes some
coordinate; each component is itself a weighted projective stack on the
coordinates it fixes.  Diagonal Hodge numbers then put all of Hochschild
homology in degree zero with total dimension sum(a_i).
"""

from math import lcm


class WeightedStack:
    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(weights)
        if not ws or any(not isinstance(a, int) or isinstance(a, bool) or a < 1
                         for a in ws):
            raise ValueError("weights must be a nonempty tuple of positive integers")
        self.weights = ws

    @property
    def dim(self):
        return len(self.weights) - 1

    def __repr__(self):
        return "WeightedStack%r" % (self.weights,)


class InertiaComponent:
    """One inertia component: the root zeta_N^k and the coordinates it fixes."""

    __slots__ = ("order", "k", "support", "component_weights")

    def __init__(self, order, k, support, component_weights):
        self.order = order
        self.k = k
        self.support = tuple(support)
        self.component_weights = tuple(component_weights)

    @property
    def dimension(self):
        return len(self.support) - 1

    def __repr__(self):
        return "InertiaComponent(zeta_%d^%d, support=%r)" % (
            self.order, self.k, self.support)


def inertia_components(stack):
    """Components of the inertia stack, ordered by k ascending.

    With N = lcm of the weights, the k-th component exists when the root
    zeta_N^k fixes at least one coordinate, i.e. N divides k * a_i for some i.
    The roots fixing coordinate i are mu_{a_i} = {zeta_N^(j N / a_i)}, so the
    components come from the union of these, in O(sum a_i) steps.

    >>> [c.dimension for c in inertia_components(WeightedStack((2, 3)))]
    [1, 0, 0, 0]
    """
    ws = stack.weights
    N = lcm(*ws)
    supports = {}
    for i, a in enumerate(ws):
        step = N // a
        for j in range(a):
            supports.setdefault(j * step, []).append(i)
    return [InertiaComponent(N, k, supports[k], tuple(ws[i] for i in supports[k]))
            for k in sorted(supports)]


def hh_vector(stack):
    """Hochschild homology dimensions {i: dim HH_i}.

    Each component contributes its Hodge numbers along i = p - q, and for a
    weighted projective stack those are diagonal (h^{p,q} = 1 when p = q <=
    dimension, else 0), so everything lands in i = 0:

    >>> hh_vector(WeightedStack((1, 1)))
    {0: 2}
    >>> hh_vector(WeightedStack((2, 3)))
    {0: 5}
    """
    return {0: sum(c.dimension + 1 for c in inertia_components(stack))}
