"""The benchmark's workloads: job documents made from a seed.

Each job is a dict with the CLI `command`, the JSON job document `doc`, a
`name`, and what the checks need to know that the document does not say: the
group a quotient job presents (`group`: family and rank) and, for a conjugated
presentation, the name of the plain job it must agree with (`like`).

The seed picks only the conjugating matrices and the primes.  A conjugating
matrix is Q * P0 * R with Q, R seeded signed permutation matrices and P0 the
fixed integer matrix below: every seed writes the group in another rational
basis, while the arithmetic size of the entries stays that of P0.  A free draw
of small integer matrices made the oracle job's time vary from 10 to 16 s by
seed alone, more than the bounds the benchmark sets.
"""

import random
from fractions import Fraction

# det 3, so the conjugates have denominators and the oracle's projectors are
# dense rational matrices
P0 = ((1, 1, 0), (-1, 1, 1), (0, 1, 2))

# the primes between 80 and 110; two disjoint triples of them are drawn, which
# keeps the summed lcm of the two wps jobs within 8% of its mean across seeds
PRIMES = (83, 89, 97, 101, 103, 107, 109)

SETUP_JOB = {"name": "gamma-r2", "command": "gamma",
             "doc": {"command": "gamma", "r": 2}}

WORKLOADS = ("quotient-molien", "quotient-oracle", "circle-wps")


def signed_permutation(perm, signs):
    """The matrix sending e_i to signs[i] * e_perm[i]."""
    n = len(perm)
    M = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        M[j][i] = signs[i]
    return M


def coxeter_generators(family, n):
    """Adjacent transpositions, plus the sign change of x_1 for type B."""
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(signed_permutation(perm, [1] * n))
    if family == "B":
        gens.append(signed_permutation(list(range(n)), [-1] + [1] * (n - 1)))
    return gens


def _mul(A, B):
    return [[sum(Fraction(A[i][k]) * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def _inverse(A):
    n = len(A)
    rows = [[Fraction(x) for x in A[i]] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def conjugating_matrix(rng):
    n = len(P0)
    def draw():
        return signed_permutation(rng.sample(range(n), n),
                                  [rng.choice((1, -1)) for _ in range(n)])
    return _mul(_mul(draw(), P0), draw())


def conjugate(gens, P):
    """The generators P g P^-1, entries written as exact rational strings."""
    P_inv = _inverse(P)
    return [[[str(x) for x in row] for row in _mul(_mul(P, g), P_inv)]
            for g in gens]


def _quotient(name, family, n, gens, t_max, oracle=False, like=None):
    doc = {"command": "quotient", "generators": gens, "t_max": t_max}
    if oracle:
        doc["oracle"] = True
    job = {"name": name, "command": "quotient", "doc": doc,
           "group": [family, n]}
    if like:
        job["like"] = like
    return job


def build(workload, seed):
    """The jobs of one round of `workload`, in the order they run."""
    rng = random.Random(seed)
    if workload == "quotient-molien":
        return [
            _quotient("B4", "B", 4, coxeter_generators("B", 4), 10),
            _quotient("B3", "B", 3, coxeter_generators("B", 3), 10),
            _quotient("B3-conjugate", "B", 3,
                      conjugate(coxeter_generators("B", 3),
                                conjugating_matrix(rng)), 10, like="B3"),
        ]
    if workload == "quotient-oracle":
        return [
            _quotient("S4-oracle", "S", 4, coxeter_generators("S", 4), 6,
                      oracle=True),
            _quotient("B3-conjugate-oracle", "B", 3,
                      conjugate(coxeter_generators("B", 3),
                                conjugating_matrix(rng)), 5, oracle=True),
        ]
    if workload == "circle-wps":
        primes = rng.sample(PRIMES, 6)
        jobs = [{"name": "circle-n%d" % n, "command": "circle",
                 "doc": {"command": "circle", "n": n}} for n in (20, 24)]
        jobs.append({"name": "gamma-r12", "command": "gamma",
                     "doc": {"command": "gamma", "r": 12}})
        for weights in (primes[:3], primes[3:]):
            jobs.append({"name": "wps-" + "-".join(map(str, weights)),
                         "command": "wps",
                         "doc": {"command": "wps", "weights": weights}})
        return jobs
    raise ValueError("unknown workload %r; expected one of %s"
                     % (workload, ", ".join(WORKLOADS)))
