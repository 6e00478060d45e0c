"""Acceptance gate: one test per shipped claim, time bounds included.

Every numeric target here is frozen from an independent route: closed-form
counts, inclusion-exclusion identities, the brute-force averaging oracle, or
committed golden bytes.  Nothing in this file derives expectations from the
code under test.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

from orbifold_hkr.circle import (central_complex, cover_homology,
                                 fiber_dimension, gamma_homology,
                                 generic_fiber_homology)
from orbifold_hkr.exact import rational_matrix
from orbifold_hkr.groups import conjugacy_classes
from orbifold_hkr.hkr import (brute_force_invariants, sector_hh_series,
                              sector_hhcoh_series)
from orbifold_hkr.sectors import (build_sector, derived_fixed_hilbert,
                                  shifted_tangent_hilbert)
from orbifold_hkr.wps import WeightedStack, hh_vector, inertia_components

GOLDEN = Path(__file__).parent / "golden"

F = Fraction


def test_01_football_hh0_is_p_plus_q():
    start = time.monotonic()
    for p, q in [(1, 1), (1, 7), (2, 3), (3, 5), (4, 7)]:
        assert hh_vector(WeightedStack((p, q))) == {0: p + q}
    assert time.monotonic() - start < 1.0


def _union_of_root_groups(weights):
    total = 0
    for r in range(1, len(weights) + 1):
        for S in combinations(range(len(weights)), r):
            g = 0
            for i in S:
                g = gcd(g, weights[i])
            total += (-1) ** (r + 1) * g
    return total


def test_02_weighted_counting_identity():
    rng = random.Random(20260816)
    start = time.monotonic()
    for _ in range(50):
        weights = tuple(rng.randint(1, 9)
                        for _ in range(rng.randint(1, 5)))
        W = WeightedStack(weights)
        assert hh_vector(W) == {0: sum(weights)}
        assert len(inertia_components(W)) == _union_of_root_groups(weights)
    assert time.monotonic() - start < 5.0


def test_03_homology_molien_matches_oracle(sweep_groups):
    start = time.monotonic()
    for G in sweep_groups.values():
        classes = conjugacy_classes(G)
        for cls in classes:
            sec = build_sector(G, cls, classes)
            series = sector_hh_series(sec, 6)
            for p in range(sec.fixed_dim + 1):
                for d in range(7):
                    assert series.coeff(p, d) == brute_force_invariants(
                        sec, p, d, "forms")
    assert time.monotonic() - start < 60.0


def test_04_cohomology_molien_matches_twisted_oracle(sweep_groups):
    for G in sweep_groups.values():
        classes = conjugacy_classes(G)
        for cls in classes:
            sec = build_sector(G, cls, classes)
            series = sector_hhcoh_series(sec, 6)
            for p in range(sec.fixed_dim + 1):
                for d in range(7):
                    assert series.coeff(p + sec.c_g, d) == brute_force_invariants(
                        sec, p, d, "polyvectors_twisted")


def test_05_derived_fixed_equals_shifted_tangent(sweep_groups):
    for G in sweep_groups.values():
        classes = conjugacy_classes(G)
        for cls in classes:
            sec = build_sector(G, cls, classes)
            want = shifted_tangent_hilbert(sec, 6)
            for g in cls.members:
                assert derived_fixed_hilbert(rational_matrix(*G.elements[g]), 6) == want


def test_06_s3_invariant_ring_dimensions(sweep_groups):
    G = sweep_groups["S3 permutation on A3"]
    classes = conjugacy_classes(G)
    sec = build_sector(G, classes[0], classes)
    series = sector_hh_series(sec, 5)
    assert series.row(0) == (F(1), F(1), F(2), F(3), F(4), F(5))


def test_07_cofiber_and_cover_homology():
    start = time.monotonic()
    for r in range(2, 13):
        assert gamma_homology(r) == ((1, ()), (0, (r,)), (0, ()))
        assert cover_homology(r) == ((1, ()), (0, ()), (r - 1, ()))
    assert time.monotonic() - start < 1.0


def test_08_filtered_circle_sweep():
    start = time.monotonic()
    for n in range(2, 13):
        assert fiber_dimension(n) == n
        assert fiber_dimension(n, at_zero=True) == n
        rep = central_complex(n)
        assert (rep.h0, rep.h1, rep.trivial) == (1, 1, True)
        assert generic_fiber_homology(n) == (1, 1)
    assert time.monotonic() - start < 2.0


def _run_job(job_path):
    with open(job_path, "r", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        [sys.executable, "-m", "orbifold_hkr", command, "--spec", str(job_path)],
        capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_09_golden_jobs_are_deterministic():
    jobs = sorted(GOLDEN.glob("*.job.json"))
    assert jobs, "no golden jobs committed"
    for job in jobs:
        first = _run_job(job)
        second = _run_job(job)
        assert first == second, "%s: consecutive runs differ" % job.name
        expected = job.with_name(job.name.replace(".job.json", ".expected.json"))
        assert first == expected.read_bytes(), "%s: drift from frozen bytes" % job.name
