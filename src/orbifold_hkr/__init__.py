"""Exact Hochschild invariants of orbifolds.

Finite linear quotients [A^n / G] sector by sector (Molien series against a
brute-force oracle), weighted projective stacks in closed form, and
chain-level verifiers for the filtered circle.  All arithmetic is exact:
rationals and integer Smith normal form; no floats anywhere.
"""

__version__ = "0.1.0"

from .circle import (CentralReport, ChainComplex, central_complex,
                     cover_homology, fiber_dimension, gamma_homology,
                     generic_fiber_homology)
from .exact import (BadRational, BiSeries, CapExceeded, InternalError,
                    NotInvertible, det_series_factor, parse_rational,
                    smith_normal_form)
from .groups import ConjClass, MatrixGroup, conjugacy_classes, generate
from .hkr import (HHReport, brute_force_invariants, full_report,
                  oracle_verdict, sector_hh_series, sector_hhcoh_series)
from .sectors import (Sector, build_sector, derived_fixed_hilbert,
                      shifted_tangent_hilbert)
from .wps import InertiaComponent, WeightedStack, hh_vector, inertia_components
