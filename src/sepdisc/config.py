"""The tolerance record, :class:`Tolerances`, and its ``SEPDISC_TOL`` override.

It holds the thresholds a caller may tune, which every decider, oracle and
solver takes as ``tol``; fixed bounds live beside the code that reads them,
as named constants (``states.ORTHONORMAL_BOUND``) or, so far, literals.
Instances are immutable; pass a modified copy (``dataclasses.replace``) to
tighten or loosen individual knobs.  The Dykstra solver's iteration cap is
not a tolerance and is set through ``decide(..., max_iterations=...)``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # rank / product detection, relative to the largest singular value
    rank: float = 1e-9
    # PSD slack for eigenvalue checks
    psd: float = 1e-9
    # allowed Hermiticity defect before an input is rejected
    hermiticity: float = 1e-8
    # angular tolerance for the anti-parallel eigenvalue test (radians)
    angular: float = 1e-8
    # Σλ = 1 identity
    concurrence_sum: float = 1e-8
    # feasibility solver: success threshold on the max constraint violation,
    # and the relative margin by which a dual certificate's objective must
    # be negative (both solver paths end at one or the other, or undecided)
    feasibility: float = 1e-7


DEFAULT = Tolerances()

ENV_TOL = "SEPDISC_TOL"


def from_env() -> Tolerances:
    """Return :data:`DEFAULT` with the rank/PSD tolerance overridden by
    $SEPDISC_TOL.

    The override is off by default; it only applies when the variable is set
    to a finite positive float (``nan`` and ``inf`` would make every rank
    and PSD comparison false).
    """
    try:
        value = float(os.environ[ENV_TOL])
    except (KeyError, ValueError):
        return DEFAULT
    if not 0.0 < value < float("inf"):
        return DEFAULT
    return dataclasses.replace(DEFAULT, rank=value, psd=value)
