"""One-knob tolerance plumbing.

All degeneracy and verification tests in the package compare against
``tol(scale)`` = max(ABS_FLOOR, rel * scale), where ``scale`` is a
characteristic magnitude of the data entering the test.  The relative
tolerance defaults to 1e-9 (double precision with O(10) arithmetic depth)
and can be overridden globally, e.g. from the CLI ``--tol`` flag.
"""

import numpy as np

DEFAULT_REL_TOL = 1e-9
ABS_FLOOR = 1e-12

_rel_tol = DEFAULT_REL_TOL


def set_tolerance(rel: float) -> None:
    """Override the global relative tolerance (must be positive)."""
    global _rel_tol
    if rel <= 0:
        raise ValueError("relative tolerance must be positive")
    _rel_tol = float(rel)


def get_tolerance() -> float:
    return _rel_tol


def reset_tolerance() -> None:
    global _rel_tol
    _rel_tol = DEFAULT_REL_TOL


def tol(scale=1.0):
    """Absolute tolerance for a quantity of characteristic size ``scale``;
    elementwise for an array of scales."""
    if isinstance(scale, np.ndarray):
        return np.maximum(ABS_FLOOR, _rel_tol * np.abs(scale))
    return max(ABS_FLOOR, _rel_tol * abs(scale))
