"""One-knob tolerance plumbing.

All degeneracy and verification tests in the package compare against
``tol(scale)`` = max(ABS_FLOOR, rel * scale), where ``scale`` is a
characteristic magnitude of the data entering the test.  The relative
tolerance defaults to 1e-9 (double precision with O(10) arithmetic depth).
``with tolerance(rel):`` sets it for one block, e.g. from the CLI ``--tol``
flag; it is a context variable, so other threads keep their own value.
A :class:`Check` records one such comparison and raises on failure.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

DEFAULT_REL_TOL = 1e-9
ABS_FLOOR = 1e-12

_rel_tol = ContextVar("rel_tol", default=DEFAULT_REL_TOL)


@contextmanager
def tolerance(rel: float):
    """Scope in which the relative tolerance is ``rel``, restored on exit.
    Raises ValueError unless 0 < rel < 1 (so for nan and inf too): at
    rel >= 1 the regularity threshold tol(1)^2 would reject every net."""
    rel = float(rel)
    if not 0.0 < rel < 1.0:
        raise ValueError(f"relative tolerance must be finite and in (0, 1), not {rel}")
    token = _rel_tol.set(rel)
    try:
        yield
    finally:
        _rel_tol.reset(token)


def tol(scale=1.0):
    """Absolute tolerance for a quantity of characteristic size ``scale``;
    elementwise for an array of scales."""
    rel = _rel_tol.get()
    if isinstance(scale, np.ndarray):
        return np.maximum(ABS_FLOOR, rel * np.abs(scale))
    return max(ABS_FLOOR, rel * abs(scale))


class Check(NamedTuple):
    """A residual ``value`` decided against its tolerance ``limit``, with
    the vertex, edge or face ``where`` the worst case sits (or None).

    The check holds when value <= limit, so a NaN value fails it.  A floor
    names in ``floor`` the measure that ``value`` is, which must exceed the
    tolerance ``limit``: it holds when value > limit, so it fails at
    equality and on NaN.  Printed, a check reads as the comparison came
    out: "drift (3 > 1)" fails and "drift (0.5 <= 1)" holds.
    """

    name: str
    value: float
    limit: float
    where: object = None
    floor: str = ""

    @property
    def ok(self) -> bool:
        if self.floor:
            return bool(self.value > self.limit)
        return bool(self.value <= self.limit)

    def __str__(self) -> str:
        at = "" if self.where is None else f" at {self.where}"
        measure = f"{self.floor} " if self.floor else ""
        sign = ">" if self.ok == bool(self.floor) else "<="  # a floor holds above its limit
        return f"{self.name} ({measure}{self.value:.3g} {sign} {self.limit:.3g}){at}"

    def require(self, error):
        """This check when it holds; else raises ``error(str(self), check=self)``."""
        if not self.ok:
            raise error(str(self), check=self)
        return self
