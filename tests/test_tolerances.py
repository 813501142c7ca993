"""The tolerance scope: its range, its isolation between threads and its
restoration on exit."""

import threading

import pytest

from isothermic.tolerances import DEFAULT_REL_TOL, tol, tolerance


@pytest.mark.parametrize("rel", [-1.0, 0.0, 1.0, 1e300, float("inf"), float("nan")])
def test_tolerance_outside_unit_interval_raises(rel):
    with pytest.raises(ValueError):
        with tolerance(rel):
            pass
    assert tol(1.0) == DEFAULT_REL_TOL


def test_tolerance_scope_is_isolated():
    barrier = threading.Barrier(2, timeout=10)
    seen = []

    def other_thread():
        barrier.wait()  # the main thread is inside its scope from here on
        seen.append(tol(1.0))
        barrier.wait()  # ... until here

    worker = threading.Thread(target=other_thread)
    worker.start()
    with tolerance(1e-3):
        barrier.wait()
        assert tol(1.0) == 1e-3
        barrier.wait()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [DEFAULT_REL_TOL]
    assert tol(1.0) == DEFAULT_REL_TOL

    with pytest.raises(RuntimeError):
        with tolerance(1e-3):
            assert tol(1.0) == 1e-3
            raise RuntimeError("inside the scope")
    assert tol(1.0) == DEFAULT_REL_TOL
