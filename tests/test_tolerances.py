"""The tolerance scope: its range, its isolation between threads and its
restoration on exit; the check record that decides against it."""

import re
import threading

import numpy as np
import pytest

from isothermic import catalog
from isothermic.conserved import ConservedQuantity, pcq_verify
from isothermic.errors import GeometryError, NotConserved
from isothermic.grids import EdgeFunction, VertexField
from isothermic.minkowski import hyperbolic_point
from isothermic.nets import IsothermicNet
from isothermic.revolution import RotationProfile, build_revolution_cmc
from isothermic.tolerances import DEFAULT_REL_TOL, Check, tol, tolerance


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


def test_check_decides_and_raises_with_itself():
    held = Check("path dependence", 1e-12, tol(1.0), ((0, 1), (1, 1)))
    assert held.ok and held.require(NotConserved) is held
    failed = held._replace(value=2.5e-7)
    assert not failed.ok
    assert str(failed) == "path dependence (2.5e-07 > 1e-09) at ((0, 1), (1, 1))"
    assert str(Check("drift", 3.0, 1.0)) == "drift (3 > 1)"
    with pytest.raises(NotConserved) as got:
        failed.require(NotConserved)
    assert got.value.check is failed and str(got.value) == str(failed)
    # a floor fails when the measure only reaches the tolerance
    floor = tol(1.0) ** 2
    assert not Check("floor", floor, np.nextafter(floor, -np.inf)).ok
    assert Check("floor", floor, np.nextafter(np.nextafter(floor, 1.0), -np.inf)).ok


@pytest.mark.parametrize("bad", [float("nan"), np.float64("nan")])
def test_a_nan_residual_fails_its_check(bad):
    assert not Check("residual", bad, 1.0).ok
    with pytest.raises(GeometryError):
        Check("residual", bad, 1.0).require(GeometryError)


def test_nan_data_fail_validation_and_invariants():
    # the NaN residual on one edge must not be dropped by the fold over edges
    net = catalog.cylinder_net(4, 5, 0.3, 0.7)
    u = net.weights.u.copy()
    u[1] = np.nan
    with pytest.raises(GeometryError, match="net fails validation") as got:
        IsothermicNet(net.lifts, EdgeFunction(u, net.weights.v)).validate()
    assert np.isnan(got.value.check.value)
    assert got.value.check.where == ((1, 0), (2, 0), (2, 1), (1, 1))  # the first face it spoils
    coeffs = catalog.cylinder_quantity(net).coeffs.copy()
    for index in ((2, 3, 1, 0), (1, 1, 0, 4)):
        bad = coeffs.copy()
        bad[index] = np.nan
        with pytest.raises(NotConserved):
            ConservedQuantity(IsothermicNet(net.lifts, net.weights), bad)


def test_a_floor_reads_as_its_measure_and_fails_at_equality():
    floor = tol(1.0) ** 2
    above = Check("a face has three nearly dependent lifts", 2 * floor, floor, floor="regularity")
    assert above.ok
    assert str(above._replace(value=0.0)) == (
        "a face has three nearly dependent lifts (regularity 0 <= 1e-18)")
    assert not above._replace(value=floor).ok
    assert not above._replace(value=float("nan")).ok


def test_a_check_that_holds_reads_as_holding():
    """The quantity of a revolution net with lifts rescaled along the
    rotation passes its edge condition, and its check says so."""
    net, cq = build_revolution_cmc(np.array([1.0, 0.0, 0.0]), 0.3, hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 2,
                                   RotationProfile.uniform(8, np.pi / 4))
    scales = np.linspace(0.5, 2.0, net.domain.cols)
    check = pcq_verify(IsothermicNet(VertexField(net.lifts.data * scales[None, :, None]),
                                     net.weights), cq)
    assert check.ok
    assert re.fullmatch(r"edge condition of the conserved quantity \(\S+ <= 1e-09\)", str(check))
    assert str(Check("drift", 0.5, 1.0, (2, 3))) == "drift (0.5 <= 1) at (2, 3)"


def test_a_floor_that_holds_reads_as_holding():
    floor = tol(1.0) ** 2
    held = Check("a face has three nearly dependent lifts", 0.25, floor, floor="regularity")
    assert held.ok
    assert str(held) == "a face has three nearly dependent lifts (regularity 0.25 > 1e-18)"
