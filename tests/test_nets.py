"""Isothermic nets: verification, Moutard lifts, vertex stars, connections,
and Calapso transforms."""

import dataclasses

import numpy as np
import pytest

from conftest import darboux_stacked_net
from isothermic import catalog
from isothermic.errors import NonConcircularFace, NonFiniteLift, NotFlat, PoleParameter
from isothermic.grids import EdgeFunction, VertexField, edge_stacks, face_stack
from isothermic.minkowski import cross_ratios, euclidean_lift, euclidean_point, minkowski_inner
from isothermic.nets import (
    calapso,
    circle_identity_check,
    edge_connection,
    face_holonomy,
    face_regularity,
    holonomy_residual,
    moutard_check,
    moutard_lift,
    verify_isothermic,
    vertex_star_cospherical,
)
from isothermic.revolution import RotationProfile, revolution_lift


def test_verify_planar_grid():
    net = catalog.planar_grid_net(4, 4)
    report = verify_isothermic(net.lifts)
    assert report.ok
    np.testing.assert_allclose(cross_ratios(face_stack(net.lifts.data)), -1.0, rtol=1e-12)
    # deterministic gauge: all cross ratios negative -> v[0] = -1, u positive
    assert report.weights.v[0] == -1.0
    assert np.all(report.weights.u > 0)
    # reconstruction matches the stored weights up to one global factor
    ratio = net.weights.u / report.weights.u
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
    np.testing.assert_allclose(net.weights.v / report.weights.v, ratio[0], rtol=1e-12)


def test_verify_revolution_net():
    net = revolution_lift(np.array([0.0, 0.35, 0.62, 1.0]),
                          np.array([1.0, 1.2, 0.9, 1.1]),
                          RotationProfile.uniform(5, 0.7))
    report = verify_isothermic(net.lifts)
    assert report.ok
    # the Moutard products <F_i, F_j> realize the stored weights exactly
    for (Fi, Fj), a in zip(edge_stacks(net.lifts.data), net.weights.stacks()):
        np.testing.assert_allclose(minkowski_inner(Fi, Fj), np.broadcast_to(a, Fi.shape[:2]),
                                   rtol=1e-12)
    net.validate()


def test_verify_detects_perturbation(rng):
    net = catalog.cylinder_net(4, 4, 0.4, 0.8)
    pts = euclidean_point(net.lifts.data)
    pts[2, 1] += 1e-3 * np.array([1.0, 1.0, 0.5]) / np.linalg.norm([1.0, 1.0, 0.5])
    bad = VertexField(net.domain, euclidean_lift(pts))
    with pytest.raises(NonConcircularFace):
        verify_isothermic(bad)
    report = verify_isothermic(bad, strict=False)
    assert not report.ok


def test_moutard_lift_idempotent(rng):
    net = catalog.random_moutard_net(rng, 4, 4)
    again = moutard_lift(net.lifts, net.weights)
    np.testing.assert_allclose(again.data, net.lifts.data, atol=1e-10)


def test_moutard_lift_of_zigzag():
    net = catalog.zigzag_net(3, 3, 0.7, 0.4, 0.8, n_start=-1)
    zz = catalog.zigzag_quantity(net)
    Z = zz.coeffs[:, :, 1, :]
    # the alternating lift realizes the weights 2a through its products
    dom = net.domain
    zf = VertexField(dom, Z)
    for e in dom.edges():
        prod = float(minkowski_inner(zf[e[0]], zf[e[1]]))
        assert prod == pytest.approx(2.0 * net.weight(e), rel=1e-12)
    assert moutard_check(zf).ok
    # moutard_lift with those products and the matching corner reproduces it
    doubled = EdgeFunction(dom, 2.0 * net.weights.u, 2.0 * net.weights.v)
    rebuilt = moutard_lift(zf, doubled)
    np.testing.assert_allclose(rebuilt.data, Z, atol=1e-12)


@pytest.mark.parametrize("N", [48, 64, 128])
def test_moutard_lift_of_fine_cylinders(N):
    # the cylinder's own weights factor it at every size; a fill of the
    # Moutard equation from its boundary missed them by 19.3 at N = 48
    net = catalog.cylinder_net(N, N, 2.0 / N, 2.0 * np.pi / N)
    lifted = moutard_lift(net.lifts, net.weights)
    assert np.array_equal(lifted[(0, 0)], net.lifts[(0, 0)])
    for (Fi, Fj), a in zip(edge_stacks(lifted.data), net.weights.stacks()):
        np.testing.assert_allclose(minkowski_inner(Fi, Fj), np.broadcast_to(a, Fi.shape[:2]),
                                   rtol=1e-9)
    check = moutard_check(lifted)
    assert check.ok and check.value < 1e-13


def test_nets_are_built_once():
    net = catalog.cylinder_net(3, 4, 0.5, 0.9)
    assert net.revolution is not None
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.revolution = None
    # equality stays by identity
    assert net == net and net != catalog.cylinder_net(3, 4, 0.5, 0.9)
    # the zigzag quantity reads alpha and the column parity off the lifts,
    # which on a 5-column cylinder do not alternate
    with pytest.raises(ValueError):
        catalog.zigzag_quantity(catalog.cylinder_net(3, 5, 0.5, 0.9))


def test_moutard_lift_diagonal_parallelism(rng):
    net = catalog.random_moutard_net(rng, 4, 5)
    check = moutard_check(net.lifts)
    assert check.ok and check.value < 1e-12
    # rank oracle: stack the two diagonal differences per face
    for face in net.domain.faces():
        i, j, k, l = face
        D = np.stack([net.lifts[k] - net.lifts[i], net.lifts[j] - net.lifts[l]])
        s = np.linalg.svd(D, compute_uv=False)
        assert s[1] / s[0] < 1e-12


def test_moutard_check_fails_for_euclidean_lifts(rng):
    net = catalog.random_moutard_net(rng, 4, 4)
    pts = euclidean_point(net.lifts.data)
    euclid = VertexField(net.domain, euclidean_lift(pts))
    check = moutard_check(euclid)
    assert not check.ok
    assert check.value > 1e-4


def test_moutard_check_revolution_cylinder():
    net = revolution_lift(0.4 * np.arange(4), np.ones(4),
                          RotationProfile.uniform(4, np.pi / 2))
    assert moutard_check(net.lifts).ok
    assert np.allclose(net.weights.v, -1.0)  # -2 sin^2(pi/4)
    assert np.allclose(net.weights.u, 0.4 ** 2 / 2.0)


def test_vertex_star_cospherical(rng):
    # any isothermic net: diagonal star cospherical at interior vertices
    net = darboux_stacked_net(rng, 4, 4)
    for v in net.domain.interior_vertices():
        diagonal, _, _ = vertex_star_cospherical(net.lifts, v)
        assert diagonal.ok and diagonal.where == v
    # spherical net: axis star cospherical too, with the plane's normal
    planar = catalog.planar_grid_net(4, 4)
    diagonal, axis, sphere = vertex_star_cospherical(planar.lifts, (1, 1))
    assert diagonal.ok and axis.ok
    np.testing.assert_allclose(sphere, [0, 0, 0, 1, 0], atol=1e-12)
    # generic non-spherical isothermic net: axis star not cospherical
    cyl = catalog.cylinder_net(4, 4, 0.5, 0.9)
    diagonal, axis, _ = vertex_star_cospherical(cyl.lifts, (2, 2))
    assert diagonal.ok and not axis.ok


def test_edge_connection_basics(rng):
    net = catalog.cylinder_net(4, 4, 0.35, 0.8)
    e = ((1, 1), (2, 1))
    np.testing.assert_allclose(edge_connection(net, 0.0, e), np.eye(5), atol=1e-14)
    for lam in rng.uniform(-2, 2, 5):
        M = edge_connection(net, lam, e)
        Minv = edge_connection(net, lam, (e[1], e[0]))
        np.testing.assert_allclose(M @ Minv, np.eye(5), atol=1e-11)
    with pytest.raises(PoleParameter):
        edge_connection(net, 1.0 / net.weight(e), e)


def test_face_holonomy_flatness(rng):
    net = darboux_stacked_net(rng, 4, 4)
    lams = rng.uniform(-0.5, 0.5, 20)
    assert holonomy_residual(net, lams) < 1e-9


def test_circle_identity(rng):
    sq = [euclidean_lift(np.array(p, dtype=float))
          for p in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]]
    assert circle_identity_check(*sq, a=1.0, b=-1.0, lam=0.0) < 1e-14
    assert circle_identity_check(*sq, a=1.0, b=-1.0, lam=0.3) < 1e-10
    # random concircular quadruples via the circle parametrization
    from isothermic.minkowski import cross_ratio_apply

    for _ in range(5):
        zs = rng.normal(size=3) + 1j * rng.normal(size=3)
        q = rng.uniform(1.5, 3.0)
        p1, p2, p4 = (euclidean_lift(np.array([z.real, z.imag, 0.0])) for z in zs)
        p3 = cross_ratio_apply(q, p2, p4, p1)
        # cross ratio q = a/b with the split (a, b) = (q, 1)
        for lam in rng.uniform(-0.4, 0.4, 10):
            assert circle_identity_check(p1, p2, p3, p4, a=q, b=1.0, lam=lam) < 1e-9


def test_calapso_identity_and_transform(rng):
    net = catalog.cylinder_net(4, 4, 0.3, np.pi / 4)
    frame, transformed = calapso(net, 0.0)
    np.testing.assert_allclose(frame.frames.data[2, 2], np.eye(5), atol=1e-14)
    np.testing.assert_allclose(transformed.lifts.data, net.lifts.data, atol=1e-14)

    mu = 0.6
    frame, transformed = calapso(net, mu)
    rep = verify_isothermic(transformed.lifts)
    assert rep.ok
    # the reconstructed weights match a/(1 - mu a) up to one global factor
    target = net.weights.calapso_shifted(mu)
    ratio = target.u / rep.weights.u
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)
    np.testing.assert_allclose(target.v / rep.weights.v, ratio[0], rtol=1e-9)


def test_calapso_group_property():
    net = catalog.cylinder_net(4, 4, 0.3, np.pi / 4)
    mu, lam = 0.4, 0.3
    f1, net_mu = calapso(net, mu)
    f2, _ = calapso(net_mu, lam)
    f3, _ = calapso(net, mu + lam)
    C = None
    for v in net.domain.vertices():
        this = f3.frames[v] @ np.linalg.inv(f2.frames[v] @ f1.frames[v])
        C = this if C is None else C
        np.testing.assert_allclose(this, C, atol=1e-11)


def test_calapso_rejects_non_isothermic(rng):
    net = catalog.cylinder_net(4, 4, 0.4, 0.8)
    pts = euclidean_point(net.lifts.data)
    pts[1, 2] += 2e-3 * np.array([0.0, 1.0, 0.0])
    bad = net.with_lifts(VertexField(net.domain, euclidean_lift(pts)))
    with pytest.raises(NotFlat):
        calapso(bad, 0.7)


def test_flatness_residual_grows_with_perturbation(rng):
    net = darboux_stacked_net(rng, 4, 4)
    lams = rng.uniform(-0.5, 0.5, 20)
    base = holonomy_residual(net, lams)
    assert base < 1e-9
    pts = euclidean_point(net.lifts.data)
    direction = rng.normal(size=3)
    pts[2, 2] += 1e-3 * direction / np.linalg.norm(direction)
    pert = net.with_lifts(VertexField(net.domain, euclidean_lift(pts)))
    worst = 0.0
    for face in pert.domain.faces():
        if (2, 2) in face:
            worst = max(worst, max(
                float(np.abs(face_holonomy(pert, float(lam), face) - np.eye(5)).max())
                for lam in lams))
    assert worst > 1e-5


def test_moutard_lift_determines_cross_ratio(rng):
    # for Moutard-normalized lifts the face cross ratio is the ratio of the
    # edge products
    net = catalog.random_moutard_net(rng, 4, 4)
    F = face_stack(net.lifts.data)
    expected = minkowski_inner(F[:, :, 0], F[:, :, 1]) / minkowski_inner(F[:, :, 0], F[:, :, 3])
    np.testing.assert_allclose(cross_ratios(F), expected, rtol=1e-10)


def test_edge_connection_pole_and_calapso_pole():
    net = catalog.cylinder_net(3, 3, 0.4, 0.8)
    e = ((0, 0), (1, 0))
    mu_pole = 1.0 / net.weight(e)
    with pytest.raises(PoleParameter):
        calapso(net, mu_pole)


def test_verify_rejects_irregular_face():
    from isothermic.errors import GeometryError

    net = catalog.cylinder_net(3, 3, 0.4, 0.8)
    lifts = net.lifts.data.copy()
    lifts[1, 1] = 1.001 * lifts[1, 0]  # nearly dependent with a neighbour
    bad = VertexField(net.domain, lifts)
    report = verify_isothermic(bad, strict=False)
    assert not report.ok and "dependent" in report.check.name
    with pytest.raises(GeometryError):
        verify_isothermic(bad)


def test_verify_accepts_thin_faces():
    # faces about 200 times longer than wide: the regularity
    # min |<ij>| / max |<ij>| is quadratic in that ratio (about 2e-5 here)
    # and its threshold is quadratic too
    net = catalog.cylinder_net(4, 4, 0.004, 0.9)
    assert net.validate() <= 1e-12
    report = verify_isothermic(net.lifts)
    assert report.ok and 1e-5 < report.min_regularity < 1e-4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("check", [moutard_check, face_regularity, verify_isothermic])
def test_non_finite_lift_is_named(check, bad):
    """A lift built in memory with a NaN or infinite entry raises NonFiniteLift
    naming its vertex, not numpy's LinAlgError from the SVD (moutard_check),
    a regularity of 0 (face_regularity) or a report of dependent lifts."""
    net = catalog.cylinder_net(4, 4, 0.3, 0.7)
    lifts = net.lifts.data.copy()
    lifts[1, 2, 3] = bad
    with pytest.raises(NonFiniteLift, match=r"lift at index \(1, 2\) is not finite"):
        check(VertexField(net.domain, lifts))
