"""Isothermic nets: verification, Moutard lifts, vertex stars, connections,
and Calapso transforms."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import centred_zigzag, darboux_stacked_net
from isothermic import catalog, nets, revolution
from isothermic.errors import (
    DegenerateEdge,
    DegeneratePoints,
    NonConcircularFace,
    NonFiniteLift,
    NotFlat,
    PoleParameter,
)
from isothermic.grids import EdgeFunction, VertexField, edge_stacks, face_stack
from isothermic.minkowski import cross_ratios, euclidean_lift, euclidean_point, minkowski_inner
from isothermic.nets import (
    IsothermicNet,
    calapso,
    edge_connections,
    face_regularity,
    holonomy_residual,
    moutard_check,
    moutard_lift,
    verify_isothermic,
    vertex_star_cospherical,
)
from isothermic.revolution import RotationProfile, revolution_lift
from isothermic.tolerances import tol
from reference import (
    circle_identity_check,
    edge_connection,
    face_holonomy,
    faces,
    interior_vertices,
    random_moutard_net,
    weight,
)


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
    for vertex in ((2, 1), (0, 0), (3, 3), (1, 3)):
        pts = euclidean_point(net.lifts.data)
        pts[vertex] += 1e-3 * np.array([1.0, 1.0, 0.5]) / np.linalg.norm([1.0, 1.0, 0.5])
        bad = VertexField(euclidean_lift(pts))
        with pytest.raises(NonConcircularFace):
            verify_isothermic(bad)
        check = verify_isothermic(bad, strict=False).check
        # the check names a face of the moved vertex
        assert not check.ok and vertex in check.where and check.where in set(faces(net.domain))
        assert str(check).endswith(f" at {check.where}")


def test_product_one_check_names_the_vertex_of_its_four_faces(rng):
    # on points of one circle every face is concircular, and the cross
    # ratios fail the product-one condition around the interior vertices
    angles = rng.permutation(np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)).reshape(3, 4)
    pts = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
    lifts = VertexField(euclidean_lift(pts))
    check = verify_isothermic(lifts, strict=False).check
    assert check.name == "cross ratios fail the 3x3 product-one condition"
    r = cross_ratios(face_stack(lifts.data)).real
    defect = {(m, n): abs(r[m, n - 1] / r[m, n] * (r[m - 1, n] / r[m - 1, n - 1]) - 1.0)
              for m, n in interior_vertices(lifts.domain)}
    assert check.where == max(defect, key=defect.get)
    assert check.value == pytest.approx(defect[check.where], rel=1e-12)


def test_moutard_lift_idempotent(rng):
    net = random_moutard_net(rng, 4, 4)
    again = moutard_lift(net.lifts, net.weights)
    np.testing.assert_allclose(again.data, net.lifts.data, atol=1e-10)


def test_moutard_lift_refuses_a_vanishing_edge_product():
    """Two coincident lightlike lifts have product 0, so no scale meets the
    weight of their edge."""
    net = catalog.planar_grid_net(3, 3)
    lifts = net.lifts.data.copy()
    lifts[1, 1] = lifts[1, 0]
    with pytest.raises(DegenerateEdge, match=re.escape(
            "vanishing inner product on edge ((1, 0), (1, 1))")):
        moutard_lift(VertexField(lifts), net.weights)


def test_moutard_lift_of_zigzag():
    net = centred_zigzag(3, 3, 0.7, 0.4, 0.8)
    zz = catalog.zigzag_quantity(net)
    Z = zz.coeffs[:, :, 1, :]
    # the alternating lift realizes the weights 2a through its products
    dom = net.domain
    zf = VertexField(Z)
    for (Zi, Zj), a in zip(edge_stacks(Z), net.weights.stacks()):
        np.testing.assert_allclose(minkowski_inner(Zi, Zj), np.broadcast_to(2.0 * a, Zi.shape[:2]),
                                   rtol=1e-12)
    assert moutard_check(zf).ok
    # moutard_lift with those products and the matching corner reproduces it
    doubled = EdgeFunction(2.0 * net.weights.u, 2.0 * net.weights.v)
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
    assert [field.name for field in dataclasses.fields(net)] == ["lifts", "weights"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.weights = None
    # equality stays by identity
    assert net == net and net != catalog.cylinder_net(3, 4, 0.5, 0.9)
    # the zigzag quantity reads alpha and the column parity off the lifts,
    # which on a 5-column cylinder do not alternate
    with pytest.raises(ValueError):
        catalog.zigzag_quantity(catalog.cylinder_net(3, 5, 0.5, 0.9))


def test_moutard_lift_diagonal_parallelism(rng):
    net = random_moutard_net(rng, 4, 5)
    check = moutard_check(net.lifts)
    assert check.ok and check.value < 1e-12
    # rank oracle: stack the two diagonal differences per face
    for face in faces(net.domain):
        i, j, k, l = face
        D = np.stack([net.lifts[k] - net.lifts[i], net.lifts[j] - net.lifts[l]])
        s = np.linalg.svd(D, compute_uv=False)
        assert s[1] / s[0] < 1e-12


def test_moutard_check_fails_for_euclidean_lifts(rng):
    net = random_moutard_net(rng, 4, 4)
    pts = euclidean_point(net.lifts.data)
    euclid = VertexField(euclidean_lift(pts))
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
    for v in interior_vertices(net.domain):
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
    # the axis check is the relative fifth singular value of the star's unit lifts
    V = np.array([cyl.lifts[w] / np.linalg.norm(cyl.lifts[w])
                  for w in ((2, 2), (3, 2), (1, 2), (2, 3), (2, 1))])
    s = np.linalg.svd(V, compute_uv=False)
    assert axis.value == pytest.approx(s[4] / s[0], rel=1e-9)


def test_edge_connection_basics(rng):
    net = catalog.cylinder_net(4, 4, 0.35, 0.8)
    e = ((1, 1), (2, 1))
    np.testing.assert_allclose(edge_connection(net, 0.0, e), np.eye(5), atol=1e-14)
    for lam in rng.uniform(-2, 2, 5):
        M = edge_connection(net, lam, e)
        Minv = edge_connection(net, lam, (e[1], e[0]))
        np.testing.assert_allclose(M @ Minv, np.eye(5), atol=1e-11)
    with pytest.raises(PoleParameter, match="is a pole of edge"):
        edge_connections(net, 1.0 / weight(net, e))


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
    u, v = net.weights.u, net.weights.v
    ratio = (u / (1.0 - mu * u)) / rep.weights.u
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)
    np.testing.assert_allclose((v / (1.0 - mu * v)) / rep.weights.v, ratio[0], rtol=1e-9)


def test_calapso_group_property():
    net = catalog.cylinder_net(4, 4, 0.3, np.pi / 4)
    mu, lam = 0.4, 0.3
    f1, net_mu = calapso(net, mu)
    f2, _ = calapso(net_mu, lam)
    f3, _ = calapso(net, mu + lam)
    C = f3.frames.data @ np.linalg.inv(f2.frames.data @ f1.frames.data)
    np.testing.assert_allclose(C, np.broadcast_to(C[0, 0], C.shape), atol=1e-11)


def test_calapso_rejects_non_isothermic(rng):
    net = catalog.cylinder_net(4, 4, 0.4, 0.8)
    pts = euclidean_point(net.lifts.data)
    pts[1, 2] += 2e-3 * np.array([0.0, 1.0, 0.0])
    bad = IsothermicNet(VertexField(euclidean_lift(pts)), net.weights)
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
    pert = IsothermicNet(VertexField(euclidean_lift(pts)), net.weights)
    worst = max(float(np.abs(face_holonomy(pert, float(lam), face) - np.eye(5)).max())
                for face in faces(pert.domain) if (2, 2) in face for lam in lams)
    assert worst > 1e-5


def test_moutard_lift_determines_cross_ratio(rng):
    # for Moutard-normalized lifts the face cross ratio is the ratio of the
    # edge products
    net = random_moutard_net(rng, 4, 4)
    F = face_stack(net.lifts.data)
    expected = minkowski_inner(F[:, :, 0], F[:, :, 1]) / minkowski_inner(F[:, :, 0], F[:, :, 3])
    np.testing.assert_allclose(cross_ratios(F), expected, rtol=1e-10)


def test_calapso_shifted_weights_refuse_a_pole():
    """The Calapso transform stores a / (1 - mu a), which has a pole where
    mu a = 1 on some edge, here mu 2 on the vertical weight 0.5: the edge
    connections refuse it, naming the edge.  The planar net has rectangular
    faces with sides sqrt(1/2), 1/2 and 1, so its weights are u = (1/2, 1/4)
    and v = -1."""
    x = np.array([0.0, np.sqrt(0.5), np.sqrt(0.5) + 0.5])
    pts = np.stack(np.broadcast_arrays(x[:, None], np.arange(2.0)[None, :], 0.0), axis=-1)
    net = IsothermicNet(VertexField(euclidean_lift(pts)), EdgeFunction([0.5, 0.25], [-1.0]))
    _, shifted = calapso(net, 1.0)
    np.testing.assert_array_equal(shifted.weights.u, [1.0, 1.0 / 3.0])
    np.testing.assert_array_equal(shifted.weights.v, [-0.5])
    with pytest.raises(PoleParameter, match=re.escape("parameter 2.0 is a pole of edge "
                                                      "((0, 0), (1, 0))")):
        calapso(net, 2.0)


WEIGHTS = st.lists(st.builds(lambda size, sign: size * sign, st.floats(1e-3, 1e3),
                             st.sampled_from([-1.0, 1.0])), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(u=WEIGHTS, v=WEIGHTS, pick=st.integers(0, 5),
       gap=st.one_of(st.floats(-2e-6, 2e-6), st.integers(-2000, 2000).map(lambda k: k * 1e-9)))
def test_one_pole_rule_covers_both_floors(u, v, pick, gap):
    """``edge_connections`` refuses lam = (1 - gap) / a near the pole of a
    weight a wherever either earlier floor did, |1 - lam a| <= tol(1 + |lam a|)
    on that edge or <= tol(1 + max |a|) (the Calapso weights' own check),
    and names the first edge of its rule |1 - lam a| <= tol(1 + |lam a| +
    max |a|): the stack along +m row by row, then the stack along +n."""
    a = np.array(u + v)
    lam = (1.0 - gap) / a[pick % len(a)]
    q = np.abs(1.0 - lam * a)
    largest = float(np.abs(a).max())
    refused = q <= tol(1.0 + np.abs(lam * a) + largest)
    assert (refused | ~((q <= tol(1.0 + np.abs(lam * a))) | (q <= tol(1.0 + largest)))).all()
    net = IsothermicNet(catalog.planar_grid_net(len(u) + 1, len(v) + 1).lifts,
                        EdgeFunction(u, v))
    if not refused.any():
        edge_connections(net, lam)
        return
    k = int(np.argmax(refused))
    edge = ((k, 0), (k + 1, 0)) if k < len(u) else ((0, k - len(u)), (0, k - len(u) + 1))
    with pytest.raises(PoleParameter, match=re.escape(f"parameter {lam} is a pole of edge {edge}")):
        edge_connections(net, lam)


@pytest.mark.parametrize("gap", [5e-7, 1e-8])
def test_calapso_blames_the_parameter_near_a_pole(gap):
    """On the cylinder with weights u = -900 and v = 0.152, mu = (1 - gap) / v
    lies in the pole band of v, which widens with the largest weight: the
    edge connections refuse mu, naming an edge, before the sweep could call
    the net not flat."""
    net = catalog.cylinder_net(3, 3, 60.0, 0.8)
    mu = (1.0 - gap) / net.weights.v[0]
    with pytest.raises(PoleParameter, match=re.escape(f"parameter {mu} is a pole of edge "
                                                      "((0, 0), (0, 1))")):
        calapso(net, mu)


def test_edge_connection_pole_and_calapso_pole():
    net = catalog.cylinder_net(3, 3, 0.4, 0.8)
    e = ((0, 0), (1, 0))
    mu_pole = 1.0 / weight(net, e)
    with pytest.raises(PoleParameter):
        calapso(net, mu_pole)


def test_verify_rejects_irregular_face():
    from isothermic.errors import GeometryError

    net = catalog.cylinder_net(3, 3, 0.4, 0.8)
    lifts = net.lifts.data.copy()
    lifts[1, 1] = 1.001 * lifts[1, 0]  # nearly dependent with a neighbour
    bad = VertexField(lifts)
    report = verify_isothermic(bad, strict=False)
    assert not report.ok and "dependent" in report.check.name
    with pytest.raises(GeometryError):
        verify_isothermic(bad)


def test_irregular_face_message_names_the_regularity():
    net = catalog.cylinder_net(3, 3, 0.3, 0.7)
    lifts = net.lifts.data.copy()
    lifts[1, 1] = lifts[1, 0]
    report = verify_isothermic(VertexField(lifts), strict=False)
    assert str(report.check) == ("a face has three nearly dependent lifts (regularity 0 <= 1e-18)"
                                 " at ((0, 0), (1, 0), (1, 1), (0, 1))")


def test_validate_names_a_coincident_face_by_its_corners():
    net = catalog.cylinder_net(3, 3, 0.3, 0.7)
    lifts = net.lifts.data.copy()
    lifts[1, 1] = lifts[1, 0]
    with pytest.raises(DegeneratePoints) as got:
        IsothermicNet(VertexField(lifts), net.weights).validate()
    assert got.value.check.where == ((0, 0), (1, 0), (1, 1), (0, 1)) and not got.value.check.ok
    assert str(got.value) == ("a face has three nearly dependent lifts (regularity 0 <= 1e-18)"
                              " at ((0, 0), (1, 0), (1, 1), (0, 1))")


def test_calapso_names_its_degenerate_face(monkeypatch):
    """The kappa < 0 net of revolution at mu 0.2: the frames reach 8e6 and a
    transformed face loses its digits; the floor check names the face of
    the smallest regularity."""
    Q = revolution.default_space_form(-1.0)
    M0, M1, branch = revolution.find_seed_edge(Q, 0.3)
    with pytest.warns(UserWarning, match="meridian crossed"):
        net, _ = revolution.build_revolution_cmc(Q, 0.3, M0, M1, 10,
                                                 RotationProfile.uniform(24, np.pi / 12),
                                                 branch=branch)
    seen = []
    regularity_of = nets._regularity
    monkeypatch.setattr(nets, "_regularity",
                        lambda *args: seen.append(regularity_of(*args)) or seen[-1])
    with pytest.raises(DegeneratePoints) as exc:
        calapso(net, 0.2)
    (regularity,) = seen
    worst = np.unravel_index(int(np.argmin(regularity)), regularity.shape)
    assert exc.value.check.where == net.domain.stack_face(worst)
    assert str(exc.value).endswith(
        "(regularity 0 <= 1e-18) at ((20, 0), (21, 0), (21, 1), (20, 1))")


def test_verify_accepts_thin_faces():
    # faces about 200 times longer than wide: the regularity
    # min |<ij>| / max |<ij>| is quadratic in that ratio (about 2e-5 here)
    # and its threshold is quadratic too
    net = catalog.cylinder_net(4, 4, 0.004, 0.9)
    assert net.validate() <= 1e-12
    assert verify_isothermic(net.lifts).ok
    assert 1e-5 < face_regularity(net.lifts) < 1e-4


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
        check(VertexField(lifts))
