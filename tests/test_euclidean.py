"""Euclidean reductions: Christoffel duals, parallel-net quantities, mean
curvature spheres, and cmc classification."""

import numpy as np
import pytest

from isothermic import catalog
from isothermic.errors import NotChristoffel, NotClosed, NotParallel
from isothermic.euclidean import (
    EuclideanNet,
    bp_sphere,
    christoffel,
    classify_cmc,
    extract_parallel,
    parallel_lcq,
)
from isothermic.grids import VertexField, edge_stacks
from isothermic.minkowski import euclidean_point
from isothermic.nets import calapso
from isothermic.transforms import calapso_pcq, complementary
from reference import interior_vertices

ETA, PHI = 0.3, np.pi / 4


def cylinder_euclidean(rows=5, cols=5):
    net = catalog.cylinder_net(rows, cols, ETA, PHI)
    return net, catalog.cylinder_quantity(net), EuclideanNet.from_isothermic(net)


def test_christoffel_planar_grid():
    net = catalog.planar_grid_net(4, 4)
    enet = EuclideanNet.from_isothermic(net)
    dual = christoffel(enet)
    # with weights (u, v) = (1, -1) the dual is (-m, n, 0) up to translation:
    # the sign pattern follows the weights
    m = np.arange(4)[:, None] * 1.0
    n = np.arange(4)[None, :] * 1.0
    expected = np.stack(np.broadcast_arrays(-m, n, np.zeros((4, 4))), axis=-1)
    np.testing.assert_allclose(dual.points.data, expected, atol=1e-12)


def test_christoffel_cylinder_canonical():
    net, cq, enet = cylinder_euclidean()
    dual = christoffel(enet)
    # canonical cmc scaling is 2/H times the raw dual: it reproduces the
    # parallel net (eta m, -cos, -sin) up to translation
    fstar = euclidean_point(catalog.cylinder_dual_lifts(net))
    scaled = (2.0 / 0.5) * dual.points.data
    offset = fstar[0, 0] - scaled[0, 0]
    np.testing.assert_allclose(scaled + offset, fstar, atol=1e-10)


def test_christoffel_involution_up_to_similarity(rng):
    net, _, enet = cylinder_euclidean()
    dd = christoffel(christoffel(enet))
    # twice the dual returns the net up to a similarity: fit one scale and
    # translation on the point clouds
    X = dd.points.data.reshape(-1, 3)
    Y = enet.points.data.reshape(-1, 3)
    X0 = X - X.mean(axis=0)
    Y0 = Y - Y.mean(axis=0)
    scale = float((X0 * Y0).sum() / (X0 * X0).sum())
    np.testing.assert_allclose(scale * X0, Y0, atol=1e-9)


def test_christoffel_rejects_wrong_weights():
    from isothermic.grids import EdgeFunction
    from isothermic.minkowski import hyperbolic_point
    from isothermic.revolution import RotationProfile, build_revolution_cmc

    net, _ = build_revolution_cmc(np.array([1.0, 0.0, -1.0]), 0.4,
                                  hyperbolic_point(0.0, 1.0),
                                  hyperbolic_point(0.3, 1.1), 2,
                                  RotationProfile.uniform(5, 0.8))
    enet = EuclideanNet.from_isothermic(net)
    assert christoffel(enet) is not None  # correct weights close up
    scrambled_u = net.weights.u.copy()
    scrambled_u[1] *= 2.0
    scrambled = EdgeFunction(scrambled_u, net.weights.v)
    bad = EuclideanNet(enet.points, scrambled)
    # the doubled weight sits on the edges between rows 1 and 2, so the sum
    # misses on those off the base column, most on the last one
    with pytest.raises(NotClosed) as got:
        christoffel(bad)
    assert str(got.value).startswith("dual edge form is not closed (")
    assert got.value.check.where == ((1, 4), (2, 4))
    assert str(got.value).endswith(" at ((1, 4), (2, 4))")


def test_christoffel_refuses_a_degenerate_edge():
    """An edge of length 0 has no dual edge a df / |df|^2."""
    net = catalog.planar_grid_net(3, 3)
    pts = euclidean_point(net.lifts.data)
    pts[1, 1] = pts[1, 0]
    with pytest.raises(NotClosed, match=r"degenerate edge \(\(1, 0\), \(1, 1\)\)"):
        christoffel(EuclideanNet(VertexField(pts), net.weights))


def test_parallel_lcq_roundtrip():
    net, cq, enet = cylinder_euclidean()
    fstar = euclidean_point(catalog.cylinder_dual_lifts(net))
    dual = EuclideanNet(VertexField(fstar), net.weights)
    built = parallel_lcq(enet, dual, 0.5)
    np.testing.assert_allclose(built.coeffs, cq.coeffs, atol=1e-12)
    back = extract_parallel(built)
    np.testing.assert_allclose(back.points.data, fstar, atol=1e-12)
    # H (f* - f) is a unit normal: the edge average is orthogonal to both
    # edge vectors
    stacks = zip(edge_stacks(fstar - enet.points.data), edge_stacks(enet.points.data),
                 edge_stacks(dual.points.data))
    for (gi, gj), (fi, fj), (di, dj) in stacks:
        n = 0.5 * ((gi + gj) / 2.0)
        assert np.abs((n * (fj - fi)).sum(axis=-1)).max() < 1e-12
        assert np.abs((n * (dj - di)).sum(axis=-1)).max() < 1e-12


def test_parallel_lcq_validates_input():
    net, _, enet = cylinder_euclidean()
    fstar = euclidean_point(catalog.cylinder_dual_lifts(net))
    dual = EuclideanNet(VertexField(fstar), net.weights)
    with pytest.raises(NotParallel):
        parallel_lcq(enet, dual, 0.4)
    squeezed = EuclideanNet(VertexField(0.9 * fstar), net.weights)
    with pytest.raises((NotParallel, NotChristoffel)):
        parallel_lcq(enet, squeezed, 0.5)


def test_bp_sphere_cylinder():
    net, cq, enet = cylinder_euclidean()
    fstar = euclidean_point(catalog.cylinder_dual_lifts(net))
    for v in interior_vertices(net.domain):
        ms = bp_sphere(cq, v)
        assert ms.center is not None
        # the sphere has radius 1/H and touches at the vertex; its center is
        # the parallel net's point
        assert ms.radius == pytest.approx(2.0, rel=1e-12)
        np.testing.assert_allclose(ms.center, fstar[net.domain.index(v)], atol=1e-12)
        assert ms.residual_equal_distances < 1e-9
        assert ms.residual_power < 1e-9
        assert ms.residual_radius < 1e-9


def test_bp_sphere_encoding_roundtrip(rng):
    # encode a sphere the way the quantity stores it, decode it back
    from isothermic.minkowski import Q_EUCLIDEAN, euclidean_lift

    c = rng.normal(size=3)
    r = 1.7
    Z = (euclidean_lift(c) - (r * r / 2.0) * Q_EUCLIDEAN) / r
    from isothermic.minkowski import norm2

    assert float(norm2(Z)) == pytest.approx(1.0, rel=1e-12)
    radius = 1.0 / (Z[0] + Z[4])
    np.testing.assert_allclose(radius * Z[1:4], c, atol=1e-12)
    assert radius == pytest.approx(r, rel=1e-12)


def test_bp_sphere_planes_for_minimal():
    # a Euclidean minimal net of revolution: the congruence members are
    # planes through the vertex stars; uneven angles make the weights of the
    # two edges along the rotation at a vertex differ
    from isothermic.minkowski import hyperbolic_point
    from isothermic.revolution import RotationProfile, build_revolution_cmc

    net, cq = build_revolution_cmc(np.array([1.0, 0.0, -1.0]), 0.0,
                                   hyperbolic_point(0.0, 1.0),
                                   hyperbolic_point(0.25, 1.1), 2,
                                   RotationProfile([0.0, 0.5, 1.3, 1.7, 2.6, 3.0]))
    for v in interior_vertices(net.domain):
        ms = bp_sphere(cq, v)
        assert ms.center is None and ms.radius is None
        assert abs(float(np.dot(ms.normal, ms.normal)) - 1.0) < 1e-9
        # the plane {x : <normal, x> = offset} holds the vertex
        f = euclidean_point(net.lifts.data[v])
        assert abs(float(np.dot(ms.normal, f)) - ms.offset) <= 1e-9
        assert ms.residual_power < 1e-9
        assert ms.residual_radius < 1e-9


def test_classify_cmc_labels():
    net, cq, _ = cylinder_euclidean()
    label = classify_cmc(cq)
    assert label.label == "cmc-euclidean"
    assert label.H * label.H + label.kappa == pytest.approx(0.25, abs=1e-12)

    # Lawson shift by mu = 1/2: H = 0, kappa = 1/4 (a minimal net in the
    # spherical space form)
    frame, tnet = calapso(net, 0.5)
    shifted = calapso_pcq(cq, frame)
    label = classify_cmc(shifted)
    assert label.label == "cmc-spaceform(+)"
    assert label.H == pytest.approx(0.0, abs=1e-9)
    assert label.kappa == pytest.approx(0.25, abs=1e-9)

    from isothermic.minkowski import hyperbolic_point
    from isothermic.revolution import RotationProfile, build_revolution_cmc

    minimal, mq = build_revolution_cmc(np.array([1.0, 0.0, -1.0]), 0.0,
                                       hyperbolic_point(0.0, 1.0),
                                       hyperbolic_point(0.25, 1.1), 2,
                                       RotationProfile.uniform(5, 0.8))
    assert classify_cmc(mq).label == "minimal-euclidean"

    horo, hq = build_revolution_cmc(np.array([0.0, 0.0, 1.0]), 1.0,
                                    hyperbolic_point(0.2, 0.8),
                                    hyperbolic_point(0.45, 0.9), 2,
                                    RotationProfile.uniform(5, 0.9))
    assert classify_cmc(hq).label == "horospherical"


def test_lawson_family_keeps_invariant(rng):
    net, cq, _ = cylinder_euclidean()
    for mu in (-0.4, 0.2, 0.9):
        frame, _ = calapso(net, mu)
        shifted = calapso_pcq(cq, frame)
        label = classify_cmc(shifted)
        assert label.H * label.H + label.kappa == pytest.approx(0.25, abs=1e-9)


def test_complementary_at_2h_is_christoffel():
    # the complementary net at mu = 2H coincides with the Christoffel dual
    # under the canonical scaling, up to translation
    net, cq, enet = cylinder_euclidean()
    comps = complementary(cq)
    par = comps[1]
    assert par.mu == pytest.approx(1.0, abs=1e-9)
    pts = euclidean_point(par.lifts.data)
    dual = christoffel(enet)
    scaled = (2.0 / 0.5) * dual.points.data
    offset = (pts - scaled).reshape(-1, 3).mean(axis=0)
    np.testing.assert_allclose(scaled + offset, pts, atol=1e-9)


def test_euclidean_net_roundtrip():
    net, _, enet = cylinder_euclidean()
    back = enet.to_isothermic()
    # same projective points and the same weights
    from isothermic.minkowski import euclidean_point

    np.testing.assert_allclose(euclidean_point(back.lifts.data),
                               enet.points.data, atol=1e-13)
    np.testing.assert_array_equal(back.weights.u, net.weights.u)
    back.validate()
