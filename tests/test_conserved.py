"""Polynomial conserved quantities: verification, propagation, algebra,
linear solvers, and classification."""

import numpy as np
import pytest

from conftest import centred_cylinder, centred_zigzag, darboux_stacked_net
from isothermic import catalog
from isothermic.conserved import (
    ConservedQuantity,
    classify_type,
    degree_reduce,
    lcq_solve_grid,
    mean_curvature_data,
    normalize_top,
    pcq_propagate,
    pcq_verify,
    reparametrize,
)
from isothermic.errors import (
    DegenerateTop,
    NonzeroRoot,
    NotConserved,
    SphericalStar,
)
from isothermic.grids import EdgeFunction, VertexField, edge_stacks
from isothermic.minkowski import (
    Q_EUCLIDEAN,
    SIGNATURE,
    minkowski_inner,
    norm2,
)
from isothermic.nets import IsothermicNet, moutard_check
from isothermic.polyvec import mp_eval, mp_scale_poly
from isothermic.tolerances import Check
from reference import random_moutard_net

ETA, PHI = 0.3, np.pi / 4


def cylinder_with_quantity(rows=5, cols=5, centred=False):
    build = centred_cylinder if centred else catalog.cylinder_net
    net = build(rows, cols, ETA, PHI)
    return net, catalog.cylinder_quantity(net)


def test_pcq_verify_cylinder():
    net, cq = cylinder_with_quantity()
    assert pcq_verify(net, cq).value < 1e-12


def test_pcq_verify_zigzag_degenerate():
    net = centred_zigzag(3, 3, 0.7, 0.4, 0.8)
    cq = catalog.zigzag_quantity(net)
    assert pcq_verify(net, cq).value < 1e-12
    # its top coefficient is isotropic but is a Moutard lift
    Z = VertexField(cq.coeffs[:, :, 1, :])
    assert abs(cq.top_norm2()) < 1e-12
    assert moutard_check(Z).ok


def test_pcq_verify_detects_perturbation():
    net, cq = cylinder_with_quantity()
    coeffs = cq.coeffs.copy()
    coeffs[2, 2, 1, 1] += 1e-4
    report = pcq_verify(net, ConservedQuantity(net, coeffs, check=False))
    assert not report.ok
    assert report.value > 1e-6


def test_pcq_propagate_constant_on_spherical():
    net = catalog.planar_grid_net(4, 4)
    seed = np.array([[0.0, 0, 0, 1.0, 0]])  # the plane's sphere vector
    cq = pcq_propagate(net, seed, (0, 0))
    assert cq.degree == 0
    assert np.abs(cq.coeffs[:, :, 0, :] - seed[0]).max() < 1e-14


def test_pcq_propagate_recovers_cylinder():
    net, cq = cylinder_with_quantity()
    base = net.domain.center()
    prop = pcq_propagate(net, cq.coeffs[base], base)
    assert np.abs(prop.coeffs - cq.coeffs).max() < 1e-9


def test_pcq_propagate_rejects_bad_seed():
    net, cq = cylinder_with_quantity()
    seed = cq.coeffs[net.domain.center()].copy()
    seed[1] += np.array([0.0, 0.05, 0.0, 0.0, 0.0])
    with pytest.raises(NotConserved):
        pcq_propagate(net, seed, net.domain.center())


def test_degree_reduce_roundtrip():
    net, cq = cylinder_with_quantity()
    mu = 0.8
    raised = ConservedQuantity(net, mp_scale_poly(cq.coeffs, np.array([-mu, 1.0])))
    # root vanishing is global: the raised quantity vanishes at mu everywhere
    vals = mp_eval(raised.coeffs, mu)
    assert np.abs(vals).max() < 1e-12
    back = degree_reduce(raised, mu)
    np.testing.assert_allclose(back.coeffs, cq.coeffs, atol=1e-12)
    with pytest.raises(NonzeroRoot):
        degree_reduce(cq, 0.37)


@pytest.mark.parametrize("check", [True, False])
def test_quantity_with_no_coefficients_is_refused(check):
    """A coefficient array of shape (rows, cols, 0, 5) holds no polynomial:
    it is refused by its shape, with or without the invariant checks, and so
    never reaches pcq_verify, which would find its empty residual conserved."""
    net = catalog.cylinder_net(4, 5, ETA, PHI)
    with pytest.raises(ValueError, match=r"must have shape \(rows, cols, deg\+1, 5\)"):
        ConservedQuantity(net, np.zeros((4, 5, 0, 5)), check=check)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_parameters_are_refused_by_name(value):
    """degree_reduce and reparametrize name a non-finite mu or alpha before
    any arithmetic, so no RuntimeWarning is raised and the quantity is not
    blamed (NonzeroRoot, NotConserved)."""
    net, cq = cylinder_with_quantity()
    with pytest.raises(ValueError, match=r"^mu = -?(inf|nan) must be finite$"):
        degree_reduce(cq, value)
    with pytest.raises(ValueError, match=r"^alpha = -?(inf|nan) must be finite$"):
        reparametrize(cq, value)


def test_norm_poly_cylinder():
    net, cq = cylinder_with_quantity()
    np.testing.assert_allclose(cq.norm_poly(), [0.0, -1.0, 1.0], atol=1e-12)
    tripled = cq.scaled(3.0)
    np.testing.assert_allclose(tripled.norm_poly(), [0.0, -9.0, 9.0], atol=1e-11)


def test_norm_poly_vertex_independent_on_built_nets(rng):
    from isothermic.revolution import RotationProfile, build_revolution_cmc
    from isothermic.minkowski import hyperbolic_point

    net, cq = build_revolution_cmc(np.array([1.0, 0, -1.0]), 0.4,
                                   hyperbolic_point(0.0, 1.0),
                                   hyperbolic_point(0.3, 1.1), 3,
                                   RotationProfile.uniform(6, 0.8))
    poly = cq.norm_poly()  # raises if vertex dependent
    assert poly.shape == (3,)


def test_reparametrize():
    from isothermic.conserved import reparametrize

    net, cq = cylinder_with_quantity()
    same = reparametrize(cq, 1.0)
    np.testing.assert_allclose(same.coeffs, cq.coeffs, atol=0)
    np.testing.assert_allclose(same.net.weights.u, net.weights.u, atol=0)

    doubled = reparametrize(cq, 2.0)
    np.testing.assert_allclose(doubled.net.weights.u, 2.0 * net.weights.u, atol=0)
    assert pcq_verify(doubled.net, doubled).value < 1e-12


def test_reparametrize_homothety_effect():
    # weights a -> a/c rescale the curvatures as H -> cH, kappa -> c^2 kappa
    from isothermic.conserved import reparametrize
    from isothermic.minkowski import hyperbolic_point
    from isothermic.revolution import RotationProfile, build_revolution_cmc

    net, cq = build_revolution_cmc(np.array([1.0, 0, 0]), 0.3,
                                   hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 2,
                                   RotationProfile.uniform(5, 0.9))
    H, kappa = mean_curvature_data(cq)
    assert (H, kappa) == (pytest.approx(0.3, abs=1e-12), pytest.approx(1.0, abs=1e-12))
    c = 2.0
    scaled = normalize_top(reparametrize(cq, 1.0 / c))
    H2, k2 = mean_curvature_data(scaled)
    assert H2 == pytest.approx(c * H, rel=1e-12)
    assert k2 == pytest.approx(c * c * kappa, rel=1e-12)


def test_normalize_top():
    net, cq = cylinder_with_quantity()
    np.testing.assert_allclose(normalize_top(cq).coeffs, cq.coeffs, atol=1e-14)
    np.testing.assert_allclose(normalize_top(cq.scaled(2.0)).coeffs, cq.coeffs,
                               atol=1e-13)
    zz_net = centred_zigzag(3, 3, 0.7, 0.4, 0.8)
    with pytest.raises(DegenerateTop):
        normalize_top(catalog.zigzag_quantity(zz_net))


def test_classify_type():
    planar = catalog.planar_grid_net(4, 4)
    rep = classify_type(planar)
    assert rep.spherical and rep.min_degree == 0
    np.testing.assert_allclose(rep.sphere, [0, 0, 0, 1, 0], atol=1e-12)

    net, cq = cylinder_with_quantity()
    rep = classify_type(net, [cq])
    assert not rep.spherical and rep.min_degree == 1 and rep.verified == 1

    zz_net = centred_zigzag(3, 3, 0.7, 0.4, 0.8)
    rep = classify_type(zz_net, [catalog.zigzag_quantity(zz_net)])
    assert not rep.spherical
    assert rep.min_degree is None and rep.degenerate_present


def test_classify_type_fewer_than_five_vertices():
    cyl = catalog.cylinder_net(2, 4, 0.5, 0.9)
    for net in (catalog.cylinder_net(2, 2, 0.5, 0.9),
                IsothermicNet(VertexField(cyl.lifts.data[:1]),
                              EdgeFunction([], cyl.weights.v))):
        rep = classify_type(net)
        assert rep.spherical and rep.min_degree == 0
        # a unit spacelike sphere vector through every vertex
        assert float(norm2(rep.sphere)) == pytest.approx(1.0, rel=1e-12)
        assert np.abs(minkowski_inner(net.lifts.data, rep.sphere)).max() < 1e-12


def test_classify_type_reports_the_span():
    """The sphere through a net is unique only when its lifts span four
    dimensions; four concircular points span three (a pencil of spheres)."""
    cyl = catalog.cylinder_net(2, 4, 0.5, 0.9)
    net, _ = cylinder_with_quantity()
    for example, span in ((IsothermicNet(VertexField(cyl.lifts.data[:1, :2]),
                                         EdgeFunction([], cyl.weights.v[:1])), 2),
                          (catalog.cylinder_net(2, 2, 0.5, 0.9), 3),
                          (catalog.planar_grid_net(4, 4), 4), (net, 5)):
        assert classify_type(example).span == span
        assert classify_type(example).spherical == (span < 5)


def test_lcq_solve_3x3_cylinder_patch():
    net, cq = cylinder_with_quantity(3, 3)
    sol = lcq_solve_grid(net, Q_EUCLIDEAN)
    np.testing.assert_allclose(sol.coeffs, cq.coeffs, atol=1e-10)


def test_lcq_solve_3x3_spherical_star():
    """On a 3x3 net the extended star is the axis star: cospherical there,
    it cannot pin Z, and the solver names the basepoint."""
    with pytest.raises(SphericalStar, match=r"vertex star is cospherical \(singular value "
                                            r"ratio .* <= 1e-09\) at \(1, 1\)"):
        lcq_solve_grid(catalog.planar_grid_net(3, 3), Q_EUCLIDEAN)


def test_lcq_solve_grid_spherical_star():
    """A planar grid is spherical everywhere: its extended star spans four
    dimensions, so the solver raises rather than fail an incidence check
    with a least-squares start."""
    with pytest.raises(SphericalStar, match=r"at \(2, 2\)"):
        lcq_solve_grid(catalog.planar_grid_net(6, 6), Q_EUCLIDEAN)


def test_lcq_solve_3x3_bad_ambient_vector(rng):
    # ambient vector orthogonal to the differences of the axis star forces
    # an isotropic top coefficient (a Moutard lift multiple)
    net = random_moutard_net(rng, 3, 3)
    c = (1, 1)
    diffs = np.stack([
        net.lifts[(2, 1)] - net.lifts[(0, 1)],
        net.lifts[(1, 2)] - net.lifts[(1, 0)],
        net.lifts[(1, 2)] - net.lifts[(2, 1)],
    ])
    _, _, vt = np.linalg.svd(diffs * SIGNATURE)
    Q = vt[-1] + vt[-2]
    sol = lcq_solve_grid(net, Q)
    assert abs(sol.top_norm2()) < 1e-9 * sol.scale() ** 2
    # the isotropic top is a multiple of the net's own (Moutard) lift
    from isothermic.minkowski import ray_distance

    Z = sol.coeffs[net.domain.index(c)][1]
    assert ray_distance(Z, net.lifts[c]) < 1e-7
    with pytest.raises(DegenerateTop):
        normalize_top(sol)


def test_lcq_solve_3x3_generic_ambient(rng):
    for _ in range(5):
        net = random_moutard_net(rng, 3, 3)
        Q = rng.normal(size=5)
        sol = lcq_solve_grid(net, Q)
        assert pcq_verify(net, sol).ok
        assert sol.top_norm2() > 0


def test_lcq_solve_grid_cylinder():
    net, cq = cylinder_with_quantity(6, 4)
    sol = lcq_solve_grid(net, Q_EUCLIDEAN)
    assert isinstance(sol, ConservedQuantity)
    H, kappa = mean_curvature_data(normalize_top(sol))
    assert H == pytest.approx(0.5, abs=1e-9)
    assert kappa == pytest.approx(0.0, abs=1e-9)


def test_lcq_solve_grid_family():
    # three-column patch centred at angle 0 carries the superposition family
    net, _ = cylinder_with_quantity(6, 3, centred=True)
    for t in (0.25, 0.5, 1.0):
        cq = catalog.cylinder_family_quantity(net, t)
        assert pcq_verify(net, cq).value < 1e-12
        H, kappa = mean_curvature_data(cq)
        c = np.cos(PHI)
        assert H == pytest.approx((1 + t * t) / 2 - t * (1 + c) / (1 - c), abs=1e-9)
        assert kappa == pytest.approx(-4 * t * t / (1 - c) ** 2, abs=1e-9)
        # and the grid solver recovers each family member from its ambient vector
        sol = lcq_solve_grid(net, cq.constant)
        assert isinstance(sol, ConservedQuantity)
        np.testing.assert_allclose(sol.coeffs, cq.coeffs, atol=1e-9)


def test_lcq_solve_grid_inconsistent(rng):
    net = darboux_stacked_net(rng, 5, 5)
    result = lcq_solve_grid(net, rng.normal(size=5))
    assert isinstance(result, Check) and not result.ok
    assert result.value > 1e-6 and net.domain.contains(result.where)


def test_superposition():
    net, cq = cylinder_with_quantity(5, 3, centred=True)
    zz = catalog.zigzag_quantity(net)
    assert pcq_verify(net, zz).value < 1e-12
    combo = ConservedQuantity(net, 0.7 * cq.coeffs - 1.3 * zz.coeffs, check=False)
    assert pcq_verify(net, combo).value < 1e-12


def test_uniqueness_difference_reduces():
    # two degree-2 quantities agreeing at (mu0, every vertex): their
    # difference admits a degree reduction at mu0
    net, _ = cylinder_with_quantity(5, 3, centred=True)
    p0 = catalog.cylinder_family_quantity(net, 0.0)
    p1 = catalog.cylinder_family_quantity(net, 0.4)
    mu0 = -0.6
    factor = np.array([-mu0, 1.0])
    A = ConservedQuantity(net, mp_scale_poly(p0.coeffs, factor))
    B = ConservedQuantity(net, mp_scale_poly(p1.coeffs, factor))
    np.testing.assert_allclose(mp_eval(A.coeffs, mu0), mp_eval(B.coeffs, mu0),
                               atol=1e-12)
    D = ConservedQuantity(net, A.coeffs - B.coeffs, check=False)
    reduced = degree_reduce(D, mu0)
    assert reduced.degree == 1
    assert pcq_verify(net, reduced).ok


def test_curvature_sphere_two_expressions():
    net, cq = cylinder_with_quantity()
    Q = cq.constant  # the coefficient below the top for a linear quantity
    for (Fi, Fj), (Zi, Zj), a in zip(edge_stacks(net.lifts.data), edge_stacks(cq.coeffs[:, :, 1]),
                                     net.weights.stacks()):
        g = minkowski_inner(Fi, Fj)
        lhs = Zi + (a * minkowski_inner(Q, Fj) / g)[..., None] * Fi
        rhs = Zj + (a * minkowski_inner(Q, Fi) / g)[..., None] * Fj
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_mean_curvature_requires_normalized():
    net, cq = cylinder_with_quantity()
    with pytest.raises(ValueError):
        mean_curvature_data(cq.scaled(2.0))
