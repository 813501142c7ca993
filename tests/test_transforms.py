"""Darboux/Backlund transforms, permutability, complementary nets, and
reconstruction from parallel sections."""

import re
import warnings

import numpy as np
import pytest

from isothermic import catalog
from isothermic.conserved import (
    ConservedQuantity,
    degree_reduce,
    mean_curvature_data,
    normalize_top,
    pcq_verify,
    reparametrize,
)
from isothermic.errors import (
    CoincidentTransforms,
    DegenerateStart,
    EmptyConic,
    IncidenceFailure,
    NotBacklund,
    PoleParameter,
)
from isothermic.minkowski import (
    SIGNATURE,
    cross_ratio,
    cross_ratio_matrix,
    euclidean_lift,
    minkowski_inner,
    norm2,
    ray_distance,
)
from isothermic.grids import EdgeFunction, VertexField
from isothermic.netfile import load_net
from isothermic.nets import IsothermicNet, calapso, edge_connections, verify_isothermic
from isothermic.polyvec import mp_eval, mp_scale_poly
from isothermic.tolerances import tol
from isothermic.transforms import (
    DarbouxTransform,
    backlund_init,
    bianchi,
    calapso_pcq,
    complementary,
    darboux_propagate,
    pcq_backlund,
    pcq_darboux,
    pcq_from_parallel_sections,
)
from reference import edges, weight

ETA, PHI = 0.3, np.pi / 4


@pytest.fixture
def cylinder():
    net = catalog.cylinder_net(5, 5, ETA, PHI)
    return net, catalog.cylinder_quantity(net)


def test_darboux_cross_ratio_condition(cylinder):
    net, _ = cylinder
    d = darboux_propagate(net, 2.4, euclidean_lift(np.array([0.5, 1.7, 0.4])))
    assert d.cross_ratio_residual() < 1e-9
    assert verify_isothermic(d.lifts).ok
    # symmetry: the base net satisfies the Darboux condition of the transform
    for e in edges(net.domain):
        i, j = e
        q = cross_ratio(d.lifts[i], d.lifts[j], net.lifts[j], net.lifts[i])
        assert q == pytest.approx(weight(net, e) * d.mu, rel=1e-9)


def test_darboux_calapso_frames(cylinder):
    # frames of the transform equal (frames of the base) * (vertexwise
    # circle transform with parameter 1 - lam/mu) up to a left constant
    net, _ = cylinder
    mu, lam = 2.4, 0.7
    d = darboux_propagate(net, mu, euclidean_lift(np.array([0.5, 1.7, 0.4])))
    f_base, _ = calapso(net, lam)
    f_hat, _ = calapso(d.net(), lam)
    G = cross_ratio_matrix(1.0 - lam / mu, net.lifts.data, d.lifts.data)
    C = f_hat.frames.data @ np.linalg.inv(f_base.frames.data @ G)
    np.testing.assert_allclose(C, np.broadcast_to(C[0, 0], C.shape), atol=1e-9)


def test_darboux_parallel_net_start(cylinder):
    # starting at the parallel net's lift with mu = 2H reproduces it everywhere
    net, cq = cylinder
    dual = catalog.cylinder_dual_lifts(net)
    d = darboux_propagate(net, 1.0, dual[0, 0], basepoint=(0, 0))
    np.testing.assert_allclose(d.lifts.data, dual, atol=1e-10)


def test_backlund_init_postconditions(cylinder):
    net, cq = cylinder
    mu = 2.4
    P = mp_eval(cq.coeffs[0, 0], mu)
    starts = []
    for s in (0.0, 0.4, 2.0):
        X = backlund_init(cq, mu, s)
        assert abs(norm2(X)) < 1e-11 * np.dot(X, X)
        assert abs(minkowski_inner(P, X)) < 1e-10 * np.linalg.norm(X) * np.linalg.norm(P)
        starts.append(X)
    assert ray_distance(starts[0], starts[1]) > 1e-3
    assert ray_distance(starts[1], starts[2]) > 1e-3
    # orthogonality persists along the whole transform
    d = darboux_propagate(net, mu, starts[1])
    vals = minkowski_inner(mp_eval(cq.coeffs, mu), d.lifts.data)
    assert np.abs(vals).max() < 1e-9 * (1.0 + np.abs(d.lifts.data).max())


def test_backlund_init_empty_conic(cylinder):
    net, cq = cylinder
    # |P(mu)|^2 = mu^2 - mu < 0 inside (0, 1): timelike value, no real starts
    with pytest.raises(EmptyConic):
        backlund_init(cq, 0.5, 0.0)


def test_backlund_init_refuses_a_start_on_the_net(cylinder):
    """A start ray that is the net's own lift at the basepoint gives no
    transform.  On a linear quantity <P(mu), F> = <Q, F> never vanishes, so
    no lift of a conserved quantity lies on the circle of starts; the net
    here takes the start itself as its lift at (0, 0), with the same
    coefficients, unchecked."""
    net, cq = cylinder
    X = backlund_init(cq, 2.4, 0.4)
    lifts = net.lifts.data.copy()
    lifts[0, 0] = X
    on_start = ConservedQuantity(IsothermicNet(VertexField(lifts), net.weights), cq.coeffs,
                                 check=False)
    with pytest.raises(DegenerateStart, match="start direction coincides with the net"):
        backlund_init(on_start, 2.4, 0.4)


def test_pcq_darboux(cylinder):
    net, cq = cylinder
    mu = 2.4
    d = darboux_propagate(net, mu, euclidean_lift(np.array([0.5, 1.7, 0.4])))
    pd = pcq_darboux(cq, d)
    assert pd.degree == 2
    assert pcq_verify(d.net(), pd).value < 1e-10
    # |Phat|^2 = (lam - mu)^2 |P|^2 and the top norm is preserved
    lhs = pd.norm_poly()
    rhs = np.convolve(np.convolve([-mu, 1.0], [-mu, 1.0]), cq.norm_poly())
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    assert pd.top_norm2() == pytest.approx(cq.top_norm2(), rel=1e-9)


def test_pcq_backlund_preserves_data(cylinder):
    net, cq = cylinder
    mu = 2.4
    d = darboux_propagate(net, mu, backlund_init(cq, mu, 0.3))
    pb = pcq_backlund(cq, d)
    assert pb.degree == 1
    assert pcq_verify(d.net(), pb).value < 1e-9
    np.testing.assert_allclose(pb.constant, cq.constant, atol=1e-9)
    H, kappa = mean_curvature_data(normalize_top(pb))
    assert H == pytest.approx(0.5, abs=1e-9)
    assert kappa == pytest.approx(0.0, abs=1e-9)


def test_pcq_backlund_requires_orthogonal_start(cylinder):
    net, cq = cylinder
    d = darboux_propagate(net, 2.4, euclidean_lift(np.array([0.5, 1.7, 0.4])))
    with pytest.raises(NotBacklund):
        pcq_backlund(cq, d)


def test_pcq_backlund_symmetry(cylinder):
    # with f as a Backlund transform of fhat, the transformed quantity
    # recovers the original exactly
    net, cq = cylinder
    mu = 2.4
    d = darboux_propagate(net, mu, backlund_init(cq, mu, 0.3))
    pb = pcq_backlund(cq, d)
    back = DarbouxTransform(mu, net.lifts, d.net())
    recovered = pcq_backlund(pb, back)
    np.testing.assert_allclose(recovered.coeffs, cq.coeffs, atol=1e-9)


def test_backlund_from_darboux_root_reduction(cylinder):
    # a Backlund start makes the raised quantity vanish at mu; reduction
    # recovers the direct degree-N transform
    net, cq = cylinder
    mu = 2.4
    d = darboux_propagate(net, mu, backlund_init(cq, mu, 0.3))
    raised = pcq_darboux(cq, d)
    vals = mp_eval(raised.coeffs, mu)
    assert np.abs(vals).max() < 1e-9 * raised.scale()
    np.testing.assert_allclose(degree_reduce(raised, mu).coeffs,
                               pcq_backlund(cq, d).coeffs, atol=1e-9)


def test_ribaucour_sphere_two_expressions(cylinder):
    # the sphere congruence shared by a Backlund pair agrees in both forms
    net, cq = cylinder
    mu = 2.4
    d = darboux_propagate(net, mu, backlund_init(cq, mu, 0.3))
    pb = pcq_backlund(cq, d)
    Q = cq.constant  # coefficient below the top for a linear quantity
    Qh = pb.constant
    F, Fh = net.lifts.data, d.lifts.data
    g = mu * minkowski_inner(F, Fh)[..., None]
    lhs = cq.coeffs[:, :, 1] + minkowski_inner(Fh, Qh)[..., None] / g * F
    rhs = pb.coeffs[:, :, 1] + minkowski_inner(F, Q)[..., None] / g * Fh
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_bianchi_permutability(cylinder):
    net, cq = cylinder
    mu1, mu2 = 2.4, -1.7
    t1 = darboux_propagate(net, mu1, backlund_init(cq, mu1, 0.2))
    t2 = darboux_propagate(net, mu2, backlund_init(cq, mu2, 0.7))
    q1, q2 = pcq_backlund(cq, t1), pcq_backlund(cq, t2)
    result = bianchi(net, t1, t2, (q1, q2))
    assert result.residual_first < 1e-9
    assert result.residual_second < 1e-9
    assert result.quantity_gap < 1e-8
    assert verify_isothermic(result.lifts).ok


def test_each_darboux_section_is_normalized_once(cylinder):
    """A transform's unit-length net is built once: the quantities of the
    transforms share it, and both routes of the permutability quadrilateral
    share the fourth net's lifts."""
    net, cq = cylinder
    t1 = darboux_propagate(net, 2.4, backlund_init(cq, 2.4, 0.2))
    t2 = darboux_propagate(net, -1.7, backlund_init(cq, -1.7, 0.7))
    assert t1.net() is t1.net()
    q1, q2 = pcq_backlund(cq, t1), pcq_backlund(cq, t2)
    assert q1.net is t1.net() and pcq_darboux(cq, t2).net is q2.net
    result = bianchi(net, t1, t2, (q1, q2))
    assert result.quantity.net is result.net


def test_bianchi_coincident(cylinder):
    net, cq = cylinder
    t1 = darboux_propagate(net, 2.4, backlund_init(cq, 2.4, 0.2))
    t1b = darboux_propagate(net, 2.4, backlund_init(cq, 2.4, 0.2))
    with pytest.raises(CoincidentTransforms):
        bianchi(net, t1, t1b)


def test_complementary_census(cylinder):
    net, cq = cylinder
    comps = complementary(cq)
    assert [c.mu for c in comps] == [pytest.approx(0.0, abs=1e-9),
                                     pytest.approx(1.0, abs=1e-9)]
    assert all(c.multiplicity == 1 and c.lifts is not None for c in comps)
    # mu = 0: the constant ambient vector; mu = 2H: the parallel net
    np.testing.assert_allclose(comps[0].lifts.data - cq.constant,
                               np.zeros((5, 5, 5)), atol=1e-9)
    dual = catalog.cylinder_dual_lifts(net)
    np.testing.assert_allclose(comps[1].lifts.data, dual / 2.0, atol=1e-9)


def test_complementary_counts_by_invariant():
    # 0 real roots for a hyperbolic minimal net (H^2 + kappa < 0)
    from isothermic.minkowski import hyperbolic_point
    from isothermic.revolution import RotationProfile, build_revolution_cmc

    net, cq = build_revolution_cmc(np.array([0.0, 0.0, 1.0]), 0.0,
                                   hyperbolic_point(0.1, 0.7),
                                   hyperbolic_point(0.35, 0.8), 2,
                                   RotationProfile.uniform(5, 0.9))
    assert complementary(cq) == []

    # 1 double root for a degree-raised spherical quantity (H^2 + kappa = 0)
    planar = catalog.planar_grid_net(4, 4)
    sphere = np.array([0.0, 0, 0, 1.0, 0])
    mu0 = 0.8
    coeffs = np.zeros((4, 4, 2, 5))
    coeffs[:, :, 0, :] = -mu0 * sphere
    coeffs[:, :, 1, :] = sphere
    raised = ConservedQuantity(planar, coeffs)
    assert pcq_verify(planar, raised).ok
    H, kappa = mean_curvature_data(raised)
    assert H * H + kappa == pytest.approx(0.0, abs=1e-12)
    comps = complementary(raised)
    assert len(comps) == 1
    assert comps[0].multiplicity == 2
    assert comps[0].lifts is None  # P(mu0) = 0: reducible, not a genuine net


def test_complementary_of_a_zero_or_constant_norm_is_empty():
    """|P(lam)|^2 without a root: the zero quantity and the plane z = 0 of
    the planar grid as a constant quantity, |P|^2 = 1."""
    net = catalog.planar_grid_net(3, 3)
    assert complementary(ConservedQuantity(net, np.zeros((3, 3, 2, 5)))) == []
    plane = np.broadcast_to([0.0, 0.0, 0.0, 1.0, 0.0], (3, 3, 1, 5))
    assert complementary(ConservedQuantity(net, plane)) == []


def test_complementary_trims_a_vanishing_top_coefficient():
    """The zigzag quantity has an isotropic top coefficient, so |P(lam)|^2
    is linear up to rounding, 64 - 4 lam: its lam^2 coefficient is trimmed
    before the roots are taken, which leaves the one root 16, where P is an
    isotropic section."""
    net = catalog.zigzag_net(4, 4, 0.3, 0.5, 0.7)
    zz = catalog.zigzag_quantity(net)
    poly = zz.norm_poly()
    assert abs(poly[2]) <= tol(float(np.abs(poly).max()))
    (comp,) = complementary(zz)
    assert (comp.mu, comp.multiplicity) == (pytest.approx(-poly[0] / poly[1], rel=1e-12), 1)
    assert comp.mu == pytest.approx(16.0, rel=1e-12)
    assert np.abs(norm2(comp.lifts.data)).max() <= tol(float(np.abs(comp.lifts.data).max()) ** 2)


def test_complementary_antipodality():
    # two complementary nets of a kappa != 0 net are antipodal in its quadric
    from isothermic.minkowski import hyperbolic_point
    from isothermic.revolution import RotationProfile, build_revolution_cmc

    net, cq = build_revolution_cmc(np.array([1.0, 0, 0]), 0.3,
                                   hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 2,
                                   RotationProfile.uniform(5, 0.9))
    H, kappa = mean_curvature_data(cq)
    assert H * H + kappa > 0 and abs(kappa) > 1e-6
    comps = complementary(cq)
    assert len(comps) == 2
    Q = cq.constant
    q2 = float(norm2(Q))
    plus, minus = comps[1].lifts.data / comps[1].mu, comps[0].lifts.data / comps[0].mu
    reflected = minus - 2.0 * minkowski_inner(minus, Q)[..., None] / q2 * Q
    np.testing.assert_allclose(plus, reflected, atol=1e-9)


def test_interpolation_identity(cylinder):
    net, cq = cylinder
    mus = [2.0, -1.5]
    sections = [(mu, cq.evaluate(mu)) for mu in mus]
    weights = [1.0 / (mus[0] - mus[1]), 1.0 / (mus[1] - mus[0])]
    rec = pcq_from_parallel_sections(net, sections, weights)
    np.testing.assert_allclose(rec.coeffs, cq.coeffs, atol=1e-12)


def test_reconstruction_rejects_bad_weights(cylinder):
    net, cq = cylinder
    mus = [2.0, -1.5]
    sections = [(mu, cq.evaluate(mu)) for mu in mus]
    with pytest.raises(IncidenceFailure):
        pcq_from_parallel_sections(net, sections, [1.0, 1.0])


@pytest.mark.parametrize("weights", [[0.3, -0.3, 1.0], []])
def test_reconstruction_needs_one_weight_per_section(cylinder, weights):
    """Weights pair with sections one to one: a third weight for two
    sections, or none at all, is refused, not cut to length."""
    net, cq = cylinder
    sections = [(mu, cq.evaluate(mu)) for mu in (2.0, -1.5)]
    with pytest.raises(ValueError, match=f"^{len(weights)} weights for 2 sections$"):
        pcq_from_parallel_sections(net, sections, weights)


def test_double_darboux_scenario(cylinder):
    # two antipodal Darboux transforms of a Calapso transform reconstruct a
    # normalized linear quantity whose antipodal gauge has
    # H^2 + kappa = (mu1 - mu2)^2 / (4 mu1^2 mu2^2)
    net, cq = cylinder
    lam = 0.7
    frame, tnet = calapso(net, lam)
    pl = calapso_pcq(cq, frame)
    comps = complementary(pl)
    mu_lo, mu_hi = comps[0].mu, comps[1].mu
    sections = [(mu_hi, comps[1].lifts), (mu_lo, comps[0].lifts)]
    weights = [1.0 / (mu_hi - mu_lo), 1.0 / (mu_lo - mu_hi)]
    rec = pcq_from_parallel_sections(tnet, sections, weights)
    assert pcq_verify(tnet, rec).value < 1e-9
    gauged = normalize_top(reparametrize(rec, -mu_hi * mu_lo))
    assert pcq_verify(gauged.net, gauged).value < 1e-9
    H, kappa = mean_curvature_data(gauged)
    expected = (mu_hi - mu_lo) ** 2 / (4.0 * mu_hi ** 2 * mu_lo ** 2)
    assert H * H + kappa == pytest.approx(expected, rel=1e-9)


def test_triple_darboux_scenario(cylinder):
    # three parallel sections of a quadratic quantity: the ambient vector
    # lies in their span (straight-line configuration) and the quadratic
    # quantity is reconstructed
    net, cq = cylinder
    mu = 3.0
    d = darboux_propagate(net, mu, euclidean_lift(np.array([0.5, 1.7, 0.4])))
    pd = pcq_darboux(cq, d)  # degree 2, |P|^2 = (lam-mu)^2 (lam^2 - lam)
    hat = d.net()
    mus = [0.0, 1.0, mu]
    sections = [(m, pd.evaluate(m)) for m in mus]
    # collinearity: the constant coefficient lies in the span of the sections
    for v in np.ndindex(hat.domain.rows, hat.domain.cols):
        S = np.stack([sec[1][v] for sec in sections])
        resid = np.linalg.lstsq(S.T, pd.constant, rcond=None)[1]
        assert not len(resid) or resid[0] < 1e-16
    weights = [np.prod([1.0 / (mn - mm) for mm in mus if mm != mn]) for mn in mus]
    rec = pcq_from_parallel_sections(hat, sections, weights)
    assert rec.degree == 2
    np.testing.assert_allclose(rec.coeffs, pd.coeffs, atol=1e-9)


def test_calapso_pcq_compares_nets_by_value():
    """A frame applies to the quantity of an equal net (a reloaded copy, say),
    and is refused for the quantity of another net of the same size."""
    net = catalog.cylinder_net(4, 4, 0.3, 0.7)
    frame, _ = calapso(net, 0.05)
    other = catalog.cylinder_net(4, 4, 0.5, 0.9)
    with pytest.raises(ValueError, match="frame was built for a different net"):
        calapso_pcq(catalog.cylinder_quantity(other), frame)
    copy = IsothermicNet(VertexField(net.lifts.data.copy()),
                         EdgeFunction(net.weights.u.copy(), net.weights.v.copy()))
    moved = calapso_pcq(catalog.cylinder_quantity(copy), frame)
    np.testing.assert_array_equal(
        moved.coeffs, calapso_pcq(catalog.cylinder_quantity(net), frame).coeffs)


def transforms_of_two_nets():
    """Two cylinders of one size, the quantity of the second, and Backlund
    transforms of the first at mu -1 and of the second at mu -1.5."""
    a, b = catalog.cylinder_net(6, 7, 0.3, 0.5), catalog.cylinder_net(6, 7, 0.25, 0.6)
    qa, qb = catalog.cylinder_quantity(a), catalog.cylinder_quantity(b)
    t1 = darboux_propagate(a, -1.0, backlund_init(qa, -1.0, 0.3))
    t2 = darboux_propagate(b, -1.5, backlund_init(qb, -1.5, 0.3))
    return a, qb, t1, t2


def reloaded(net):
    return IsothermicNet(VertexField(net.lifts.data.copy()),
                         EdgeFunction(net.weights.u.copy(), net.weights.v.copy()))


def test_bianchi_refuses_a_transform_of_another_net():
    """Both transforms must be built on the net: each is compared with it
    by value, so a reloaded copy of the net is accepted."""
    a, _, t1, t2 = transforms_of_two_nets()
    with pytest.raises(ValueError, match="second transform was built for a different net"):
        bianchi(a, t1, t2)
    with pytest.raises(ValueError, match="first transform was built for a different net"):
        bianchi(t2.base, t1, t2)
    again = darboux_propagate(a, -1.5, backlund_init(catalog.cylinder_quantity(a), -1.5, 0.3))
    assert bianchi(reloaded(a), t1, again).residual_first < 1e-9


def test_pcq_darboux_refuses_a_transform_of_another_net():
    _, qb, t1, t2 = transforms_of_two_nets()
    with pytest.raises(ValueError, match="transform was built for a different net"):
        pcq_darboux(qb, t1)
    copy = ConservedQuantity(reloaded(t2.base), qb.coeffs)
    np.testing.assert_array_equal(pcq_darboux(copy, t2).coeffs, pcq_darboux(qb, t2).coeffs)


def test_pcq_backlund_refuses_a_transform_of_another_net():
    """The pairing is refused before the start orthogonality is checked,
    which would blame the start (NotBacklund)."""
    _, qb, t1, t2 = transforms_of_two_nets()
    with pytest.raises(ValueError, match="transform was built for a different net"):
        pcq_backlund(qb, t1)
    copy = ConservedQuantity(reloaded(t2.base), qb.coeffs)
    np.testing.assert_array_equal(pcq_backlund(copy, t2).coeffs, pcq_backlund(qb, t2).coeffs)


def test_calapso_pcq_identity_and_lawson(cylinder, rng):
    net, cq = cylinder
    frame0, _ = calapso(net, 0.0)
    np.testing.assert_allclose(calapso_pcq(cq, frame0).coeffs, cq.coeffs, atol=1e-12)
    for mu in rng.uniform(-1.5, 1.5, 10):
        if abs(mu) < 0.05:
            continue
        frame, tnet = calapso(net, float(mu))
        moved = calapso_pcq(cq, frame)
        H, kappa = mean_curvature_data(moved)
        assert H == pytest.approx(0.5 - mu, abs=1e-9)
        assert kappa == pytest.approx(2 * mu * 0.5 - mu * mu, abs=1e-9)
        assert H * H + kappa == pytest.approx(0.25, abs=1e-9)


def test_type_lowering_backlund_degree_raised(cylinder):
    # with P(mu0) = 0 identically (a degree-raised quantity) every Darboux
    # transform at mu0 satisfies the Backlund orthogonality, mu0 is a double
    # root of |P|^2, and the transformed quantity reduces in degree
    net, cq = cylinder
    mu0 = 2.4
    raised = ConservedQuantity(net, mp_scale_poly(cq.coeffs, np.array([-mu0, 1.0])))
    poly = raised.norm_poly()
    roots = np.roots(poly[::-1])
    assert sum(abs(r - mu0) < 1e-6 for r in roots) == 2  # multiplicity two
    with pytest.raises(EmptyConic):
        backlund_init(raised, mu0, 0.3)  # P(mu0) vanishes identically
    # a start orthogonal to the underlying quantity's value keeps the zero
    d = darboux_propagate(net, mu0, backlund_init(cq, mu0, 0.3))
    lowered = pcq_backlund(raised, d)
    assert np.abs(mp_eval(lowered.coeffs, mu0)).max() < 1e-9 * lowered.scale()
    reduced = degree_reduce(lowered, mu0)
    assert reduced.degree == 1
    assert pcq_verify(d.net(), reduced).ok
    np.testing.assert_allclose(reduced.coeffs, pcq_backlund(cq, d).coeffs, atol=1e-9)


def test_type_lowering_at_double_root():
    # a horospherical-type net (H^2 + kappa = 0): the single complementary
    # net sits at a double root of |P|^2 and is spherical (type 0)
    from isothermic.conserved import classify_type
    from isothermic.minkowski import hyperbolic_point
    from isothermic.nets import IsothermicNet
    from isothermic.revolution import RotationProfile, build_revolution_cmc

    net, cq = build_revolution_cmc(np.array([0.0, 0.0, 1.0]), 1.0,
                                   hyperbolic_point(0.2, 0.8),
                                   hyperbolic_point(0.45, 0.9), 2,
                                   RotationProfile.uniform(5, 0.9))
    H, kappa = mean_curvature_data(cq)
    assert H * H + kappa == pytest.approx(0.0, abs=1e-12)
    comps = complementary(cq)
    assert len(comps) == 1
    assert comps[0].multiplicity == 2
    assert comps[0].lifts is not None
    assert comps[0].mu == pytest.approx(H, abs=1e-6)
    hat = IsothermicNet(comps[0].lifts, net.weights)
    assert verify_isothermic(hat.lifts).ok
    assert classify_type(hat).spherical
    # the Backlund transform at the double root lowers the type: its
    # quantity reduces to the constant conserved quantity of a spherical net
    # (evaluate at the analytically exact root: clustered eigenvalues locate
    # a double root only to about sqrt(machine) precision)
    d = DarbouxTransform(H, cq.evaluate(H), net)
    from isothermic.transforms import parallel_residual

    assert parallel_residual(net, H, d.lifts) < 1e-9
    # the cross-ratio form of the condition is conditioning-limited here
    # (small denominators on the far meridian rows)
    assert d.cross_ratio_residual() < 1e-5
    lowered = pcq_backlund(cq, d)
    reduced = degree_reduce(lowered, H)
    assert reduced.degree == 0
    sphere = reduced.coeffs[0, 0, 0]
    assert float(norm2(sphere)) > 0


def test_darboux_rejects_bad_start(cylinder):
    from isothermic.errors import DegenerateStart

    net, _ = cylinder
    with pytest.raises(DegenerateStart):
        darboux_propagate(net, 2.0, np.array([1.0, 0, 0, 0, 0]))  # not isotropic
    with pytest.raises(DegenerateStart):
        darboux_propagate(net, 2.0, 2.0 * net.lifts[(0, 0)])


def test_parallel_sections_must_be_parallel(cylinder):
    from isothermic.errors import NotParallel

    net, cq = cylinder
    good = cq.evaluate(2.0)
    bad_data = good.data.copy()
    bad_data[2, 2] *= 1.001
    bad = VertexField(bad_data)
    with pytest.raises(NotParallel):
        pcq_from_parallel_sections(net, [(2.0, bad), (-1.5, cq.evaluate(-1.5))],
                                   [1.0 / 3.5, -1.0 / 3.5])


def test_parallel_sections_need_distinct_parameters(cylinder):
    net, cq = cylinder
    with pytest.raises(ValueError, match="section parameters must be pairwise distinct"):
        pcq_from_parallel_sections(net, [(2.0, cq.evaluate(2.0)), (2.0, cq.evaluate(2.0))],
                                   [0.5, 0.5])


@pytest.mark.parametrize("mu", [0.0, -0.0, 1e-320, 1e-12, 1e12, 1e300])
def test_darboux_parameter_with_degenerate_quads_raises(cylinder, mu):
    """The quads (f_i, f_j, fhat_j, fhat_i) have cross ratio mu * a: at 0 or
    infinity within tolerance there is no Darboux transform (pcq_darboux
    then divided by mu = 0)."""
    net, _ = cylinder
    with pytest.raises(PoleParameter, match=re.escape(f"infinite or not finite at mu = {mu}")):
        darboux_propagate(net, mu, euclidean_lift(np.array([3.0, 0.5, 0.2])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_and_starts_raise(cylinder, bad):
    """A non-finite spectral parameter, start entry, Backlund mu or s raises a
    typed error instead of returning a NaN section or reaching an SVD."""
    net, cq = cylinder
    start = euclidean_lift(np.array([3.0, 0.5, 0.2]))
    for run in (lambda: edge_connections(net, bad), lambda: calapso(net, bad),
                lambda: darboux_propagate(net, bad, start)):
        with pytest.raises(PoleParameter, match="not finite"):
            run()
    with pytest.raises(DegenerateStart, match="not finite"):
        darboux_propagate(net, 0.4, np.where(np.arange(5) == 1, bad, start))
    for mu, s in ((bad, 0.0), (-1.0, bad)):
        with pytest.raises(DegenerateStart, match="must be finite"):
            backlund_init(cq, mu, s)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no more precise than float here")
def test_darboux_section_keeps_digits_on_a_negative_curvature_net(tmp_path):
    """On the kappa < 0 net of ``generate revolution --H 0 --kappa -1 --steps
    12 --angles 32`` the Darboux section at mu 0.4 from (3, 0.5, 0.2) stays
    within 3e-12 (relative to its largest entry) of the same sweep in long
    double, where each step applies the inverse edge connection
    S_j = S_i + ((q-1) <S_i,F_i> F_j + (1/q-1) <S_i,F_j> F_i) / <F_i,F_j>."""
    from isothermic.cli import main

    path = tmp_path / "net.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the meridian crosses the infinity boundary
        assert main(["generate", "revolution", "--H", "0", "--kappa", "-1", "--steps", "12",
                     "--angles", "32", "-o", str(path)]) == 0
    net, _, _ = load_net(path)
    mu, start = 0.4, euclidean_lift(np.array([3.0, 0.5, 0.2]))
    got = darboux_propagate(net, mu, start).lifts.data
    F, sig = net.lifts.data.astype(np.longdouble), SIGNATURE.astype(np.longdouble)

    def step(S, i, j, a):
        q = 1 - np.longdouble(mu) * np.longdouble(a)
        return S + ((q - 1) * (S * F[i] * sig).sum() * F[j]
                    + (1 / q - 1) * (S * F[j] * sig).sum() * F[i]) / (F[i] * F[j] * sig).sum()

    rows, cols = net.domain.rows, net.domain.cols
    S = np.empty((rows, cols, 5), dtype=np.longdouble)
    S[0, 0] = start
    for m in range(rows - 1):
        S[m + 1, 0] = step(S[m, 0], (m, 0), (m + 1, 0), net.weights.u[m])
    for n in range(cols - 1):
        for m in range(rows):
            S[m, n + 1] = step(S[m, n], (m, n), (m, n + 1), net.weights.v[n])
    assert float(np.abs(got - S).max() / np.abs(S).max()) <= 3e-12
