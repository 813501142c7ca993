"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the same conditions, so ``pytest -v`` reports the verdicts
as test outcomes too.
"""

import warnings

import numpy as np
import pytest

from conftest import centred_cylinder, darboux_stacked_net
from isothermic import catalog
from isothermic.conserved import (
    ConservedQuantity,
    lcq_solve_grid,
    mean_curvature_data,
    normalize_top,
    pcq_propagate,
    pcq_verify,
)
from isothermic.errors import ConstraintViolated, DegenerateBasis, GeometryError, InfinityBoundary
from isothermic.euclidean import EuclideanNet, bp_sphere, christoffel
from isothermic.grids import VertexField
from isothermic.minkowski import (
    Q_EUCLIDEAN,
    cross_ratio,
    euclidean_lift,
    euclidean_point,
    hyperbolic_point,
    minkowski_inner,
    norm2,
)
from isothermic.nets import IsothermicNet, calapso, holonomy_residual, verify_isothermic
from isothermic.revolution import (
    RotationProfile,
    build_revolution_cmc,
    seed_edge,
    symmetric_pcq_check,
)
from isothermic.transforms import (
    backlund_init,
    bianchi,
    calapso_pcq,
    complementary,
    darboux_propagate,
    pcq_backlund,
)
from reference import (
    edges,
    face_holonomy,
    faces,
    interior_vertices,
    random_moutard_net,
    weight,
)

ETA, PHI = 0.3, np.pi / 4


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_acceptance_01_cylinder_cmc():
    net = catalog.cylinder_net(20, 20, ETA, PHI)
    sol = lcq_solve_grid(net, Q_EUCLIDEAN)
    ok = isinstance(sol, ConservedQuantity)
    H = kappa = np.nan
    if ok:
        H, kappa = mean_curvature_data(normalize_top(sol))
        ok = abs(H - 0.5) <= 1e-9 and abs(kappa) <= 1e-9
    report(1, ok, f"cylinder 20x20 linear quantity: H={H:.3g}, kappa={kappa:.3g}")


def test_acceptance_02_space_form_family():
    # the superposition family lives on the three-column patch of the same
    # cylinder, where it coincides with the zigzag plane
    net = centred_cylinder(20, 3, ETA, PHI)
    c = np.cos(PHI)
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        cq = catalog.cylinder_family_quantity(net, t)
        resid = pcq_verify(net, cq).value
        H, kappa = mean_curvature_data(cq)
        H_expect = 0.5 * (1 + t * t) - t * (1 + c) / (1 - c)
        k_expect = -4 * t * t / (1 - c) ** 2
        worst = max(worst, resid, abs(H - H_expect), abs(kappa - k_expect))
    report(2, worst <= 1e-9, f"family H_t, kappa_t worst deviation {worst:.3g}")


def test_acceptance_03_lawson_invariance():
    rng = np.random.default_rng(101)
    net = catalog.cylinder_net(8, 8, ETA, PHI)
    cq = catalog.cylinder_quantity(net)
    H0, k0 = 0.5, 0.0
    worst = 0.0
    for mu in rng.uniform(-1.2, 1.2, 10):
        mu = float(mu)
        frame, tnet = calapso(net, mu)
        moved = calapso_pcq(cq, frame)
        H, kappa = mean_curvature_data(moved)
        worst = max(worst, abs(H - (H0 - mu)),
                    abs(kappa - (k0 + 2 * mu * H0 - mu * mu)),
                    abs(H * H + kappa - (H0 * H0 + k0)))
        rep = verify_isothermic(tnet.lifts)
        assert rep.ok
        target = net.weights.calapso_shifted(mu)
        ratio = np.concatenate([target.u / rep.weights.u, target.v / rep.weights.v])
        worst = max(worst, float(np.abs(ratio - ratio[0]).max()) / abs(ratio[0]))
    report(3, worst <= 1e-9, f"Lawson shift data over 10 parameters, worst {worst:.3g}")


def test_acceptance_04_flatness_iff_isothermic():
    rng = np.random.default_rng(202)
    worst_flat = 0.0
    worst_pert = np.inf
    for k in range(50):
        net = darboux_stacked_net(rng, 4, 4, layers=1)
        lams = rng.uniform(-0.5, 0.5, 20)
        worst_flat = max(worst_flat, holonomy_residual(net, lams))
        pts = euclidean_point(net.lifts.data)
        direction = rng.normal(size=3)
        pts[2, 2] += 1e-3 * direction / np.linalg.norm(direction)
        pert = IsothermicNet(VertexField(euclidean_lift(pts)), net.weights)
        affected = [f for f in faces(pert.domain) if (2, 2) in f]
        for face in affected:
            face_worst = max(
                float(np.abs(face_holonomy(pert, float(lam), face) - np.eye(5)).max())
                for lam in lams)
            worst_pert = min(worst_pert, face_worst)
    ok = worst_flat <= 1e-9 and worst_pert >= 1e-5
    report(4, ok, f"50 nets: flat residual {worst_flat:.3g}, "
                  f"perturbed faces respond with at least {worst_pert:.3g}")


def test_acceptance_05_darboux_backlund_suite():
    net = catalog.cylinder_net(6, 6, ETA, PHI)
    cq = catalog.cylinder_quantity(net)
    mu = 2.4
    transform = darboux_propagate(net, mu, backlund_init(cq, mu, 0.3))
    worst_q = 0.0
    for e in edges(net.domain):
        i, j = e
        q = cross_ratio(net.lifts[i], net.lifts[j],
                        transform.lifts[j], transform.lifts[i])
        target = weight(net, e) * mu
        worst_q = max(worst_q, abs(q - target) / (1.0 + abs(target)))
    moved = pcq_backlund(cq, transform)
    q_gap = float(np.abs(moved.constant - cq.constant).max())
    H, kappa = mean_curvature_data(normalize_top(moved))
    ok = (worst_q <= 1e-9 and q_gap <= 1e-9
          and abs(H - 0.5) <= 1e-9 and abs(kappa) <= 1e-9)
    report(5, ok, f"cross-ratio defect {worst_q:.3g}, constant-term gap {q_gap:.3g}, "
                  f"(H, kappa)=({H:.3g}, {kappa:.3g})")


def test_acceptance_06_bianchi_permutability():
    net = catalog.cylinder_net(5, 5, ETA, PHI)
    cq = catalog.cylinder_quantity(net)
    mu1, mu2 = 2.4, -1.7
    t1 = darboux_propagate(net, mu1, backlund_init(cq, mu1, 0.2))
    t2 = darboux_propagate(net, mu2, backlund_init(cq, mu2, 0.7))
    q1, q2 = pcq_backlund(cq, t1), pcq_backlund(cq, t2)
    result = bianchi(net, t1, t2, (q1, q2))
    ok = (result.residual_first <= 1e-9 and result.residual_second <= 1e-9
          and result.quantity_gap <= 1e-8)
    report(6, ok, f"Darboux residuals ({result.residual_first:.3g}, "
                  f"{result.residual_second:.3g}), route gap {result.quantity_gap:.3g}")


def test_acceptance_07_complementary_census():
    details = []
    ok = True

    net = catalog.cylinder_net(5, 5, ETA, PHI)
    comps = complementary(catalog.cylinder_quantity(net))
    ok &= len(comps) == 2 and all(c.lifts is not None for c in comps)
    details.append(f"cylinder roots {[round(c.mu, 9) for c in comps]}")

    # double root by degree-raising the constant quantity of a spherical net
    planar = catalog.planar_grid_net(4, 4)
    sphere = np.array([0.0, 0, 0, 1.0, 0])
    mu0 = 0.8
    coeffs = np.zeros((4, 4, 2, 5))
    coeffs[:, :, 0, :] = -mu0 * sphere
    coeffs[:, :, 1, :] = sphere
    raised = ConservedQuantity(planar, coeffs)
    H, kappa = mean_curvature_data(raised)
    comps = complementary(raised)
    ok &= abs(H * H + kappa) <= 1e-12
    ok &= len(comps) == 1 and comps[0].multiplicity == 2
    details.append(f"double-root case: 1 root x{comps[0].multiplicity}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hyp, hq = build_revolution_cmc(np.array([0.0, 0, 1.0]), 0.0,
                                       hyperbolic_point(0.1, 0.7),
                                       hyperbolic_point(0.35, 0.8), 2,
                                       RotationProfile.uniform(5, 0.8))
    ok &= complementary(hq) == []
    details.append("hyperbolic minimal: 0 roots")

    # antipodality on a kappa != 0 net with two roots
    sph, sq = build_revolution_cmc(np.array([1.0, 0, 0]), 0.3,
                                   hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 2,
                                   RotationProfile.uniform(5, 0.9))
    comps = complementary(sq)
    Q = sq.constant
    q2 = float(norm2(Q))
    plus, minus = comps[1].lifts.data / comps[1].mu, comps[0].lifts.data / comps[0].mu
    reflected = minus - 2.0 * minkowski_inner(minus, Q)[..., None] / q2 * Q
    worst = float(np.abs(plus - reflected).max())
    ok &= len(comps) == 2 and worst <= 1e-9
    details.append(f"antipodality defect {worst:.3g}")
    report(7, ok, "; ".join(details))


ACCEPT8_CASES = [(0.0, 0.0), (0.5, 0.0), (0.0, -1.0), (0.3, 1.0), (1.0, -1.0)]


def _space_form_vector(kappa):
    if kappa == 0.0:
        return np.array([1.0, 0.0, -1.0])
    if kappa < 0:
        return np.array([0.0, 0.0, np.sqrt(-kappa)])
    return np.array([np.sqrt(kappa), 0.0, 0.0])


def _admissible_seed(Q, H, kappa):
    for eta0, rho0, eta1, rho1 in [
        (0.0, 1.0, 0.25, 1.1), (0.1, 0.7, 0.35, 0.8), (0.2, 0.8, 0.45, 0.9),
        (0.1, 0.9, 0.4, 1.0), (0.15, 1.2, 0.4, 1.05),
    ]:
        M0 = hyperbolic_point(eta0, rho0)
        M1 = hyperbolic_point(eta1, rho1)
        try:
            sols = seed_edge(Q, H, M0, M1)
        except GeometryError:
            continue
        for branch, sol in enumerate(sols):
            gate = 1.0 - 2.0 * sol.edge_weight * H - sol.edge_weight ** 2 * kappa
            if gate > 1e-6:
                return M0, M1, branch
    raise AssertionError(f"no admissible seed for H={H}, kappa={kappa}")


def test_acceptance_08_revolution_constructor():
    ok = True
    details = []
    for H, kappa in ACCEPT8_CASES:
        Q = _space_form_vector(kappa)
        M0, M1, branch = _admissible_seed(Q, H, kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            net, cq = build_revolution_cmc(Q, H, M0, M1, 3,
                                           RotationProfile.uniform(7, 0.8),
                                           branch=branch)
        iso_ok = verify_isothermic(net.lifts).ok
        resid = pcq_verify(net, cq).value
        Hm, km = mean_curvature_data(cq)
        case_ok = (iso_ok and resid <= 1e-8
                   and abs(Hm - H) <= 1e-9 and abs(km - kappa) <= 1e-9)
        if (H, kappa) == (0.0, -1.0):
            # hyperbolic catenoid analogue: minimal, rotationally symmetric,
            # no real complementary nets
            case_ok &= symmetric_pcq_check(cq, RotationProfile.uniform(7, 0.8))
            case_ok &= complementary(cq) == []
        ok &= case_ok
        details.append(f"({H},{kappa}): residual {resid:.2g}")
    report(8, ok, "; ".join(details))


def test_acceptance_09_seed_solver_structure():
    rng = np.random.default_rng(303)
    Q = np.array([0.0, 0.0, 1.0])
    found = 0
    ok = True
    while found < 100:
        eta0, eta1 = rng.uniform(-0.6, 0.6, 2)
        rho0, rho1 = rng.uniform(0.4, 1.6, 2)
        M0 = hyperbolic_point(eta0, rho0)
        M1 = hyperbolic_point(eta1, rho1)
        if np.linalg.norm(M1 - M0) < 0.05:
            continue
        try:
            sols = seed_edge(Q, 0.0, M0, M1)
        except (InfinityBoundary, DegenerateBasis, ConstraintViolated):
            continue
        found += 1
        ok &= len(sols) == 1 and abs(sols[0].alpha) > 1e-9
    too_large = False
    try:
        seed_edge(np.array([1.0, 0, 0]), 50.0, hyperbolic_point(0.2, 0.8),
                  hyperbolic_point(0.45, 0.9))
    except ConstraintViolated:
        too_large = True
    ok &= too_large
    report(9, ok, "100 admissible minimal seeds each give exactly one factor; "
                  "oversized H rejected")


def test_acceptance_10_oracle_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(25):
        net = random_moutard_net(rng, 3, 3)
        while True:
            Q = rng.normal(size=5)
            if np.abs(minkowski_inner(net.lifts.data, Q)).min() > 1e-3:
                break
        sol = lcq_solve_grid(net, Q)
        prop = pcq_propagate(net, sol.coeffs[net.domain.center()], net.domain.center())
        worst = max(worst, float(np.abs(prop.coeffs - sol.coeffs).max()))
    solver_ok = worst <= 1e-10

    worst_q = 0.0
    count = 0
    while count < 100:
        zs = rng.normal(size=4) + 1j * rng.normal(size=4)
        if min(abs(zs[i] - zs[j]) for i in range(4) for j in range(i + 1, 4)) < 0.1:
            continue
        count += 1
        lifts = [euclidean_lift(np.array([z.real, z.imag, 0.0])) for z in zs]
        q = cross_ratio(*lifts)
        oracle = (zs[0] - zs[1]) * (zs[2] - zs[3]) / ((zs[1] - zs[2]) * (zs[3] - zs[0]))
        if oracle.imag < 0:
            oracle = oracle.conjugate()
        worst_q = max(worst_q, abs(q - oracle) / (1.0 + abs(oracle)))
    ok = solver_ok and worst_q <= 1e-10
    report(10, ok, f"solver gap {worst:.3g}, cross-ratio oracle gap {worst_q:.3g}")


def test_acceptance_11_euclidean_equivalence():
    Q = np.array([1.0, 0.0, -1.0])
    seeds = [(0.0, 1.0, 0.25, 1.1), (0.1, 0.7, 0.35, 0.8), (0.2, 0.8, 0.45, 0.9),
             (0.1, 0.9, 0.4, 1.0), (0.15, 1.2, 0.4, 1.05)]
    h_values = (0.4, 0.6)
    worst_dual = 0.0
    worst_sphere = 0.0
    built = 0
    for eta0, rho0, eta1, rho1 in seeds:
        for H in h_values:
            M0 = hyperbolic_point(eta0, rho0)
            M1 = hyperbolic_point(eta1, rho1)
            try:
                sols = seed_edge(Q, H, M0, M1)
            except GeometryError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                net, cq = build_revolution_cmc(Q, H, M0, M1, 2,
                                               RotationProfile.uniform(5, 0.8))
            built += 1
            comps = complementary(cq)
            par = max(comps, key=lambda c: abs(c.mu))
            assert par.mu == pytest.approx(2 * H, abs=1e-9)
            pts = euclidean_point(par.lifts.data)
            enet = EuclideanNet.from_isothermic(net)
            dual = christoffel(enet)
            scaled = (2.0 / H) * dual.points.data
            offset = (pts - scaled).reshape(-1, 3).mean(axis=0)
            worst_dual = max(worst_dual, float(np.abs(scaled + offset - pts).max()))
            for v in interior_vertices(net.domain):
                ms = bp_sphere(cq, v)
                worst_sphere = max(worst_sphere, ms.residual_equal_distances,
                                   ms.residual_power, ms.residual_radius)
    ok = built >= 10 and worst_dual <= 1e-8 and worst_sphere <= 1e-9
    report(11, ok, f"{built} cmc nets: dual gap {worst_dual:.3g}, "
                   f"sphere residuals {worst_sphere:.3g}")
