"""Surfaces of revolution: lifts, rotational symmetry, seed solver,
meridian propagation, and the cmc constructor."""

import ast
import pathlib
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import centred_cylinder
from isothermic import catalog, cli, revolution
from isothermic.conserved import ConservedQuantity, mean_curvature_data, pcq_verify
from isothermic.errors import (
    AxisCrossing,
    AxisPoint,
    ConstraintViolated,
    DegenerateBasis,
    GeometryError,
    InfinityBoundary,
    NonFiniteLift,
    RepeatedPoint,
    VanishingX,
)
from isothermic.grids import VertexField, face_stack
from isothermic.minkowski import (
    cross_ratios,
    hyperbolic_point,
    inner3,
    norm3,
    profile_coordinates,
)
from isothermic.netfile import load_net
from isothermic.nets import IsothermicNet, moutard_check, verify_isothermic
from isothermic.polyvec import mp_inner_vec
from isothermic.revolution import (
    RotationProfile,
    build_revolution_cmc,
    closure_defect,
    default_space_form,
    meridian_points,
    meridian_step,
    revolution_lift,
    seed_edge,
    symmetric_pcq_check,
)
from isothermic.tolerances import tol
from isothermic.transforms import complementary

Q_FLAT = np.array([1.0, 0.0, -1.0])
Q_HYP = np.array([0.0, 0.0, 1.0])
Q_SPH = np.array([1.0, 0.0, 0.0])


def admissible_seed(rng, Q, H, tries=200):
    for _ in range(tries):
        eta0, eta1 = rng.uniform(-0.5, 0.5, 2)
        rho0, rho1 = rng.uniform(0.5, 1.5, 2)
        try:
            M0 = hyperbolic_point(eta0, rho0)
            M1 = hyperbolic_point(eta1, rho1)
            if np.linalg.norm(M1 - M0) < 0.05:
                continue
            sols = seed_edge(Q, H, M0, M1)
        except (InfinityBoundary, DegenerateBasis, ConstraintViolated):
            continue
        return M0, M1, sols
    raise AssertionError("no admissible seed found")


def test_revolution_lift_cylinder_weights():
    net = revolution_lift(0.4 * np.arange(4), np.ones(4),
                          RotationProfile.uniform(4, np.pi / 2))
    np.testing.assert_allclose(net.weights.u, 0.08, atol=1e-15)
    np.testing.assert_allclose(net.weights.v, -1.0, atol=1e-15)
    assert moutard_check(net.lifts).ok
    assert verify_isothermic(net.lifts).ok


def test_revolution_lift_cross_ratio_closed_form(rng):
    eta = np.array([0.0, 0.3, 0.5, 0.9])
    rho = np.array([1.0, 1.2, 0.8, 1.0])
    phi = np.array([0.0, 0.7, 1.2, 2.1])
    net = revolution_lift(eta, rho, RotationProfile(phi))
    q_faces = cross_ratios(face_stack(net.lifts.data))
    de, dr, dp = np.diff(eta)[:, None], np.diff(rho)[:, None], np.diff(phi)[None, :]
    expected = -(de * de + dr * dr) / (4 * rho[:-1, None] * rho[1:, None] * np.sin(dp / 2.0) ** 2)
    np.testing.assert_allclose(q_faces, expected, rtol=1e-11)


def test_revolution_lift_validation():
    with pytest.raises(AxisPoint):
        revolution_lift(np.array([0.0, 0.3]), np.array([1.0, -0.2]),
                        RotationProfile.uniform(3, 0.5))
    with pytest.raises(RepeatedPoint):
        revolution_lift(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                        RotationProfile.uniform(3, 0.5))
    with pytest.raises(RepeatedPoint):
        RotationProfile(np.array([0.0, 2.0 * np.pi]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_angles_raise(bad):
    with pytest.raises(NonFiniteLift, match="rotation angle at index 1 is not finite"):
        RotationProfile([0.0, bad, 1.0])
    with pytest.raises(NonFiniteLift, match="rotation step .* is not finite"):
        RotationProfile.uniform(4, bad)


def test_non_finite_angles_raise_under_warnings_as_errors():
    """Under python -W error the refusal is the typed error, not a
    RuntimeWarning from the arithmetic on the angles."""
    script = (f"import sys; sys.path[:0] = {sys.path!r}\n"
              "from isothermic.errors import NonFiniteLift\n"
              "from isothermic.revolution import RotationProfile\n"
              "for angles in ([0.0, float('nan'), 1.0], [0.0, 1.0, float('inf')]):\n"
              "    try:\n"
              "        RotationProfile(angles)\n"
              "    except NonFiniteLift:\n"
              "        continue\n"
              "    sys.exit(f'{angles} accepted')\n")
    child = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]


def scalar_symmetric(net, cq):
    """The scalar criterion of rotational symmetry: <P(lam), F> does not
    depend on the rotation index.  It means something only where the lifts'
    scalings do not depend on the rotation index either, as on the
    builders' nets and the cylinder's Euclidean lifts."""
    p = mp_inner_vec(cq.coeffs, net.lifts.data[:, :, None, :])
    return float(np.abs(p - p[:, :1]).max()) <= tol(cq.scale() * net.lift_scale())


def test_symmetric_pcq_check():
    profile = RotationProfile.uniform(5, 0.9)
    net, cq = build_revolution_cmc(Q_SPH, 0.3, hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 2, profile)
    assert symmetric_pcq_check(cq, profile) and scalar_symmetric(net, cq)

    # a quantity whose ambient vector has a rotation-plane component is not
    # rotationally symmetric
    patch = centred_cylinder(5, 3, 0.3, np.pi / 4)
    angles = RotationProfile(np.pi / 4 * np.array([-1.0, 0.0, 1.0]))
    zz = catalog.zigzag_quantity(patch)
    assert not symmetric_pcq_check(zz, angles) and not scalar_symmetric(patch, zz)
    # the cylinder's own quantity (flat ambient vector) is symmetric
    cyl = catalog.cylinder_quantity(patch)
    assert symmetric_pcq_check(cyl, angles) and scalar_symmetric(patch, cyl)
    # the profile gives one angle per column
    with pytest.raises(ValueError, match="4 rotation angles for 3 columns"):
        symmetric_pcq_check(cyl, RotationProfile.uniform(4, np.pi / 4))


def test_symmetric_pcq_check_ignores_lift_scalings():
    """Lifts rescaled along the rotation carry the same quantity, and it
    stays symmetric; only the scalar criterion, which reads the scalings,
    changes its answer."""
    profile = RotationProfile.uniform(5, 0.9)
    net, cq = build_revolution_cmc(Q_SPH, 0.3, hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 2, profile)
    scales = np.linspace(1.0, 2.0, net.domain.cols)
    rescaled = IsothermicNet(VertexField(net.lifts.data * scales[None, :, None]), net.weights)
    assert pcq_verify(rescaled, cq).ok
    assert symmetric_pcq_check(ConservedQuantity(rescaled, cq.coeffs), profile)
    assert not scalar_symmetric(rescaled, cq)


@pytest.mark.parametrize("H", [0.0, 0.5, 1.0])
def test_find_seed_edge_skips_starts_parallel_to_Q(H):
    """At kappa 1, Q = (1, 0, 0) is the first scanned start M0 = (1, 0, 0):
    the scan skips it, solves one seed edge and finds the edge it found
    after twelve refused solves before."""
    solves = mock.Mock(side_effect=revolution.seed_edge)
    with mock.patch.object(revolution, "seed_edge", solves):
        M0, M1, branch = revolution.find_seed_edge(default_space_form(1.0), H)
    assert solves.call_count == 1
    assert [x.hex() for x in (*M0, *M1)] == [
        "0x1.0666666666666p+0", "0x0.0p+0", "0x1.ccccccccccccap-3",
        "0x1.0a4fa4fa4fa50p+0", "0x1.1c71c71c71c72p-2", "0x1.2222222222220p-4"]
    assert branch == 0


def test_seed_edge_minimal_has_single_factor(rng):
    count = 0
    for _ in range(40):
        try:
            _, _, sols = admissible_seed(rng, Q_HYP, 0.0, tries=50)
        except AssertionError:
            continue
        count += 1
        assert len(sols) == 1
        assert sols[0].alpha > 0
    assert count >= 20


def test_seed_edge_generic_two_solutions(rng):
    M0, M1, sols = admissible_seed(rng, Q_FLAT, 0.35)
    assert len(sols) == 2
    for sol in sols:
        assert abs(float(norm3(sol.sphere0)) - 1.0) < 1e-9
        assert abs(float(norm3(sol.sphere1)) - 1.0) < 1e-9
        assert reference.meridian_residual(M0, sol.sphere0, M1, sol.sphere1, Q_FLAT,
                                           sol.alpha, sol.edge_weight, 0.35) < 1e-9


def test_seed_edge_constraint_violated():
    M0 = hyperbolic_point(0.2, 0.8)
    M1 = hyperbolic_point(0.45, 0.9)
    with pytest.raises(ConstraintViolated):
        seed_edge(Q_SPH, 50.0, M0, M1)  # C^2 H^2 > A


def test_seed_edge_boundary_and_basis_errors():
    with pytest.raises(InfinityBoundary):
        seed_edge(Q_HYP, 0.0, hyperbolic_point(0.0, 1.0), hyperbolic_point(0.3, 1.1))
    # Q parallel to the span of M0, M1 (all three in one Lorentz plane)
    M0 = hyperbolic_point(0.0, 1.0)
    M1 = hyperbolic_point(0.3, 1.0)
    with pytest.raises(DegenerateBasis):
        seed_edge(M0 + M1, 0.2, M0, M1)


@pytest.mark.parametrize("H, M0, M1, error, message", [
    (0.0, [-1.0, -1.0, -1.0], [-1.0, -1.0, 0.0], DegenerateBasis,
     "seed normalization scale A = -13.8 is not positive"),
    (1.0, [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], ConstraintViolated,
     "equality case with H^2 = Delta / gram(M0, M1): no nonzero factor"),
    (0.5, [-1e5, -1e5, -1e5], [-1e5, -1e5, 5e4], ConstraintViolated,
     "both normalization factors vanish"),
])
def test_seed_edge_refuses_points_off_the_hyperboloid(H, M0, M1, error, message):
    """``seed_edge`` takes its points as given, as a ``--seed-edge`` file
    passes them: off the hyperboloid |M|^2 = -1 the normalization scale A
    can be negative, the double root zero, or, for points of length s, both
    roots of size 1/s^2 vanish.  Each is refused with its own message; on
    the hyperboloid A is positive."""
    with pytest.raises(error, match=re.escape(message)):
        seed_edge(Q_FLAT, H, np.array(M0), np.array(M1))


def test_meridian_step_postconditions():
    M0 = hyperbolic_point(0.0, 1.0)
    M1 = hyperbolic_point(0.3, 1.1)
    H = 0.35
    sols = seed_edge(Q_FLAT, H, M0, M1)
    sol = sols[0]
    kappa = -float(norm3(Q_FLAT))
    M2, S2 = meridian_step((M1, sol.sphere1), Q_FLAT, sol.alpha, sol.edge_weight,
                           H, kappa, prev=M0)
    target = -(1.0 + sol.edge_weight / sol.alpha)
    assert float(inner3(M2, M1)) == pytest.approx(target, rel=1e-11)
    assert float(norm3(M2)) == pytest.approx(-1.0, abs=1e-11)
    assert float(norm3(S2)) == pytest.approx(1.0, abs=1e-10)
    # the discarded branch is the predecessor: stepping back returns M0, S0
    M3, S3 = meridian_step((M2, S2), Q_FLAT, sol.alpha, sol.edge_weight,
                           H, kappa, prev=M1)
    back_M, back_S = meridian_step((M2, S2), Q_FLAT, sol.alpha, sol.edge_weight,
                                   H, kappa, prev=M3)
    np.testing.assert_allclose(back_M, M1, atol=1e-10)
    np.testing.assert_allclose(back_S, sol.sphere1, atol=1e-10)
    back2_M, back2_S = meridian_step((M1, sol.sphere1), Q_FLAT, sol.alpha,
                                     sol.edge_weight, H, kappa, prev=M2)
    np.testing.assert_allclose(back2_M, M0, atol=1e-10)
    np.testing.assert_allclose(back2_S, sol.sphere0, atol=1e-10)


def test_meridian_step_degenerate_gate():
    M0 = hyperbolic_point(0.0, 1.0)
    M1 = hyperbolic_point(0.3, 1.1)
    H = 0.35
    sol = seed_edge(Q_FLAT, H, M0, M1)[0]
    c = sol.edge_weight
    kappa_degenerate = (1.0 - 2.0 * c * H) / (c * c)
    with pytest.raises(ConstraintViolated, match="alternate"):
        meridian_step((M1, sol.sphere1), Q_FLAT, sol.alpha, c, H,
                      kappa_degenerate, prev=M0)


def test_build_reproduces_cylinder():
    # seeding on the unit cylinder with H = 1/2 and the flat ambient vector
    # continues the cylinder: the meridian radius stays exactly one
    eta_step = 0.3
    M0 = hyperbolic_point(0.0, 1.0)
    M1 = hyperbolic_point(eta_step, 1.0)
    sols = seed_edge(Q_FLAT, 0.5, M0, M1)
    alphas = [s.alpha for s in sols]
    branch = int(np.argmin(np.abs(np.array(alphas) + 0.5)))
    assert alphas[branch] == pytest.approx(-0.5, abs=1e-12)
    net, cq = build_revolution_cmc(Q_FLAT, 0.5, M0, M1, 4,
                                   RotationProfile.uniform(6, 0.9), branch=branch)
    eta, rho = profile_coordinates(meridian_points(net))
    np.testing.assert_allclose(rho, 1.0, atol=1e-10)
    np.testing.assert_allclose(np.diff(eta), eta_step, atol=1e-10)
    H, kappa = mean_curvature_data(cq)
    assert H == pytest.approx(0.5, abs=1e-12)
    assert kappa == pytest.approx(0.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:meridian crossed")
def test_build_hyperbolic_catenoid():
    # minimal net of revolution in hyperbolic space (no real complementary
    # nets): the discrete counterpart of a catenoid-like minimal surface
    net, cq = build_revolution_cmc(Q_HYP, 0.0, hyperbolic_point(0.1, 0.7),
                                   hyperbolic_point(0.35, 0.8), 3,
                                   RotationProfile.uniform(7, 0.8))
    assert verify_isothermic(net.lifts).ok
    assert pcq_verify(net, cq).value < 1e-8
    H, kappa = mean_curvature_data(cq)
    assert H == pytest.approx(0.0, abs=1e-12)
    assert kappa == pytest.approx(-1.0, abs=1e-12)
    assert complementary(cq) == []
    assert symmetric_pcq_check(cq, RotationProfile.uniform(7, 0.8)) and scalar_symmetric(net, cq)


def test_build_spherical_candidate_torus():
    # H^2 + kappa > 0 in a spherical ambient: closure is reported as a
    # defect, not solved for
    net, cq = build_revolution_cmc(Q_SPH, 0.3, hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 5,
                                   RotationProfile.uniform(8, 2 * np.pi / 8))
    H, kappa = mean_curvature_data(cq)
    assert (H, kappa) == (pytest.approx(0.3, abs=1e-12), pytest.approx(1.0, abs=1e-12))
    assert len(complementary(cq)) == 2
    # meridian closure defect: distance between first and last samples
    pts = meridian_points(net)
    defect = float(np.linalg.norm(pts[-1] - pts[0]))
    assert np.isfinite(defect)


def test_build_invariants_meridian_weight_constant():
    net, cq = build_revolution_cmc(Q_SPH, 0.3, hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 3,
                                   RotationProfile.uniform(5, 0.9))
    # meridian edge weight is the constant c and the propagation gate is
    # edge independent
    u = net.weights.u
    np.testing.assert_allclose(u, u[0], rtol=1e-10)
    H, kappa = mean_curvature_data(cq)
    gate = 1.0 - 2.0 * u[0] * H - u[0] ** 2 * kappa
    assert gate > 0
    # sphere curve consistency: stepping from the seed reproduces the data
    # used to assemble the net (validated internally); |S| = 1 throughout
    M = meridian_points(net)
    assert np.abs(norm3(M) + 1.0).max() < 1e-10


def test_complementary_count_matches_invariant_sign():
    cases = [
        (Q_SPH, 0.3, 2),   # H^2 + kappa > 0
        (Q_HYP, 1.0, 1),   # H^2 + kappa = 0
        (Q_HYP, 0.0, 0),   # H^2 + kappa < 0
    ]
    for Q, H, count in cases:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            net, cq = build_revolution_cmc(Q, H, hyperbolic_point(0.2, 0.8),
                                           hyperbolic_point(0.45, 0.9), 2,
                                           RotationProfile.uniform(5, 0.9))
        assert len(complementary(cq)) == count


#: The warning of the array oracle's meridian step at each crossing.
CROSSING = "meridian crossed the infinity boundary of the space form"


def test_meridian_crossing_warns():
    """Crossing the infinity boundary is allowed and announced: a meridian
    step across it gives no warning, and the build warns once, naming the
    steps that changed the sign of <Q, M> (the seed edge is no step)."""
    M0, M1 = hyperbolic_point(0.1, 0.7), hyperbolic_point(0.35, 0.8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        net, _ = build_revolution_cmc(Q_HYP, 0.0, M0, M1, 3, RotationProfile.uniform(5, 0.8))
    points = meridian_points(net)
    qm = inner3(Q_HYP, points)
    crossed = qm[1:] * qm[:-1] < 0
    assert crossed.any() and not crossed[3]
    assert [str(w.message) for w in caught] == [
        f"{CROSSING} in {np.count_nonzero(crossed)} meridian steps"]

    # step forward from the seed edge through the first crossing, silently
    last = 4 + int(np.argmax(crossed[4:]))
    assert crossed[last]
    sol = seed_edge(Q_HYP, 0.0, M0, M1)[0]
    state = (M1, sol.sphere1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in range(4, last + 1):
            state = meridian_step(state, Q_HYP, sol.alpha, sol.edge_weight, 0.0,
                                  -float(norm3(Q_HYP)), prev=points[m - 1])
    assert np.array_equal(state[0], points[last + 1])


def test_the_crossing_text_lives_in_the_builder_only():
    """One module words the crossing warning, and the command line counts
    nothing itself: no filter of cli.py matches on a message's text."""
    src = pathlib.Path(revolution.__file__).parent
    wording, filters = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "meridian crossed the infinity boundary" in node.value):
                wording.append(path.name)
            elif (isinstance(node, ast.Call) and path.name == "cli.py"
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "filterwarnings"
                  and (len(node.args) > 1 or any(k.arg == "message" for k in node.keywords))):
                filters.append(node.lineno)
    assert wording == ["revolution.py"]
    assert filters == []


def test_seed_and_step_consistent():
    # stepping forward from the seed start, away from the point before it,
    # reproduces the seed end
    M0 = hyperbolic_point(0.1, 0.9)
    M1 = hyperbolic_point(0.4, 1.0)
    H = 0.3
    sol = seed_edge(Q_SPH, H, M0, M1)[0]
    kappa = -float(norm3(Q_SPH))
    before, _ = meridian_step((M0, sol.sphere0), Q_SPH, sol.alpha,
                              sol.edge_weight, H, kappa, prev=M1)
    M1b, S1b = meridian_step((M0, sol.sphere0), Q_SPH, sol.alpha,
                             sol.edge_weight, H, kappa, prev=before)
    np.testing.assert_allclose(M1b, M1, atol=1e-10)
    np.testing.assert_allclose(S1b, sol.sphere1, atol=1e-10)


def test_closure_defect_report():
    profile = RotationProfile.uniform(8, 2 * np.pi / 8)
    net, _ = build_revolution_cmc(Q_SPH, 0.3, hyperbolic_point(0.1, 0.9),
                                  hyperbolic_point(0.4, 1.0), 2, profile)
    defect = closure_defect(net, profile)
    assert defect["angle_defect"] == pytest.approx(0.0, abs=1e-12)
    assert defect["meridian_gap"] > 0


def test_a_loaded_net_of_revolution_reads_as_the_built_one(tmp_path):
    """A net file keeps lifts and weights only, and they are all the
    closure report and the symmetry check need: on the net that
    ``generate revolution`` wrote and ``load_net`` read back, both answer
    as on the net built in memory, and the closure equals the file's."""
    path = tmp_path / "net.json"
    assert cli.main(["generate", "revolution", "--H", "0.3", "--kappa", "1", "--steps", "3",
                     "--angles", "8", "-o", str(path)]) == 0
    loaded, (loaded_cq,), metadata = load_net(path)
    profile = RotationProfile.uniform(8, 2 * np.pi / 8)
    M0, M1, branch = revolution.find_seed_edge(Q_SPH, 0.3)
    built, built_cq = build_revolution_cmc(Q_SPH, 0.3, M0, M1, 3, profile, branch=branch)
    assert closure_defect(loaded, profile) == closure_defect(built, profile) == metadata["closure"]
    assert symmetric_pcq_check(loaded_cq, profile) and symmetric_pcq_check(built_cq, profile)
    np.testing.assert_array_equal(meridian_points(loaded), meridian_points(built))
    # the cylinder's Euclidean lifts carry |f|^2 = (eta m)^2 + cos^2 + sin^2,
    # which rounds differently from column to column
    with pytest.raises(ValueError, match="the columns of the net carry different meridians"):
        meridian_points(catalog.cylinder_net(4, 4, 0.3, np.pi / 4))


M_GUARD = hyperbolic_point(0.1, 0.9)


@pytest.mark.parametrize("state, Q, c, H, kappa, error, message", [
    ((M_GUARD, [0.0, 0.0, 1.0]), Q_FLAT, -0.1, 0.0, 0.0, ConstraintViolated,
     "c / alpha must be positive"),
    ((hyperbolic_point(0.0, 1.0), [0.0, 0.0, 1.0]), Q_HYP, 0.1, 0.0, -1.0, InfinityBoundary,
     "meridian point on the infinity boundary"),
    ((M_GUARD, [0.0, 0.0, 1.0]), Q_FLAT, 0.5, 1.0, 0.0, ConstraintViolated,
     "degenerate propagation (1 - 2cH - c^2 kappa = 0)"),
    # S = -c (Q + <Q, M> M) makes the auxiliary sphere X vanish
    ((M_GUARD, -0.1 * (Q_FLAT + inner3(Q_FLAT, M_GUARD) * M_GUARD)), Q_FLAT, 0.1, 0.0, 0.0,
     VanishingX, "auxiliary sphere vanishes"),
    ((M_GUARD, [0.0, 0.0, 1.0]), Q_FLAT, 0.5, 2.0, 0.0, ConstraintViolated,
     "propagation gate 1 - 2cH - c^2 kappa = -1 is negative"),
    # a point on the other sheet of the hyperboloid steps along that sheet
    ((-M_GUARD, [0.0, 0.0, 1.0]), Q_FLAT, 0.1, 0.0, 0.0, AxisCrossing,
     "next meridian point left the hyperbolic half plane"),
])
def test_meridian_step_guards(state, Q, c, H, kappa, error, message):
    """Each guard of a meridian step: the sign of c / alpha, a point on the
    infinity boundary, a zero propagation gate, a vanishing auxiliary
    sphere, a negative propagation gate and a next point off the hyperbolic
    half plane."""
    with pytest.raises(error, match=re.escape(message)):
        meridian_step(state, Q, 1.0, c, H, kappa, prev=hyperbolic_point(0.0, 1.0))


def _outcome(run):
    """The bytes of the arrays run() returns, or the type and message of the
    error it raises, with the messages of the warnings it gives; under the
    CLI's ``np.errstate``.  numpy names an operation on scalars "scalar
    multiply" where the same one on arrays reads "multiply", so that word
    is dropped from the messages of floating-point errors."""
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("always")
        try:
            result = [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, run())]
        except FloatingPointError as exc:
            result = (FloatingPointError, str(exc).replace("scalar ", ""))
        except (GeometryError, ValueError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def _constructor_outcomes(Q, H, seed, steps, angles):
    """Seed solve, a step past the seed edge, seed search and build through
    the functions of the ``revolution`` module, each with its outcome."""
    kappa = -float(norm3(Q))
    M0, M1, branch = seed

    def step():
        sol = revolution.seed_edge(Q, H, M0, M1)[0]
        return revolution.meridian_step((M1, sol.sphere1), Q, sol.alpha, sol.edge_weight,
                                        H, kappa, prev=M0)

    def build():
        net, cq = revolution.build_revolution_cmc(
            Q, H, M0, M1, steps, RotationProfile.uniform(angles, 2.0 * np.pi / angles),
            branch=branch)
        return (net.lifts.data, net.weights.u, net.weights.v, cq.coeffs,
                revolution.meridian_points(net))

    return [_outcome(lambda: [x for s in revolution.seed_edge(Q, H, M0, M1)
                              for x in ([s.alpha, s.edge_weight], s.sphere0, s.sphere1)]),
            _outcome(step),
            _outcome(lambda: revolution.find_seed_edge(Q, H)),
            _outcome(build)]


@settings(max_examples=80, deadline=None)
@given(H=st.floats(-2.0, 2.0), kappa=st.floats(-2.0, 2.0), found=st.booleans(),
       ends=st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 2.0),
                      st.floats(-1.0, 1.0), st.floats(0.1, 2.0)),
       branch=st.integers(0, 1), steps=st.integers(0, 8), angles=st.integers(2, 9))
def test_constructor_is_the_array_oracle_bitwise(H, kappa, found, ends, branch, steps, angles):
    """The scalar constructor gives the lifts, weights, quantity coefficients and
    meridian of the array oracles of tests/reference.py bit for bit, or
    raises the same error with the same message; its one crossing warning
    counts the oracle's warnings of one crossing each."""
    Q = default_space_form(kappa)
    try:
        seed = revolution.find_seed_edge(Q, H) if found else None
    except GeometryError:
        seed = None
    if seed is None:
        seed = (hyperbolic_point(*ends[:2]), hyperbolic_point(*ends[2:]), branch)
    scalar = _constructor_outcomes(Q, H, seed, steps, angles)
    with mock.patch.multiple(revolution, seed_edge=reference.seed_edge,
                             meridian_step=reference.meridian_step,
                             _meridian_residual=reference.meridian_residual):
        oracle = _constructor_outcomes(Q, H, seed, steps, angles)
    # The oracle's step warns at each crossing, the library's never; a build
    # that completes warns once, with as many steps as the oracle warned of.
    crossings = oracle[3][1].count(CROSSING)
    built = isinstance(scalar[3][0], list)
    assert scalar[3][1] == ([f"{CROSSING} in {crossings} meridian steps"]
                            if built and crossings else [])
    assert scalar == [(result, [w for w in caught if w != CROSSING])
                      for result, caught in oracle]
