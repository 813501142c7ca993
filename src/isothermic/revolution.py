"""Discrete surfaces of revolution and the cmc meridian constructor.

A surface of revolution splits the ambient space as R^{2,1} + R^2: the
meridian is a polygon M_0, M_1, ... in the hyperbolic plane of the Lorentz
factor, the rotation acts on the plane factor, and the net's canonical lift
alternates sign along the meridian,

    F_(m,n) = (-1)^m ( M_m + (cos phi_n, sin phi_n) ).

With edge weights a_ij = alpha <F_i, F_j> this lift satisfies the Moutard
normalization.  A rotationally symmetric linear conserved quantity is
carried by a sphere curve S_m in the Lorentz factor via

    Z_(m,n) = S_m - alpha <Q, F_(m,n)> F_(m,n),

subject to <S, M> = 0, dS = 2 alpha <Q, M_avg> dM, and the prescribed mean
curvature <S, Q> = -H + alpha <M, Q>^2.  Solving these on a seed edge and
propagating with a constant meridian weight builds cmc nets of revolution
for any admissible (H, kappa).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .conserved import ConservedQuantity
from .errors import (
    AxisCrossing,
    AxisPoint,
    ConstraintViolated,
    DegenerateBasis,
    GeometryError,
    InfinityBoundary,
    RepeatedPoint,
    VanishingX,
)
from .grids import EdgeFunction, GridDomain, VertexField
from .minkowski import (
    SIGNATURE,
    embed_lorentz3,
    hyperbolic_point,
    inner3,
    lorentz_cross,
    norm3,
    solve_dense,
)
from .nets import IsothermicNet
from .polyvec import mp_inner_vec
from .tolerances import Check, tol


@dataclass
class RotationProfile:
    """Rotation angles (radians) for the circular direction, plus the unit
    starting direction of the rotation plane."""

    angles: np.ndarray
    direction: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0]))

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        if len(self.angles) < 2:
            raise ValueError("need at least two rotation angles")
        d = np.diff(self.angles)
        if np.any(np.abs(np.sin(d / 2.0)) <= tol(1.0)):
            raise RepeatedPoint("consecutive rotation angles coincide mod 2*pi")
        if abs(float(np.dot(self.direction, self.direction)) - 1.0) > tol(1.0):
            raise ValueError("rotation direction must be a unit vector")

    @classmethod
    def uniform(cls, count: int, step: float, start: float = 0.0) -> "RotationProfile":
        return cls(start + step * np.arange(count))

    def plane_points(self) -> np.ndarray:
        """The rotated directions (cos, sin pairs), shape (count, 2)."""
        c, s = self.direction
        return np.stack([c * np.cos(self.angles) - s * np.sin(self.angles),
                         c * np.sin(self.angles) + s * np.cos(self.angles)], axis=-1)


@dataclass
class Meridian:
    """Meridian polygon with its enveloped sphere curve and quantity data.

    Fields: hyperbolic points (|M|^2 = -1, first component positive), unit
    sphere vectors S with <S, M> = 0, the ambient vector Q of the Lorentz
    factor, the lift normalization factor alpha, the constant meridian edge
    weight c and the mean curvature H.
    """

    points: np.ndarray  # (k, 3)
    spheres: np.ndarray  # (k, 3)
    space_form: np.ndarray  # (3,)
    alpha: float
    edge_weight: float
    mean_curvature: float

    def validate(self) -> float:
        M, S, Q = self.points, self.spheres, self.space_form
        alpha, c, H = self.alpha, self.edge_weight, self.mean_curvature
        dM = M[1:] - M[:-1]
        Mavg = (M[1:] + M[:-1]) / 2.0
        dS = S[1:] - S[:-1]
        qm = inner3(Q, Mavg)
        return float(np.max([np.abs(norm3(M) + 1.0).max(),
                             np.abs(norm3(S) - 1.0).max(),
                             np.abs(inner3(S, M)).max(),
                             np.abs(dS - 2.0 * alpha * qm[:, None] * dM).max(),
                             np.abs(inner3(S, Q) + H - alpha * inner3(M, Q) ** 2).max(),
                             np.abs(inner3(M[1:], M[:-1]) + 1.0 + c / alpha).max()]))


@dataclass
class SeedSolution:
    alpha: float
    sphere0: np.ndarray
    sphere1: np.ndarray
    edge_weight: float  # c = alpha * |dM|^2 / 2


def _check_profile(eta, rho):
    eta = np.asarray(eta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if eta.shape != rho.shape or eta.ndim != 1 or len(eta) < 2:
        raise ValueError("profile arrays must be equal-length 1-d with >= 2 samples")
    if np.any(rho <= tol(1.0)):
        raise AxisPoint("profile radius must stay positive")
    if np.any((np.diff(eta) ** 2 + np.diff(rho) ** 2) <= tol(1.0) ** 2):
        raise RepeatedPoint("consecutive profile points coincide")
    return eta, rho


def revolution_lift(eta, rho, angles) -> IsothermicNet:
    """Isothermic net of the surface of revolution with profile (eta, rho)
    and rotation angles ``angles``.

    Uses the alternating canonical lift and the Moutard-normalized weights
    a = <F_i, F_j>: along the meridian (d eta^2 + d rho^2)/(2 rho rho'),
    along the rotation -2 sin^2(d phi / 2).
    """
    eta, rho = _check_profile(eta, rho)
    profile = angles if isinstance(angles, RotationProfile) else RotationProfile(angles)
    M = np.stack([hyperbolic_point(e, r) for e, r in zip(eta, rho)])
    return _assemble_net(M, profile, alpha=1.0)


def _assemble_net(M, profile: RotationProfile, alpha: float) -> IsothermicNet:
    k = M.shape[0]
    plane = profile.plane_points()
    count = plane.shape[0]
    domain = GridDomain(k, count)
    signs = (-1.0) ** np.arange(k)
    lifts = np.zeros((k, count, 5))
    lifts[:, :, 0] = M[:, None, 0]
    lifts[:, :, 1] = M[:, None, 1]
    lifts[:, :, 4] = M[:, None, 2]
    lifts[:, :, 2] = plane[None, :, 0]
    lifts[:, :, 3] = plane[None, :, 1]
    lifts *= signs[:, None, None]
    u = alpha * (-1.0 - inner3(M[1:], M[:-1]))
    dphi = np.diff(profile.angles)
    v = alpha * (-2.0) * np.sin(dphi / 2.0) ** 2
    return IsothermicNet(domain, VertexField(domain, lifts), EdgeFunction(domain, u, v),
                         revolution=RevolutionStructure(profile, M.copy(), alpha))


@dataclass
class RevolutionStructure:
    """Rotational data attached to nets built by the revolution builders."""

    profile: RotationProfile
    meridian_points: np.ndarray
    alpha: float


def symmetric_pcq_check(net: IsothermicNet, cq: ConservedQuantity) -> bool:
    """Whether a conserved quantity shares the net's rotational symmetry,
    i.e. the vertex polynomials differ along the circular direction only by
    the plane rotation.

    Also evaluates the scalar criterion that <P(lam), F> must not depend on
    the rotation index, and asserts the two tests agree; the lifts' scalings
    must be independent of the rotation index for the scalar criterion to be
    meaningful, which holds for all builder outputs.
    """
    if net.revolution is None:
        raise ValueError("net carries no rotational structure")
    angles = net.revolution.profile.angles
    coeffs = cq.coeffs
    scale = cq.scale()

    rotated = coeffs.copy()
    for ni, phi in enumerate(angles):
        c, s = np.cos(-phi), np.sin(-phi)
        x = coeffs[:, ni, :, 2].copy()
        y = coeffs[:, ni, :, 3].copy()
        rotated[:, ni, :, 2] = c * x - s * y
        rotated[:, ni, :, 3] = s * x + c * y
    equivariant = float(np.abs(rotated - rotated[:, :1]).max()) <= tol(scale)

    p = mp_inner_vec(coeffs, net.lifts.data[:, :, None, :])
    scalar = float(np.abs(p - p[:, :1]).max()) <= tol(scale * net.lift_scale())

    if equivariant != scalar:
        raise AssertionError(
            f"symmetry tests disagree (equivariant={equivariant}, scalar={scalar})")
    return equivariant


def seed_edge(Q, H: float, M0, M1) -> list[SeedSolution]:
    """Solve for the lift factor alpha and the seed spheres S_0, S_1 on a
    meridian edge with prescribed ambient vector and mean curvature.

    With Delta the Gram determinant of (Q, M0, M1) and

        C = |dM|^2 <M_avg, Q>,
        B = -|dM|^2 ( |M_avg|^2 <M0,Q> <M1,Q> + 2 <M_avg,Q>^2 ),
        A = -(B^2 - Delta C^2) / gram(M0, M1),

    the unit-sphere condition reads (alpha + B H / A)^2 = Delta (C^2 H^2
    - A) / A^2, solvable iff C^2 H^2 <= A; each nonzero root determines
    S_0, S_1 through two 3x3 solves.  For H = 0 the two roots differ only
    by the overall sign of (alpha, S), describing the same unoriented
    congruence, and the positive representative is returned.

    Raises
    ------
    InfinityBoundary, DegenerateBasis, ConstraintViolated
    """
    Q = np.asarray(Q, dtype=float)
    M0 = np.asarray(M0, dtype=float)
    M1 = np.asarray(M1, dtype=float)
    qm0 = float(inner3(Q, M0))
    qm1 = float(inner3(Q, M1))
    qscale = float(np.linalg.norm(Q))
    if abs(qm0) <= tol(qscale) or abs(qm1) <= tol(qscale):
        raise InfinityBoundary("seed points lie on the infinity boundary")
    G = np.array([[float(norm3(Q)), qm0, qm1],
                  [qm0, -1.0, float(inner3(M0, M1))],
                  [qm1, float(inner3(M0, M1)), -1.0]])
    delta = float(np.linalg.det(G))
    if abs(delta) <= tol(max(1.0, qscale ** 2)):
        raise DegenerateBasis("(Q, M0, M1) do not span the Lorentz 3-space")
    dM = M1 - M0
    Mavg = (M0 + M1) / 2.0
    d2 = float(norm3(dM))
    gram_mm = float(1.0 - inner3(M0, M1) ** 2)  # det of the 2x2 Gram of (M0, M1), < 0
    cc = d2 * float(inner3(Mavg, Q))
    bb = -d2 * (float(norm3(Mavg)) * qm0 * qm1 + 2.0 * float(inner3(Mavg, Q)) ** 2)
    aa = -(bb * bb - delta * cc * cc) / gram_mm
    if aa <= 0.0:
        raise DegenerateBasis(f"seed normalization scale A = {aa:.3g} is not positive")

    margin = aa - cc * cc * H * H
    scale = abs(aa) + cc * cc * H * H
    Check("mean curvature too large for this edge: C^2 H^2 - A", -margin,
          tol(scale)).require(ConstraintViolated)
    margin = max(margin, 0.0)
    disc = np.sqrt(delta * (-margin)) / aa  # delta < 0, so the radicand is >= 0
    center = -bb * H / aa
    if margin <= tol(scale):
        # double root; it must not vanish
        if abs(center) <= tol(1.0):
            raise ConstraintViolated(
                "equality case with H^2 = Delta / gram(M0, M1): no nonzero factor")
        alphas = [center]
    elif H == 0.0:
        alphas = [abs(disc)]
    else:
        alphas = [a for a in (center + disc, center - disc) if abs(a) > tol(1.0)]
        if not alphas:
            raise ConstraintViolated("both normalization factors vanish")

    out = []
    for alpha in alphas:
        rhs_shared = -alpha * float(inner3(Q, Mavg)) * d2
        b0 = np.array([-H + alpha * qm0 * qm0, 0.0, rhs_shared])
        b1 = np.array([-H + alpha * qm1 * qm1, rhs_shared, 0.0])
        x0 = solve_dense(G, b0)
        x1 = solve_dense(G, b1)
        basis = np.stack([Q, M0, M1])
        S0 = basis.T @ x0
        S1 = basis.T @ x1
        c = alpha * d2 / 2.0
        sol = SeedSolution(float(alpha), S0, S1, float(c))
        resid = Meridian(np.stack([M0, M1]), np.stack([S0, S1]), Q,
                         float(alpha), float(c), H).validate()
        Check("seed solve inconsistent", resid,
              tol(10.0 * (1.0 + abs(alpha)) * (1.0 + qscale) ** 2)).require(ConstraintViolated)
        out.append(sol)
    return out


def meridian_step(state, Q, alpha: float, c: float, H: float, kappa: float,
                  prev=None):
    """One propagation step of the meridian: from (M_m, S_m) construct
    (M_{m+1}, S_{m+1}) with constant edge weight c.

    The next point lies on the line cut out by <M', M> = -(1 + c/alpha)
    and the sphere condition through

        X = S + c (Q + <Q, M> M),

    offset along the orthogonal direction Y (same length as X, oriented so
    det(M, X, Y) > 0) by t with

        t^2 = ((alpha+c)^2 - alpha^2)(1 - 2cH - c^2 kappa) / alpha^2.

    One sign of t returns to the predecessor; if ``prev`` is given that
    branch is discarded, otherwise the branch advancing the axis coordinate
    slot is taken.  The sphere curve then follows as
    S' = S + 2 alpha <Q, M_avg> dM.

    Raises
    ------
    ConstraintViolated, VanishingX, InfinityBoundary, AxisCrossing
    """
    M, S = (np.asarray(x, dtype=float) for x in state)
    Q = np.asarray(Q, dtype=float)
    if c / alpha <= 0:
        raise ConstraintViolated("c / alpha must be positive")
    qm = float(inner3(Q, M))
    if abs(qm) <= tol(float(np.linalg.norm(Q))):
        raise InfinityBoundary("meridian point on the infinity boundary")
    gate = 1.0 - 2.0 * c * H - c * c * kappa
    gate_scale = 1.0 + abs(c * H) + abs(c * c * kappa)
    if abs(gate) <= tol(gate_scale):
        raise ConstraintViolated(
            "degenerate propagation (1 - 2cH - c^2 kappa = 0): the step would "
            "alternate the two endpoints of one edge")
    if gate < 0:
        raise ConstraintViolated(
            f"propagation gate 1 - 2cH - c^2 kappa = {gate:.3g} is negative")
    X = S + c * (Q + qm * M)
    x2 = float(norm3(X))
    if x2 <= tol(1.0 + c * c * float(np.dot(Q, Q))):
        raise VanishingX("auxiliary sphere vanishes; edge would cross the axis")
    Y = lorentz_cross(M, X)
    ratio = (alpha + c) / alpha
    drop = ((alpha + c) ** 2 - alpha ** 2) / alpha
    base = ratio * M - (drop * qm / x2) * X
    t2 = (((alpha + c) ** 2 - alpha ** 2) * gate) / (alpha * alpha)
    t = np.sqrt(t2)
    cand_plus = base + (t / x2) * Y
    cand_minus = base - (t / x2) * Y
    if prev is not None:
        prev = np.asarray(prev, dtype=float)
        d_plus = float(np.linalg.norm(cand_plus - prev))
        d_minus = float(np.linalg.norm(cand_minus - prev))
        M_next = cand_plus if d_plus > d_minus else cand_minus
    else:
        M_next = cand_plus if cand_plus[1] >= cand_minus[1] else cand_minus
    if M_next[0] <= 0:
        raise AxisCrossing("next meridian point left the hyperbolic half plane")
    if float(inner3(Q, M_next)) * qm < 0:
        warnings.warn("meridian crossed the infinity boundary of the space form",
                      stacklevel=2)
    Mavg = (M + M_next) / 2.0
    S_next = S + 2.0 * alpha * float(inner3(Q, Mavg)) * (M_next - M)
    return M_next, S_next


def closure_defect(net: IsothermicNet) -> dict:
    """Measured closure defects of a net of revolution (reported, never
    solved for): the gap between the first and last meridian samples and
    the angular mismatch of the rotation profile against a full turn."""
    if net.revolution is None or net.revolution.meridian_points is None:
        raise ValueError("net carries no meridian data")
    pts = net.revolution.meridian_points
    angles = net.revolution.profile.angles
    step = float(angles[1] - angles[0])
    total = float(angles[-1] - angles[0]) + step
    return {
        "meridian_gap": float(np.linalg.norm(pts[-1] - pts[0])),
        "angle_defect": float((total + np.pi) % (2.0 * np.pi) - np.pi),
    }


def build_revolution_cmc(Q, H: float, M0, M1, steps_each_dir: int,
                         angles, branch: int = 0):
    """End-to-end constructor for a cmc net of revolution with prescribed
    mean curvature H and ambient curvature kappa = -|Q|^2.

    Seeds the meridian edge (M0, M1), propagates ``steps_each_dir`` steps in
    both directions, assembles the net with weights alpha <F_i, F_j>, and
    attaches the normalized linear conserved quantity built from the sphere
    curve.  Returns (net, quantity).
    """
    Q = np.asarray(Q, dtype=float)
    kappa = -float(norm3(Q))
    sols = seed_edge(Q, H, M0, M1)
    if not 0 <= branch < len(sols):
        raise ConstraintViolated(
            f"seed branch {branch} not available ({len(sols)} solution(s))")
    sol = sols[branch]
    alpha, c = sol.alpha, sol.edge_weight

    points = [np.asarray(M0, dtype=float), np.asarray(M1, dtype=float)]
    spheres = [sol.sphere0, sol.sphere1]
    for _ in range(steps_each_dir):  # forward past M1
        Mn, Sn = meridian_step((points[-1], spheres[-1]), Q, alpha, c, H, kappa,
                               prev=points[-2])
        points.append(Mn)
        spheres.append(Sn)
    for _ in range(steps_each_dir):  # backward past M0
        Mn, Sn = meridian_step((points[0], spheres[0]), Q, alpha, c, H, kappa,
                               prev=points[1])
        points.insert(0, Mn)
        spheres.insert(0, Sn)

    meridian = Meridian(np.stack(points), np.stack(spheres), Q, alpha, c, H)
    Check("meridian propagation inconsistent", meridian.validate(),
          tol(100.0 * (1.0 + abs(alpha)) * (1.0 + float(np.dot(Q, Q))))).require(ConstraintViolated)

    profile = angles if isinstance(angles, RotationProfile) else RotationProfile(angles)
    net = _assemble_net(meridian.points, profile, alpha)

    Q5 = embed_lorentz3(Q)
    S5 = embed_lorentz3(meridian.spheres)  # (k, 5)
    qf = (net.lifts.data * SIGNATURE * Q5).sum(-1)  # <Q, F> per vertex
    Z = S5[:, None, :] - alpha * qf[:, :, None] * net.lifts.data
    return net, ConservedQuantity.linear(net, Q5, Z)


def default_space_form(kappa: float) -> np.ndarray:
    """Ambient vector of the Lorentz 3-space with curvature kappa = -|Q|^2:
    the flat (1, 0, -1), or a spacelike or timelike axis vector."""
    if abs(kappa) < 1e-15:
        return np.array([1.0, 0.0, -1.0])
    if kappa < 0:
        return np.array([0.0, 0.0, np.sqrt(-kappa)])
    return np.array([np.sqrt(kappa), 0.0, 0.0])


def find_seed_edge(Q, H):
    """First admissible seed edge (M0, M1, branch) of a deterministic scan:
    both points off the infinity boundary, a solvable :func:`seed_edge` and
    a positive propagation gate 1 - 2cH - c^2 kappa.

    Raises
    ------
    GeometryError
        If no scanned edge is admissible.
    """
    candidates = []
    for eta0 in (0.0, 0.15, -0.2, 0.3):
        for rho0 in (1.0, 0.8, 1.3, 0.6):
            for deta in (0.25, 0.4, 0.15):
                for drho in (0.1, -0.15, 0.3, 0.0):
                    candidates.append((eta0, rho0, eta0 + deta, rho0 + drho))
    kappa = -float(norm3(Q))
    for eta0, rho0, eta1, rho1 in candidates:
        if rho1 <= 0.05:
            continue
        M0 = hyperbolic_point(eta0, rho0)
        M1 = hyperbolic_point(eta1, rho1)
        if abs(inner3(Q, M0)) < 1e-6 or abs(inner3(Q, M1)) < 1e-6:
            continue
        try:
            sols = seed_edge(Q, H, M0, M1)
        except GeometryError:
            continue
        for branch, sol in enumerate(sols):
            gate = 1.0 - 2.0 * sol.edge_weight * H - sol.edge_weight ** 2 * kappa
            if gate > 1e-6:
                return M0, M1, branch
    raise GeometryError("no admissible seed edge found for these (H, kappa)")
