"""Discrete surfaces of revolution and the cmc meridian constructor.

A surface of revolution splits the ambient space as R^{2,1} + R^2: the
meridian is a polygon M_0, M_1, ... in the hyperbolic plane of the Lorentz
factor, the rotation acts on the plane factor, and the net's canonical lift
alternates sign along the meridian,

    F_(m,n) = (-1)^m ( M_m + (cos phi_n, sin phi_n) ).

With edge weights a_ij = alpha <F_i, F_j> this lift satisfies the Moutard
normalization.  The net holds its lifts and weights only: the meridian is
read back from the lifts (:func:`meridian_points`), and the rotation angles
travel as the :class:`RotationProfile` the net was built with.

A rotationally symmetric linear conserved quantity is carried by a sphere
curve S_m in the Lorentz factor via

    Z_(m,n) = S_m - alpha <Q, F_(m,n)> F_(m,n),

subject to <S, M> = 0, dS = 2 alpha <Q, M_avg> dM, and the prescribed mean
curvature <S, Q> = -H + alpha <M, Q>^2.  Solving these on a seed edge and
propagating with a constant meridian weight builds cmc nets of revolution
for any admissible (H, kappa).

The recursion is sequential, so the seed solve, the meridian step and the
meridian check hold each vector as three np.float64 scalars (the check as
three columns) and take numpy's operation order (:func:`minkowski._dot3`),
which keeps the nets bitwise those of array code at a third of its cost
per step.  numpy's scalars, unlike Python floats, raise under the caller's
``np.errstate`` as arrays do.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .conserved import ConservedQuantity
from .errors import (
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
from .grids import EdgeFunction, VertexField
from .minkowski import (
    _dot3,
    embed_lorentz3,
    hyperbolic_point,
    inner3,
    minkowski_inner,
    norm3,
    solve_dense,
)
from .nets import IsothermicNet
from .tolerances import Check, tol


@dataclass
class RotationProfile:
    """Rotation angles (radians) for the circular direction, measured from
    the first axis of the rotation plane."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if len(self.angles) < 2:
            raise ValueError("need at least two rotation angles")
        if not np.isfinite(self.angles).all():
            index = int(np.argmin(np.isfinite(self.angles)))
            raise NonFiniteLift(f"rotation angle at index {index} is not finite")
        d = np.diff(self.angles)
        if np.any(np.abs(np.sin(d / 2.0)) <= tol(1.0)):
            raise RepeatedPoint("consecutive rotation angles coincide mod 2*pi")

    @classmethod
    def uniform(cls, count: int, step: float) -> "RotationProfile":
        """The angles 0, step, ..., (count - 1) step."""
        if not math.isfinite(step):
            raise NonFiniteLift(f"rotation step {step} is not finite")
        return cls(step * np.arange(count))

    def plane_points(self) -> np.ndarray:
        """The rotated directions (cos, sin pairs), shape (count, 2)."""
        return np.stack([np.cos(self.angles), np.sin(self.angles)], axis=-1)


def _meridian_residual(M, S, Mn, Sn, Q, alpha, c, H) -> float:
    """Largest residual of the meridian equations on the edges (M, S) to
    (Mn, Sn), as three components each: scalars, or columns of edges.  The
    points are hyperbolic (|M|^2 = -1), the spheres S unit with <S, M> = 0
    and <S, Q> = -H + alpha <M, Q>^2, and along each edge
    dS = 2 alpha <Q, M_avg> dM and <Mn, M> = -(1 + c / alpha), for the
    ambient vector Q, lift factor alpha, meridian edge weight c and mean
    curvature H."""
    qm = _dot3(Q, [(a + b) / 2.0 for a, b in zip(Mn, M)])
    terms = [(sn - s) - 2.0 * alpha * qm * (mn - m) for s, sn, m, mn in zip(S, Sn, M, Mn)]
    terms.append(_dot3(Mn, M) + 1.0 + c / alpha)
    for P, T in ((M, S), (Mn, Sn)):
        pq = _dot3(P, Q)
        terms += [_dot3(P, P) + 1.0, _dot3(T, T) - 1.0, _dot3(T, P),
                  _dot3(T, Q) + H - alpha * (pq * pq)]
    return float(np.max(np.abs(terms)))


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


def revolution_lift(eta, rho, angles: RotationProfile) -> IsothermicNet:
    """Isothermic net of the surface of revolution with profile (eta, rho)
    and rotation angles ``angles``.

    Uses the alternating canonical lift and the Moutard-normalized weights
    a = <F_i, F_j>: along the meridian (d eta^2 + d rho^2)/(2 rho rho'),
    along the rotation -2 sin^2(d phi / 2).
    """
    eta, rho = _check_profile(eta, rho)
    M = np.stack([hyperbolic_point(e, r) for e, r in zip(eta, rho)])
    return _assemble_net(M, angles, alpha=1.0)


def _assemble_net(M, profile: RotationProfile, alpha: float) -> IsothermicNet:
    k = M.shape[0]
    plane = profile.plane_points()
    count = plane.shape[0]
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
    return IsothermicNet(VertexField(lifts), EdgeFunction(u, v))


def meridian_points(net: IsothermicNet) -> np.ndarray:
    """The meridian M_m = (-1)^m F_(m,n)[0, 1, 4], shape (rows, 3), that the
    revolution builders place in every column; a ValueError unless every
    column carries the same M exactly (they only multiply it by +-1)."""
    M = net.lifts.data[..., [0, 1, 4]] * ((-1.0) ** np.arange(net.domain.rows))[:, None, None]
    if not (M == M[:, :1]).all():
        raise ValueError("the columns of the net carry different meridians")
    return M[:, 0]


def symmetric_pcq_check(cq: ConservedQuantity, profile: RotationProfile) -> bool:
    """Whether a conserved quantity shares the rotational symmetry of
    ``profile``, i.e. the vertex polynomials differ along the circular
    direction only by the plane rotation; a ValueError unless the profile
    has one angle per column.  Like the conserved-quantity condition itself,
    the answer does not depend on the scalings of the lifts.
    """
    coeffs = cq.coeffs
    angles = profile.angles
    if len(angles) != coeffs.shape[1]:
        raise ValueError(f"{len(angles)} rotation angles for {coeffs.shape[1]} columns")
    rotated = coeffs.copy()
    for ni, phi in enumerate(angles):
        c, s = np.cos(-phi), np.sin(-phi)
        x = coeffs[:, ni, :, 2].copy()
        y = coeffs[:, ni, :, 3].copy()
        rotated[:, ni, :, 2] = c * x - s * y
        rotated[:, ni, :, 3] = s * x + c * y
    return float(np.abs(rotated - rotated[:, :1]).max()) <= tol(cq.scale())


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
    q, m0, m1 = (_components(x) for x in (Q, M0, M1))
    qm0, qm1 = float(_dot3(q, m0)), float(_dot3(q, m1))
    qscale = math.sqrt(_euclid2(q))
    if abs(qm0) <= tol(qscale) or abs(qm1) <= tol(qscale):
        raise InfinityBoundary("seed points lie on the infinity boundary")
    g01 = float(_dot3(m0, m1))
    G = [[float(_dot3(q, q)), qm0, qm1], [qm0, -1.0, g01], [qm1, g01, -1.0]]
    delta = float(np.linalg.det(np.array(G)))
    if abs(delta) <= tol(max(1.0, qscale ** 2)):
        raise DegenerateBasis("(Q, M0, M1) do not span the Lorentz 3-space")
    dM = [b - a for a, b in zip(m0, m1)]
    Mavg = [(a + b) / 2.0 for a, b in zip(m0, m1)]
    d2 = float(_dot3(dM, dM))
    gram_mm = float(1.0 - _dot3(m0, m1) ** 2)  # det of the 2x2 Gram of (M0, M1), < 0
    # off the hyperboloid, distinct points can have <M0, M1>^2 = 1
    Check("seed points with <M0, M1>^2 = 1", abs(gram_mm), tol(1.0),
          floor="|1 - <M0, M1>^2|").require(DegenerateBasis)
    cc = d2 * float(_dot3(Mavg, q))
    bb = -d2 * (float(_dot3(Mavg, Mavg)) * qm0 * qm1 + 2.0 * float(_dot3(Mavg, q)) ** 2)
    aa = -(bb * bb - delta * cc * cc) / gram_mm
    if aa <= 0.0:
        raise DegenerateBasis(f"seed normalization scale A = {aa:.3g} is not positive")

    margin = aa - cc * cc * H * H
    scale = abs(aa) + cc * cc * H * H
    Check("mean curvature too large for this edge: C^2 H^2 - A", -margin,
          tol(scale)).require(ConstraintViolated)
    margin = max(margin, 0.0)
    # on the hyperboloid delta < 0, so the radicand delta (C^2 H^2 - A) is >= 0
    Check("no real normalization factor: -Delta (C^2 H^2 - A)", delta * margin,
          0.0).require(ConstraintViolated)
    disc = np.sqrt(delta * (-margin)) / aa
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
    basis = np.array([q, m0, m1])  # S = basis^T x stays BLAS's, with fused multiply-adds
    for alpha in alphas:
        rhs_shared = -alpha * float(_dot3(q, Mavg)) * d2
        x0, x1 = solve_dense(G, [[-H + alpha * qm0 * qm0, -H + alpha * qm1 * qm1],
                                 [0.0, rhs_shared], [rhs_shared, 0.0]]).T.copy()
        S0 = basis.T @ x0
        S1 = basis.T @ x1
        c = alpha * d2 / 2.0
        sol = SeedSolution(float(alpha), S0, S1, float(c))
        resid = _meridian_residual(m0, _components(S0), m1, _components(S1), q,
                                   float(alpha), float(c), H)
        Check("seed solve inconsistent", resid,
              tol(10.0 * (1.0 + abs(alpha)) * (1.0 + qscale) ** 2)).require(ConstraintViolated)
        out.append(sol)
    return out


def meridian_step(state, Q, alpha: float, c: float, H: float, kappa: float, prev):
    """One propagation step of the meridian: from (M_m, S_m) construct
    (M_{m+1}, S_{m+1}) with constant edge weight c, away from the
    neighbour ``prev`` of M_m on the other side.

    The next point lies on the line cut out by <M', M> = -(1 + c/alpha)
    and the sphere condition through

        X = S + c (Q + <Q, M> M),

    offset along the orthogonal direction Y (same length as X, oriented so
    det(M, X, Y) > 0) by t with

        t^2 = ((alpha+c)^2 - alpha^2)(1 - 2cH - c^2 kappa) / alpha^2.

    One sign of t returns to ``prev``; the other branch, the candidate
    farther from ``prev``, is taken.  The sphere curve then follows as
    S' = S + 2 alpha <Q, M_avg> dM.  The step may cross the infinity
    boundary of the space form (<Q, M> changes sign); it does so without a
    word, and :func:`build_revolution_cmc` counts such steps.

    Raises
    ------
    ConstraintViolated, VanishingX, InfinityBoundary, AxisCrossing
    """
    M, S, q = (_components(x) for x in (*state, Q))
    if c / alpha <= 0:
        raise ConstraintViolated("c / alpha must be positive")
    qm = float(_dot3(q, M))
    qq = _euclid2(q)
    if abs(qm) <= tol(math.sqrt(qq)):
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
    X = [s + c * (qi + qm * m) for s, qi, m in zip(S, q, M)]
    x2 = float(_dot3(X, X))
    if x2 <= tol(1.0 + c * c * qq):
        raise VanishingX("auxiliary sphere vanishes; edge would cross the axis")
    # the Lorentz cross product <Y, w> = det(M, X, w): diag(-1, 1, 1) np.cross(M, X)
    Y = [-(M[1] * X[2] - M[2] * X[1]), M[2] * X[0] - M[0] * X[2], M[0] * X[1] - M[1] * X[0]]
    ratio = (alpha + c) / alpha
    drop = ((alpha + c) ** 2 - alpha ** 2) / alpha
    base = [ratio * m - (drop * qm / x2) * x for m, x in zip(M, X)]
    t2 = (((alpha + c) ** 2 - alpha ** 2) * gate) / (alpha * alpha)
    t = np.sqrt(t2)
    cand_plus = [b + (t / x2) * y for b, y in zip(base, Y)]
    cand_minus = [b - (t / x2) * y for b, y in zip(base, Y)]
    p = _components(prev)  # squared distances order as the distances do
    M_next = cand_plus if _euclid2(cand_plus, p) > _euclid2(cand_minus, p) else cand_minus
    if M_next[0] <= 0:
        raise AxisCrossing("next meridian point left the hyperbolic half plane")
    Mavg = [(a + b) / 2.0 for a, b in zip(M, M_next)]
    k = 2.0 * alpha * float(_dot3(q, Mavg))
    S_next = [s + k * (b - a) for s, a, b in zip(S, M, M_next)]
    return np.array(M_next), np.array(S_next)


def _components(x) -> list:
    """The three components of an R^{2,1} vector as np.float64 scalars."""
    x = np.asarray(x, dtype=float).reshape(3)
    return [x[0], x[1], x[2]]


def _euclid2(x, y=(0.0, 0.0, 0.0)) -> float:
    """Squared Euclidean distance |x - y|^2 of three components each."""
    d0, d1, d2 = (a - b for a, b in zip(x, y))
    return float(d0 * d0 + d1 * d1 + d2 * d2)


def closure_defect(net: IsothermicNet, profile: RotationProfile) -> dict:
    """Measured closure defects of a net of revolution (reported, never
    solved for): the gap between the first and last :func:`meridian_points`
    and the angular mismatch of the rotation ``profile`` against a full turn."""
    pts = meridian_points(net)
    angles = profile.angles
    step = float(angles[1] - angles[0])
    total = float(angles[-1] - angles[0]) + step
    return {
        "meridian_gap": float(np.linalg.norm(pts[-1] - pts[0])),
        "angle_defect": float((total + np.pi) % (2.0 * np.pi) - np.pi),
    }


def build_revolution_cmc(Q, H: float, M0, M1, steps_each_dir: int,
                         angles: RotationProfile, branch: int = 0):
    """End-to-end constructor for a cmc net of revolution with prescribed
    mean curvature H and ambient curvature kappa = -|Q|^2.

    Seeds the meridian edge (M0, M1), propagates ``steps_each_dir`` steps in
    both directions, assembles the net with weights alpha <F_i, F_j>, and
    attaches the normalized linear conserved quantity built from the sphere
    curve.  Returns (net, quantity).  Meridian steps across the infinity
    boundary of the space form are allowed; a build that makes any warns
    once with their count.
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

    points, spheres = np.stack(points), np.stack(spheres)
    Check("meridian propagation inconsistent",  # on the columns of the edges
          _meridian_residual(points[:-1].T, spheres[:-1].T, points[1:].T, spheres[1:].T,
                             _components(Q), alpha, c, H),
          tol(100.0 * (1.0 + abs(alpha)) * (1.0 + float(np.dot(Q, Q))))).require(ConstraintViolated)

    net = _assemble_net(points, angles, alpha)

    Q5 = embed_lorentz3(Q)
    S5 = embed_lorentz3(spheres)  # (k, 5)
    qf = minkowski_inner(net.lifts.data, Q5)  # <Q, F> per vertex
    Z = S5[:, None, :] - alpha * qf[:, :, None] * net.lifts.data
    quantity = ConservedQuantity.linear(net, Q5, Z)

    qm = inner3(Q, points)  # <Q, M>, bitwise as meridian_step computes it
    crossed = qm[1:] * qm[:-1] < 0
    crossed[steps_each_dir] = False  # the seed edge is no meridian step
    if crossed.any():
        warnings.warn("meridian crossed the infinity boundary of the space form in "
                      f"{np.count_nonzero(crossed)} meridian steps", stacklevel=2)
    return net, quantity


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
    q = _components(Q)
    kappa = -float(_dot3(q, q))
    starts = [(eta0, rho0) for eta0 in (0.0, 0.15, -0.2, 0.3) for rho0 in (1.0, 0.8, 1.3, 0.6)]
    steps = [(deta, drho) for deta in (0.25, 0.4, 0.15) for drho in (0.1, -0.15, 0.3, 0.0)]
    for eta0, rho0 in starts:
        M0 = hyperbolic_point(eta0, rho0)
        # a start on the infinity boundary, or parallel to a timelike Q (then
        # (Q, M0, M1) span no Lorentz 3-space for any M1), admits no edge
        if (abs(_dot3(q, M0)) < 1e-6
                or np.linalg.norm(np.cross(Q, M0)) <= tol(np.linalg.norm(Q) * np.linalg.norm(M0))):
            continue
        for deta, drho in steps:
            eta1, rho1 = eta0 + deta, rho0 + drho
            if rho1 <= 0.05:
                continue
            M1 = hyperbolic_point(eta1, rho1)
            if abs(_dot3(q, M1)) < 1e-6:
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
