"""Euclidean specializations: Christoffel duals, the parallel-net linear
quantity, per-vertex mean curvature spheres, and cmc classification.

A Euclidean net, ``EuclideanNet(points, weights)``, takes its grid from the
points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conserved import ConservedQuantity, mean_curvature_data
from .errors import NotChristoffel, NotClosed, NotParallel
from .grids import (
    EdgeFunction,
    VertexField,
    edge_stacks,
    net_domain,
    sweep_integrate,
)
from .minkowski import (
    Q_EUCLIDEAN,
    _dot,
    euclidean_lift,
    euclidean_point,
)
from .nets import IsothermicNet
from .tolerances import Check, tol


class EuclideanNet:
    """Isothermic net presented by points of R^3, shape (rows, cols, 3),
    plus edge weights of lengths rows - 1 and cols - 1; ``domain`` is the
    grid of the points."""

    def __init__(self, points: VertexField, weights: EdgeFunction):
        self.domain = net_domain(points, 3, weights)
        self.points = points
        self.weights = weights

    @classmethod
    def from_isothermic(cls, net: IsothermicNet) -> "EuclideanNet":
        """Read off R^3 points from the lifts in the flat chart of
        :data:`minkowski.Q_EUCLIDEAN`."""
        return cls(VertexField(euclidean_point(net.lifts.data)), net.weights)

    def to_isothermic(self) -> IsothermicNet:
        return IsothermicNet(VertexField(euclidean_lift(self.points.data)), self.weights)


def christoffel(net: EuclideanNet) -> EuclideanNet:
    """Dual net integrated from the edge form

        w_ij = -( a_ij / |df_ij|^2 ) df_ij,

    anchored at 0 on the vertex (0, 0); the dual is determined up to
    translation.  Closedness of the form is exactly the isothermic property
    for the stored weights.

    Raises
    ------
    NotClosed
    """
    dom = net.domain
    omega = []
    for axis, ((fi, fj), a) in enumerate(zip(edge_stacks(net.points.data),
                                             net.weights.stacks())):
        df = fj - fi
        d2 = _dot(df, df)
        degenerate = np.argwhere(d2 <= tol(1.0) ** 2)
        if len(degenerate):
            raise NotClosed(f"degenerate edge {dom.stack_edge(axis, degenerate[0])}")
        omega.append(-(a / d2)[..., None] * df)

    dual, worst, edge = sweep_integrate(dom, *omega, (0, 0))
    Check("dual edge form is not closed", worst,
          tol(1.0 + max(float(np.abs(w).max(initial=0.0)) for w in omega)),
          edge).require(NotClosed)
    return EuclideanNet(VertexField(dual), net.weights)


def parallel_lcq(net: EuclideanNet, dual: EuclideanNet, H: float) -> ConservedQuantity:
    """Normalized linear conserved quantity of a Euclidean cmc net given its
    parallel dual at constant distance 1/H.

    Requires |f* - f| = 1/H on all vertices and the canonical weight
    scaling a_ij = -(H/2) <df_ij, df*_ij>; the quantity is

        lam * ( H F* - Q/(2H) ) + Q,    Q = (1, 0, 0, 0, -1),

    with kappa = 0 and mean curvature H.

    Raises
    ------
    NotParallel, NotChristoffel
    """
    if H == 0.0:
        raise ValueError("parallel net characterization needs H != 0")
    diff = dual.points.data - net.points.data
    gap = np.sqrt(_dot(diff, diff)) - 1.0 / H
    Check("|f* - f| deviates from 1/H", float(np.abs(gap).max()),
          tol(1.0 + 1.0 / abs(H))).require(NotParallel)
    worst = 0.0
    for (fi, fj), (gi, gj), a in zip(edge_stacks(net.points.data),
                                     edge_stacks(dual.points.data), net.weights.stacks()):
        target = -(H / 2.0) * _dot(fj - fi, gj - gi)
        worst = np.maximum(worst, np.abs(a - target).max())
    Check("weights miss the canonical dual scaling", float(worst),
          tol(1.0 + net.weights.max_abs())).require(NotChristoffel)

    dual_lifts = euclidean_lift(dual.points.data)
    return ConservedQuantity.linear(net.to_isothermic(), Q_EUCLIDEAN,
                                    H * dual_lifts - Q_EUCLIDEAN / (2.0 * H))


def extract_parallel(cq: ConservedQuantity) -> EuclideanNet:
    """Inverse of :func:`parallel_lcq`: the dual net ( 2H Z + Q ) / (2 H^2)."""
    H, kappa = mean_curvature_data(cq)
    if abs(kappa) > tol(1.0) or H == 0.0:
        raise ValueError("parallel net extraction needs kappa = 0 and H != 0")
    Z = cq.coeffs[:, :, 1, :]
    Q = cq.constant
    lifts = (2.0 * H * Z + Q) / (2.0 * H * H)
    pts = euclidean_point(lifts)
    return EuclideanNet(VertexField(pts), cq.net.weights)


@dataclass
class MeanCurvatureSphere:
    """A sphere (``center`` and ``radius``) or, when ``center`` is None, a
    plane (``normal`` and ``offset``), with its verification residuals."""

    center: np.ndarray | None
    radius: float | None
    normal: np.ndarray | None
    offset: float | None
    residual_equal_distances: float
    residual_power: float
    residual_radius: float


def bp_sphere(cq: ConservedQuantity, vertex) -> MeanCurvatureSphere:
    """Decode the mean curvature sphere at an interior vertex of a Euclidean
    (kappa = 0, ambient Q = (1,0,0,0,-1)) cmc net, and verify it.

    A unit sphere vector splits as

        Z = ( (1+|c|^2-r^2)/(2r), c/r, (1-|c|^2+r^2)/(2r) ),

    so r = 1/(Z_0 + Z_4) and c = r * (Z_1, Z_2, Z_3); when Z_0 + Z_4
    vanishes the congruence member is the plane {x : <n, x> = d} with
    n = (Z_1, Z_2, Z_3), d = Z_0.  The verification residuals are the
    equal-distance conditions of the axis neighbors per direction, the
    weight-scaled power identity <Z, F_nbr> = a_{c,nbr}, and |f - c| = |r|.
    """
    H, kappa = mean_curvature_data(cq)
    Q = cq.constant
    if abs(kappa) > tol(1.0) or float(np.abs(Q - Q_EUCLIDEAN).max()) > tol(1.0):
        raise ValueError("mean curvature spheres need the flat gauge Q = (1,0,0,0,-1)")
    net = cq.net
    m, n = vertex
    if not (net.domain.contains((m - 1, n - 1)) and net.domain.contains((m + 1, n + 1))):
        raise KeyError(f"{vertex} is not interior")

    Z = cq.coeffs[m, n, 1]
    # the vertex, then its neighbours along +m, -m, +n and -n with their weights
    pts = euclidean_point(net.lifts.data[[m, m + 1, m - 1, m, m], [n, n, n, n + 1, n - 1]])
    f, nbrs = pts[0], pts[1:]
    a = np.array([net.weights.u[m], net.weights.u[m - 1], net.weights.v[n], net.weights.v[n - 1]])
    lift_slope = float(Z[0] + Z[4])

    scale = 1.0 + float(np.abs(Z).max())
    if abs(lift_slope) <= tol(scale):
        normal = Z[1:4].copy()
        offset = float(Z[0])
        worst_power = np.max(np.abs((nbrs - f) @ normal - a) / (1.0 + np.abs(a)))
        r_inc = abs(float(np.dot(normal, f)) - offset) / (1.0 + abs(offset))
        return MeanCurvatureSphere(None, None, normal, offset,
                                   0.0, float(worst_power), r_inc)

    r = 1.0 / lift_slope
    center = r * Z[1:4]
    # equal distances from the center to the two neighbours along each axis
    d = np.sqrt(d2 := _dot(nbrs - center, nbrs - center))
    worst_eq = np.max(np.abs(d[0::2] - d[1::2]) / (1.0 + d[0::2]))
    power = d2 - r * r
    worst_power = np.max(np.abs(power / (-2.0 * r) - a) / (1.0 + np.abs(a)))
    r_resid = abs(np.linalg.norm(f - center) - abs(r)) / (1.0 + abs(r))
    return MeanCurvatureSphere(center, abs(r), None, None,
                               float(worst_eq), float(worst_power), r_resid)


@dataclass
class CmcLabel:
    label: str
    H: float
    kappa: float
    lawson_invariant: float


def classify_cmc(cq: ConservedQuantity) -> CmcLabel:
    """Label a normalized linear quantity by its curvature pair:
    minimal-euclidean (H = kappa = 0), horospherical (H^2 + kappa = 0 with
    kappa < 0), cmc-euclidean (kappa = 0), or cmc-spaceform."""
    H, kappa = mean_curvature_data(cq)
    inv = H * H + kappa
    flat = abs(kappa) <= tol(1.0)
    if flat and abs(H) <= tol(1.0):
        label = "minimal-euclidean"
    elif abs(inv) <= tol(1.0 + H * H) and kappa < 0:
        label = "horospherical"
    elif flat:
        label = "cmc-euclidean"
    else:
        sign = "+" if inv > tol(1.0) else ("-" if inv < -tol(1.0) else "0")
        label = f"cmc-spaceform({sign})"
    return CmcLabel(label, H, kappa, inv)
