"""Discrete isothermic nets: verification, Moutard normalization, the
family of edge connections, and Calapso transformations.

A net is a grid of isotropic lifts together with a symmetric edge weight
function, equal on opposite face edges, whose ratio across each face equals
the face cross ratio.  Everything here is lift-scaling invariant except
where a specific normalization is the point (:func:`moutard_lift`).

Operations return fresh data and never modify a net's lifts or weights,
and a net's fields are set once, by its constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateEdge,
    DegeneratePoints,
    FactorizationFailure,
    GeometryError,
    NonConcircularFace,
    NotFlat,
    PoleParameter,
)
from .grids import (
    EdgeFunction,
    GridDomain,
    VertexField,
    _edge_pairs,
    edge_stacks,
    sweep_propagate,
)
from .minkowski import (
    SIGNATURE,
    _circle_apply,
    _regularity,
    circle_coefficients,
    cross_ratio_matrix,
    face_products,
    invariants_from_products,
    minkowski_inner,
    norm2,
    regularity_tol,
    require_finite,
    span_normal,
)
from .tolerances import Check, tol

if TYPE_CHECKING:
    from .revolution import RevolutionStructure


@dataclass(frozen=True, eq=False)
class IsothermicNet:
    """Grid of isotropic lifts with a cross-ratio factorizing edge function,
    and the rotational structure of the revolution builders (or None)."""

    domain: GridDomain
    lifts: VertexField
    weights: EdgeFunction
    revolution: RevolutionStructure | None = None

    def __post_init__(self):
        if self.lifts.domain != self.domain or self.weights.domain != self.domain:
            raise ValueError("lifts/weights domain mismatch")
        if self.lifts.data.shape[2:] != (5,):
            raise ValueError("lifts must be 5-vectors")

    def weight(self, edge) -> float:
        return self.weights.value(edge)

    def lift_scale(self) -> float:
        return float(np.abs(self.lifts.data).max())

    def with_weights(self, weights: EdgeFunction) -> "IsothermicNet":
        return IsothermicNet(self.domain, self.lifts.copy(), weights,
                             revolution=self.revolution)

    def with_lifts(self, lifts: VertexField) -> "IsothermicNet":
        return IsothermicNet(self.domain, lifts, self.weights)

    def validate(self, q=None) -> float:
        """Check lightlike lifts and that weight ratios match the face cross
        ratios ``q`` (computed if not given); returns the worst residual."""
        scale = self.lift_scale() ** 2
        if q is None:
            q = invariants_from_products(*face_products(self.lifts.data)).cross_ratios()
        expected = self.weights.u[:, None] / self.weights.v[None, :]
        worst = np.maximum(np.abs(norm2(self.lifts.data)).max() / max(scale, 1e-300),
                           (np.abs(q - expected) / (1.0 + np.abs(expected))).max(initial=0.0))
        return Check("net fails validation", float(worst), tol(1.0)).require(GeometryError).value


@dataclass
class IsothermicReport:
    """The first failed check of :func:`verify_isothermic`, or its last one."""

    check: Check
    weights: EdgeFunction | None = None
    cross_ratios: np.ndarray | None = None  # of the faces; set when the weights are rebuilt
    min_regularity: float = np.inf

    @property
    def ok(self) -> bool:
        return self.check.ok


def verify_isothermic(lifts: VertexField, *, strict: bool = True) -> IsothermicReport:
    """Verify that a grid of isotropic lifts is a discrete isothermic net and
    reconstruct its edge weight function.

    One pass of :func:`minkowski.face_products` over the lifts gives
    every face check: regularity (distinct points in three-point general
    position on every face), then, face by face, that the four points are
    concircular (real cross ratio).  The cross ratios must then satisfy
    the product-one condition on every 3x3 subgrid, and the two
    one-variable weight arrays are rebuilt from them.
    The reconstruction is unique up to one global factor; the gauge fixes
    the first vertical value to -1 when every face cross ratio is negative
    (embedded faces) and to +1 otherwise.

    The report holds the first check that fails, or the last one when all
    hold; strict mode raises a failed check.

    Raises (in strict mode)
    -----------------------
    GeometryError, NonConcircularFace, FactorizationFailure

    In either mode a lift with a NaN or infinite entry raises NonFiniteLift.
    """
    domain = lifts.domain
    report = IsothermicReport(Check("need at least one face", np.inf, 0.0,
                                    f"{domain.rows}x{domain.cols} grid"))
    error = GeometryError
    if domain.rows > 1 and domain.cols > 1:
        inv = invariants_from_products(*face_products(lifts.data))
        report.min_regularity = float(inv.regularity.min())
        report.check = Check("a face has three nearly dependent lifts", regularity_tol(),
                             np.nextafter(report.min_regularity, -np.inf))  # a floor
    if report.ok:
        q = inv.q
        ratios = q.real
        report.check = Check("a face has a complex cross ratio",
                             float((np.abs(q.imag) / (1.0 + np.abs(q))).max()), tol(1.0))
        error = NonConcircularFace
    if report.ok:
        # product-one condition on all 3x3 subgrids
        prod = (ratios[1:, :-1] / ratios[1:, 1:]) * (ratios[:-1, 1:] / ratios[:-1, :-1])
        report.check = Check("cross ratios fail the 3x3 product-one condition",
                             float(np.abs(prod - 1.0).max(initial=0.0)), tol(1.0))
        error = FactorizationFailure
    if report.ok:
        v0 = -1.0 if (ratios < 0.0).all() else 1.0
        u = ratios[:, 0] * v0
        v = np.empty(domain.cols - 1)
        v[0] = v0
        v[1:] = u[0] / ratios[0, 1:]
        report.weights, report.cross_ratios = EdgeFunction(domain, u, v), q
        report.check = Check("reconstructed weights do not reproduce the cross ratios",
                             float(np.abs(u[:, None] / v[None, :] - ratios).max()),
                             tol(1.0 + float(np.abs(ratios).max())))
    if strict:
        report.check.require(error)
    return report


def face_regularity(lifts: VertexField) -> float:
    """Smallest normalized pairwise product min |<ij>| / max |<ij>| over all
    faces (the ``regularity`` of :func:`minkowski.quad_invariants`, from
    unit representatives, so the measure is scaling invariant).  Three
    isotropic vectors have Gram determinant 2<12><13><23>, so every corner
    triple of a face is in general position exactly when its six products
    are away from 0; a regular net keeps this above
    :func:`minkowski.regularity_tol`, which is quadratic like the measure.
    The products are those of :func:`minkowski.face_products`, taken once
    per vertex, edge or face diagonal; no cross ratio is formed.  A lift with
    a NaN or infinite entry raises NonFiniteLift."""
    _, products, selfs = face_products(lifts.data)
    return float(_regularity(products, selfs).min(initial=np.inf))


def moutard_fill(F, u, v, g_floor: float, f_max: float = np.inf):
    """Fill the lifts ``F``, shape (rows, cols, 5) and given on the first row
    and column, through the Moutard equation of every face (i, j, k, l),

        F_k = F_i + (a_ij - a_il) / <F_j, F_l> * (F_j - F_l),

    where a_ij = u[m] and a_il = v[n] on the face at (m, n).  Each step
    fills the faces of one anti-diagonal m + n = d, rows + cols - 3 steps in
    all.  The fill stops before a step where some |<F_j, F_l>| <= g_floor,
    or after one where some new F_k has an entry above ``f_max`` in absolute
    value, and returns the array index of the first such face on that
    anti-diagonal; it returns None once ``F`` is full.

    The fill extrapolates, and its errors grow with the grid: filled from the
    Moutard-normalized first row and column of ``catalog.cylinder_net(N, N,
    2/N, 2 pi/N)``, it missed the cylinder's own weights by 19.3 at N = 48
    and 1.9e3 at N = 64.  It now serves only :func:`catalog.random_moutard_net`
    (nets of at most 8x8 in the tests).
    """
    rows, cols = F.shape[:2]
    for d in range(rows + cols - 3):
        m = np.arange(max(0, d - cols + 2), min(d, rows - 2) + 1)
        n = d - m
        g = minkowski_inner(F[m + 1, n], F[m, n + 1])
        bad = np.abs(g) <= g_floor
        if not bad.any():
            F[m + 1, n + 1] = F[m, n] + ((u[m] - v[n]) / g)[:, None] * (F[m + 1, n] - F[m, n + 1])
            bad = np.abs(F[m + 1, n + 1]).max(axis=-1) > f_max
        if bad.any():
            w = int(np.argmax(bad))
            return int(m[w]), int(n[w])
    return None


def moutard_lift(lifts: VertexField, weights: EdgeFunction) -> VertexField:
    """Rescale lifts so that every edge satisfies <F_i, F_j> = a_ij.

    The scales are a scalar sweep (:func:`grids.sweep_propagate`) from
    lambda = 1 at the corner (0, 0), one condition per tree edge,

        lambda_j = a_ij / (lambda_i <F_i, F_j>).

    The input must be an isothermic net whose weight function is ``weights``
    (any global rescaling of a factorizer works, with the corresponding
    rescaled lifts); the rescaled lifts then meet every edge product and the
    Moutard equation (parallel face diagonals), and both are checked.

    Raises
    ------
    DegenerateEdge
        If a product lambda_i <F_i, F_j> vanishes, or the rescaled lifts
        miss an edge product (relative to |a_ij| + |F_i| |F_j| on that edge)
        or fail :func:`moutard_check`; the error carries the failed check.
    """
    domain = lifts.domain
    F = lifts.data
    floor = tol(float(np.abs(F).max()) ** 2)
    products = [minkowski_inner(Fi, Fj) for Fi, Fj in edge_stacks(F)]
    targets = [np.broadcast_to(a, g.shape) for a, g in zip(weights.stacks(), products)]

    def step(lam, axis, index, forward):
        g = lam * products[axis][index]
        small = np.abs(g) <= floor
        if small.any():
            raise DegenerateEdge("vanishing inner product on edge "
                                 f"{domain.worst_edge(small, axis, index)[1]}")
        return targets[axis][index] / g

    scales, _, _ = sweep_propagate(domain, 1.0, (0, 0), step)
    out = VertexField(domain, F * scales[..., None])
    # each product against the scale of its own edge, so that a lift blown
    # up elsewhere cannot excuse a miss
    worst = np.max([(np.abs(minkowski_inner(Fi, Fj) - a)
                     / (np.abs(a) + np.linalg.norm(Fi, axis=-1) * np.linalg.norm(Fj, axis=-1))
                     ).max(initial=0.0)
                    for (Fi, Fj), a in zip(edge_stacks(out.data), weights.stacks())])
    Check("normalized lifts miss the prescribed edge products", float(worst),
          tol(1.0)).require(DegenerateEdge)
    moutard_check(out).require(DegenerateEdge)
    return out


def moutard_check(lifts: VertexField) -> Check:
    """Whether the diagonals F_k - F_i and F_j - F_l are parallel on every
    face: the worst relative second singular value against tol(1).

    Raises
    ------
    NonFiniteLift
        If a lift holds a NaN or infinite entry.
    """
    F = lifts.data
    require_finite(F)
    D = np.stack([F[1:, 1:] - F[:-1, :-1], F[1:, :-1] - F[:-1, 1:]], axis=2)
    s = np.linalg.svd(D, compute_uv=False)
    # s[1] <= s[0], so a face with s[0] = 0 contributes 0
    worst = float((s[..., 1] / np.where(s[..., 0] > 0, s[..., 0], 1.0)).max(initial=0.0))
    return Check("face diagonals are not parallel", worst, tol(1.0))


def vertex_star_cospherical(lifts: VertexField, center):
    """(diagonal check, axis check, sphere): cosphericity of the diagonal
    and axis vertex stars of an interior vertex, and the central sphere
    spanned by the diagonal star (or None).

    A five-point star is cospherical when its unit lifts span at most four
    dimensions (relative fifth singular value within tol(1)); when the
    diagonal star spans exactly four, the unit spacelike normal of the span
    encodes the sphere through the five points.
    """
    m, n = center
    domain = lifts.domain
    diag = [(m, n), (m + 1, n + 1), (m - 1, n + 1), (m - 1, n - 1), (m + 1, n - 1)]
    axis = [(m, n), (m + 1, n), (m, n + 1), (m - 1, n), (m, n - 1)]
    for v in diag + axis:
        if not domain.contains(v):
            raise KeyError(f"{center} is not interior")

    def span(vs):
        V = np.stack([lifts[v] / np.linalg.norm(lifts[v]) for v in vs])
        return V, np.linalg.svd(V, compute_uv=False)

    (Vd, sd), (_, sa) = span(diag), span(axis)
    diagonal = Check("diagonal star is not cospherical", float(sd[4] / sd[0]), tol(1.0), center)
    axis = Check("axis star is not cospherical", float(sa[4] / sa[0]), tol(1.0), center)
    sphere = None
    if diagonal.ok and sd[3] / sd[0] > tol(1.0):  # span is exactly 4-dimensional
        sphere = span_normal(Vd)
    return diagonal, axis, sphere


def edge_connection(net: IsothermicNet, lam: float, edge) -> np.ndarray:
    """Matrix of the edge connection at spectral parameter ``lam``: the
    circle transform with parameter 1 - lam * a_ij anchored at the edge
    endpoints, mapping the fiber over j to the fiber over i.

    Raises
    ------
    PoleParameter
        If 1 - lam * a_ij vanishes.
    """
    i, j = edge
    a = net.weight(edge)
    q = 1.0 - lam * a
    if abs(q) <= tol(1.0 + abs(lam * a)):
        raise PoleParameter(f"parameter {lam} is a pole of edge {edge}")
    return cross_ratio_matrix(q, net.lifts[i], net.lifts[j])


def edge_connections(net: IsothermicNet, lam: float):
    """The edge connections C(1 - lam a; F_i, F_j) at ``lam`` on the two edge
    stacks, with leading shapes (rows-1, cols) and (rows, cols-1), as the
    (U, J, c) of :func:`minkowski.circle_coefficients`, U = [F_i, F_j] and
    J = [JF_j; JF_i] windows over the lifts and JF: X + U (c * (J X)) maps
    the fiber over j to the fiber over i, and c[..., ::-1, :] maps it back.

    Raises
    ------
    PoleParameter
        If ``lam`` is not finite, or 1 - lam * a vanishes on some edge.
    """
    if not np.isfinite(lam):
        raise PoleParameter(f"parameter {lam} is not finite")
    F, JF = net.lifts.data, net.lifts.data * SIGNATURE
    out = []
    for axis, ((Fi, Fj), a) in enumerate(zip(edge_stacks(F), net.weights.stacks())):
        a = np.broadcast_to(a, Fi.shape[:2])
        q = 1.0 - lam * a
        poles = np.argwhere(np.abs(q) <= tol(1.0 + np.abs(lam * a)))
        if len(poles):
            raise PoleParameter(f"parameter {lam} is a pole of edge "
                                f"{net.domain.stack_edge(axis, poles[0])}")
        out.append((_edge_pairs(F, axis).swapaxes(-1, -2), _edge_pairs(JF, axis, reverse=True),
                    circle_coefficients(q, Fi, Fj)))
    return tuple(out)


def _parallel_step(connections):
    """Step of :func:`grids.sweep_propagate` for sections S_i = C_ij S_j of
    :func:`edge_connections`, columns of shape (..., 5, k), by the inverse map."""
    def step(S, axis, index, forward):
        U, J, c = (x[index] for x in connections[axis])
        return _circle_apply(U, J, c[..., ::-1, :] if forward else c, S)
    return step


def face_holonomy(net: IsothermicNet, lam: float, face) -> np.ndarray:
    """C(ij) C(jk) C(kl) C(li) around the face (i, j, k, l)."""
    return np.linalg.multi_dot([edge_connection(net, lam, e) for e in GridDomain.face_edges(face)])


def holonomy_residual(net: IsothermicNet, lams) -> float:
    """Largest deviation of any face holonomy from the identity over the
    given spectral parameters.  Zero (within tolerance) iff the net is
    isothermic with the stored weights."""
    worst = 0.0
    eye = np.eye(5)
    for lam in np.atleast_1d(lams):
        (Uu, Ju, cu), (Uv, Jv, cv) = edge_connections(net, float(lam))
        M = eye  # C(ij) C(jk) C(kl) C(li) I around the face (i, j, k, l), right to left
        for U, J, c in ((Uv[:-1], Jv[:-1], cv[:-1, :, ::-1]),
                        (Uu[:, 1:], Ju[:, 1:], cu[:, 1:, ::-1]),
                        (Uv[1:], Jv[1:], cv[1:]), (Uu[:, :-1], Ju[:, :-1], cu[:, :-1])):
            M = _circle_apply(U, J, c, M)
        worst = np.maximum(worst, np.abs(M - eye).max(initial=0.0))
    return float(worst)


def circle_identity_check(P1, P2, P3, P4, a: float, b: float, lam: float) -> float:
    """Residual of the four-point circle identity

        C(1-a*lam; p1,p2) C(1-b*lam; p2,p3) = C(1-b*lam; p1,p4) C(1-a*lam; p4,p3)

    for concircular points with cross ratio a/b."""
    qa = 1.0 - a * lam
    qb = 1.0 - b * lam
    if abs(qa) <= tol(1.0) or abs(qb) <= tol(1.0):
        raise PoleParameter("parameter hits a pole of the identity")
    left = cross_ratio_matrix(qa, P1, P2) @ cross_ratio_matrix(qb, P2, P3)
    right = cross_ratio_matrix(qb, P1, P4) @ cross_ratio_matrix(qa, P4, P3)
    return float(np.abs(left - right).max())


@dataclass
class CalapsoFrame:
    """Propagated gauge frames trivializing the edge connections at ``mu``."""

    mu: float
    frames: VertexField  # (rows, cols, 5, 5)
    net: IsothermicNet
    transformed: IsothermicNet
    basepoint: tuple
    check: Check | None = None  # the sweep's closing check


def calapso(net: IsothermicNet, mu: float, basepoint=None) -> tuple[CalapsoFrame, IsothermicNet]:
    """Calapso transform of an isothermic net.

    Propagates frames T with T_j = T_i * C_ij(mu) from the basepoint
    (identity there) along a spanning tree (:func:`grids.sweep_propagate`);
    flatness of the connection makes the result path independent, and the
    residual over the remaining edges is checked and kept in the frame.
    The transformed net has lifts T_i F_i and edge weights a / (1 - mu*a).

    Raises
    ------
    PoleParameter, NotFlat, DegeneratePoints (a transformed face is degenerate)
    """
    domain = net.domain
    if basepoint is None:
        basepoint = (0, 0)
    # frames T_j = T_i C_ij travel as the parallel section S = G T^T (G the metric)
    S, worst, edge = sweep_propagate(domain, np.diag(SIGNATURE), basepoint,
                                     _parallel_step(edge_connections(net, mu)))
    frames = np.swapaxes(S, -1, -2) * SIGNATURE
    largest = float(np.abs(frames).max())
    check = Check("path dependence; input net is not isothermic", worst, tol(10.0 + largest),
                  edge).require(NotFlat)

    new_lifts = VertexField(domain, np.einsum("mnij,mnj->mni", frames, net.lifts.data))
    # a flat connection can still grow frames so large that T F keeps no
    # digits: the transformed faces then degenerate, and no net is returned
    Check(f"a transformed face, with frames up to {largest:.3g}, has three nearly dependent "
          "lifts", regularity_tol(), np.nextafter(face_regularity(new_lifts), -np.inf)
          ).require(DegeneratePoints)  # a floor
    frames = VertexField(domain, frames)
    transformed = IsothermicNet(domain, new_lifts, net.weights.calapso_shifted(mu),
                                revolution=None)
    frame = CalapsoFrame(mu, frames, net, transformed, basepoint, check)
    return frame, transformed
