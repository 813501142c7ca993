"""Discrete isothermic nets: verification, Moutard normalization, the
family of edge connections, and Calapso transformations.

A net, ``IsothermicNet(lifts, weights)``, is a grid of isotropic lifts
together with a symmetric edge weight function, equal on opposite face
edges, whose ratio across each face equals the face cross ratio; the lifts
fix the grid, and the net carries nothing else.  Everything here is
lift-scaling invariant except where a specific normalization is the point
(:func:`moutard_lift`).

Operations return fresh data and never modify a net's lifts or weights,
and a net's fields are set once, by its constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    net_domain,
    sweep_propagate,
)
from .minkowski import (
    SIGNATURE,
    _circle_apply,
    _dot,
    _regularity,
    _unit,
    circle_coefficients,
    face_products,
    invariants_from_products,
    minkowski_inner,
    norm2,
    regularity_floor,
    require_finite,
    span_normal,
)
from .tolerances import Check, tol


@dataclass(frozen=True, eq=False)
class IsothermicNet:
    """Grid of isotropic lifts, shape (rows, cols, 5), with a cross-ratio
    factorizing edge function of lengths rows - 1 and cols - 1; ``domain``
    is the grid of the lifts."""

    lifts: VertexField
    weights: EdgeFunction

    def __post_init__(self):
        net_domain(self.lifts, 5, self.weights)

    @property
    def domain(self) -> GridDomain:
        return self.lifts.domain

    def lift_scale(self) -> float:
        return float(np.abs(self.lifts.data).max())

    def validate(self, q=None) -> float:
        """Check lightlike lifts and that weight ratios match the face cross
        ratios ``q`` (computed if not given); returns the worst residual,
        and a failure names its vertex or face.  Computing ``q`` raises
        DegeneratePoints, naming the face, if a face is degenerate."""
        scale = self.lift_scale() ** 2
        if q is None:
            q, regularity = invariants_from_products(*face_products(_unit(self.lifts.data)))
            regularity_floor("a face has three nearly dependent lifts", regularity,
                             self.domain.stack_face).require(DegeneratePoints)
        expected = self.weights.u[:, None] / self.weights.v[None, :]
        isotropy = np.abs(norm2(self.lifts.data)) / max(scale, 1e-300)  # per vertex
        mismatch = np.abs(q - expected) / (1.0 + np.abs(expected))  # per face
        resid = np.concatenate([isotropy.ravel(), mismatch.ravel()])
        k = int(np.argmax(resid))
        where = (self.domain.vertex_at(np.unravel_index(k, isotropy.shape)) if k < isotropy.size
                 else self.domain.stack_face(np.unravel_index(k - isotropy.size, mismatch.shape)))
        return Check("net fails validation", float(resid[k]), tol(1.0),
                     where).require(GeometryError).value


@dataclass
class IsothermicReport:
    """The first failed check of :func:`verify_isothermic`, or its last one."""

    check: Check
    weights: EdgeFunction | None = None
    cross_ratios: np.ndarray | None = None  # of the faces; set when the weights are rebuilt

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
    hold; strict mode raises a failed check.  A face check names its worst
    face by its corners (i, j, k, l); the product-one check names the
    vertex whose four faces fail it.

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
        q, regularity = invariants_from_products(*face_products(_unit(lifts.data)))
        report.check = regularity_floor("a face has three nearly dependent lifts", regularity,
                                        domain.stack_face)
    if report.ok:
        ratios = q.real
        imag = np.abs(q.imag) / (1.0 + np.abs(q))
        f = np.unravel_index(int(np.argmax(imag)), imag.shape)
        report.check = Check("a face has a complex cross ratio", float(imag[f]), tol(1.0),
                             domain.stack_face(f))
        error = NonConcircularFace
    if report.ok:
        # product-one condition on the four faces around every interior vertex
        prod = np.zeros((domain.rows, domain.cols))
        prod[1:-1, 1:-1] = np.abs((ratios[1:, :-1] / ratios[1:, 1:])
                                  * (ratios[:-1, 1:] / ratios[:-1, :-1]) - 1.0)
        c = np.unravel_index(int(np.argmax(prod)), prod.shape)
        report.check = Check("cross ratios fail the 3x3 product-one condition", float(prod[c]),
                             tol(1.0), domain.vertex_at(c))
        error = FactorizationFailure
    if report.ok:
        v0 = -1.0 if (ratios < 0.0).all() else 1.0
        u = ratios[:, 0] * v0
        v = np.empty(domain.cols - 1)
        v[0] = v0
        v[1:] = u[0] / ratios[0, 1:]
        report.weights, report.cross_ratios = EdgeFunction(u, v), q
        report.check = Check("reconstructed weights do not reproduce the cross ratios",
                             float(np.abs(u[:, None] / v[None, :] - ratios).max()),
                             tol(1.0 + float(np.abs(ratios).max())))
    if strict:
        report.check.require(error)
    return report


def face_regularity(lifts: VertexField) -> float:
    """Smallest normalized pairwise product min |<ij>| / max |<ij>| over all
    faces (the ``regularity`` of :func:`minkowski.invariants_from_products`,
    from unit representatives, so the measure is scaling invariant).  Three
    isotropic vectors have Gram determinant 2<12><13><23>, so every corner
    triple of a face is in general position exactly when its six products
    are away from 0; a regular net keeps this above
    :func:`minkowski.regularity_tol`, which is quadratic like the measure.
    The products are those of :func:`minkowski.face_products`, taken once
    per vertex, edge or face diagonal; no cross ratio is formed.  A lift with
    a NaN or infinite entry raises NonFiniteLift."""
    _, products, selfs = face_products(_unit(lifts.data))
    return float(_regularity(products, selfs).min(initial=np.inf))


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
    out = VertexField(F * scales[..., None])
    # each product against the scale of its own edge, so that a lift blown
    # up elsewhere cannot excuse a miss
    norms = np.sqrt(_dot(out.data, out.data))
    worst = np.max([(np.abs(minkowski_inner(Fi, Fj) - a) / (np.abs(a) + si * sj)).max(initial=0.0)
                    for (Fi, Fj), (si, sj), a in zip(edge_stacks(out.data), edge_stacks(norms),
                                                     weights.stacks())])
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
    if not (lifts.domain.contains((m - 1, n - 1)) and lifts.domain.contains((m + 1, n + 1))):
        raise KeyError(f"{center} is not interior")

    def span(rows, cols):
        V = lifts.data[rows, cols]
        V = V / np.sqrt(_dot(V, V))[..., None]
        return V, np.linalg.svd(V, compute_uv=False)

    Vd, sd = span([m, m + 1, m - 1, m - 1, m + 1], [n, n + 1, n + 1, n - 1, n - 1])
    _, sa = span([m, m + 1, m, m - 1, m], [n, n, n + 1, n, n - 1])
    diagonal = Check("diagonal star is not cospherical", float(sd[4] / sd[0]), tol(1.0), center)
    axis = Check("axis star is not cospherical", float(sa[4] / sa[0]), tol(1.0), center)
    sphere = None
    if diagonal.ok and sd[3] / sd[0] > tol(1.0):  # span is exactly 4-dimensional
        sphere = span_normal(Vd)
    return diagonal, axis, sphere


def edge_connections(net: IsothermicNet, lam: float):
    """The edge connections C(1 - lam a; F_i, F_j) at ``lam`` on the two edge
    stacks, with leading shapes (rows-1, cols) and (rows, cols-1), as the
    (U, J, c) of :func:`minkowski.circle_coefficients`, U = [F_i, F_j] and
    J = [JF_j; JF_i] windows over the lifts and JF: X + U (c * (J X)) maps
    the fiber over j to the fiber over i, and c[..., ::-1, :] maps it back.

    This is the package's one decision on a pole of 1 - lam a: every
    transform that meets the factor builds these connections first.

    Raises
    ------
    PoleParameter
        If ``lam`` is not finite, or |1 - lam a| <= tol(1 + |lam a| + max |a|)
        on some edge (the first such edge is named).
    """
    if not np.isfinite(lam):
        raise PoleParameter(f"parameter {lam} is not finite")
    F, JF = net.lifts.data, net.lifts.data * SIGNATURE
    largest = net.weights.max_abs()
    out = []
    for axis, ((Fi, Fj), a) in enumerate(zip(edge_stacks(F), net.weights.stacks())):
        a = np.broadcast_to(a, Fi.shape[:2])
        q = 1.0 - lam * a
        poles = np.argwhere(np.abs(q) <= tol(1.0 + np.abs(lam * a) + largest))
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


@dataclass
class CalapsoFrame:
    """Propagated gauge frames trivializing the edge connections at ``mu``."""

    mu: float
    frames: VertexField  # (rows, cols, 5, 5)
    net: IsothermicNet
    transformed: IsothermicNet
    check: Check | None = None  # the sweep's closing check


def calapso(net: IsothermicNet, mu: float, basepoint=None) -> tuple[CalapsoFrame, IsothermicNet]:
    """Calapso transform of an isothermic net.

    Propagates frames T with T_j = T_i * C_ij(mu) from the basepoint
    (identity there) along a spanning tree (:func:`grids.sweep_propagate`);
    flatness of the connection makes the result path independent, and the
    residual over the remaining edges is checked and kept in the frame.
    The transformed net has lifts T_i F_i and edge weights a / (1 - mu*a),
    whose poles :func:`edge_connections` has refused.

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

    new_lifts = VertexField(np.einsum("mnij,mnj->mni", frames, net.lifts.data))
    # a flat connection can still grow frames so large that T F keeps no
    # digits: the transformed faces then degenerate, and no net is returned
    regularity_floor(f"a transformed face, with frames up to {largest:.3g}, has three nearly "
                     "dependent lifts", _regularity(*face_products(_unit(new_lifts.data))[1:]),
                     domain.stack_face).require(DegeneratePoints)
    frames = VertexField(frames)
    u, v = net.weights.u, net.weights.v
    transformed = IsothermicNet(new_lifts, EdgeFunction(u / (1.0 - mu * u), v / (1.0 - mu * v)))
    frame = CalapsoFrame(mu, frames, net, transformed, check)
    return frame, transformed
