"""Darboux and Backlund transforms, permutability, complementary nets, and
conserved-quantity reconstruction from parallel sections.

A Darboux transform with parameter mu is an isotropic parallel section of
the edge connection at mu; it is a new isothermic net with the same edge
weights, characterized by the edge cross ratios [f_i; f_j; fhat_j; fhat_i]
= a_ij * mu.  A Backlund transform additionally starts orthogonal to the
value P(mu) of a conserved quantity, which keeps the transformed quantity
at the same degree and preserves the constant coefficient (hence the
ambient space form and the mean curvature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conserved import ConservedQuantity
from .errors import (
    CoincidentTransforms,
    DegenerateStart,
    EmptyConic,
    IncidenceFailure,
    NotBacklund,
    NotParallel,
    NotPolynomial,
    PoleParameter,
)
from .grids import VertexField, edge_stacks, sweep_propagate
from .minkowski import (
    SIGNATURE,
    _circle_apply,
    cross_ratio_apply,
    edge_quad_products,
    invariants_from_products,
    minkowski_inner,
    norm2,
    orthonormal_complement,
    ray_distance,
)
from .nets import CalapsoFrame, IsothermicNet, _parallel_step, edge_connections
from .polyvec import (
    mp_divide_linear,
    mp_eval,
    mp_inner_vec,
    mp_max_coeff,
    mp_scale_poly,
    mp_shift,
    mp_trim,
)
from .tolerances import Check, tol


@dataclass
class DarbouxTransform:
    """Parameter and isotropic parallel lift of a Darboux transform."""

    mu: float
    lifts: VertexField
    base: IsothermicNet
    check: Check | None = None  # the propagation's closing check

    def net(self) -> IsothermicNet:
        """The transform as an isothermic net (same edge weights).

        Representatives are normalized to unit length for conditioning; the
        parallel section itself stays available as ``lifts``.
        """
        data = self.lifts.data
        norms = np.linalg.norm(data, axis=-1, keepdims=True)
        return IsothermicNet(VertexField(data / norms), self.base.weights)

    def cross_ratio_residual(self) -> float:
        """Worst deviation of [f_i; f_j; fhat_j; fhat_i] from a_ij * mu, over
        the edge quadruples of :func:`minkowski.edge_quad_products`.

        Raises DegeneratePoints if two points of an edge quadruple coincide."""
        worst = 0.0
        for products, a in zip(edge_quad_products(self.base.lifts.data, self.lifts.data),
                               self.base.weights.stacks()):
            q = invariants_from_products(*products).cross_ratios()
            target = a * self.mu
            worst = np.maximum(worst, np.max(np.abs(q - target) / (1.0 + np.abs(target)),
                                             initial=0.0))
        return float(worst)


def parallel_residual(net: IsothermicNet, mu: float, section: VertexField) -> float:
    """Worst edge defect of S_i = C_ij(mu) S_j over all edges."""
    worst = 0.0
    scale = 1.0 + float(np.abs(section.data).max())
    for (U, J, c), (Si, Sj) in zip(edge_connections(net, mu), edge_stacks(section.data)):
        resid = Si - _circle_apply(U, J, c, Sj[..., None])[..., 0]
        worst = np.maximum(worst, np.abs(resid).max(initial=0.0) / scale)
    return float(worst)


def darboux_propagate(net: IsothermicNet, mu: float, start, basepoint=None) -> DarbouxTransform:
    """Propagate an isotropic start vector into a Darboux transform.

    The section follows the spanning tree of :func:`grids.sweep_propagate`,
    which also checks parallelity on the remaining edges.

    Raises
    ------
    DegenerateStart
        If the start is not finite, not isotropic or proportional to the base lift.
    PoleParameter
        If 1 - mu * a vanishes on some edge, or the cross ratio mu * a of
        some quad (f_i, f_j, fhat_j, fhat_i) is not finite or is 0 or
        infinite within tolerance (mu = 0, say).
    NotParallel
        If the section is path dependent (the input net is not isothermic).
    """
    dom = net.domain
    if basepoint is None:
        basepoint = (0, 0)
    start = np.asarray(start, dtype=float)
    if not np.isfinite(start).all():
        raise DegenerateStart(f"start vector {start} is not finite")
    s2 = float(np.dot(start, start))
    if abs(norm2(start)) > tol(s2):
        raise DegenerateStart("start vector is not isotropic")
    if ray_distance(start, net.lifts.data[dom.index(basepoint)]) <= tol(1.0):
        raise DegenerateStart("start coincides with the base net")

    ratios = abs(mu) * np.abs(np.concatenate([net.weights.u, net.weights.v]))  # of the quads
    if not ((tol(1.0) < ratios) & (ratios < 1.0 / tol(1.0))).all():
        raise PoleParameter(f"cross ratio mu * a is 0, infinite or not finite at mu = {mu}")
    step = _parallel_step(edge_connections(net, mu))
    lifts, worst, edge = sweep_propagate(dom, start[:, None], basepoint, step)
    check = Check("Darboux propagation is path dependent",
                  worst / (1.0 + float(np.abs(lifts).max())), tol(1.0), edge).require(NotParallel)
    return DarbouxTransform(mu, VertexField(lifts[..., 0]), net, check)


def backlund_init(cq: ConservedQuantity, mu: float, s: float, basepoint=None) -> np.ndarray:
    """Isotropic start vector orthogonal to P(mu) at the basepoint.

    The isotropic rays orthogonal to a spacelike P(mu) form a two-sphere;
    a deterministic circle inside it is exposed through the rational
    parameter ``s``: with (t, u1, u2) the timelike and first two spacelike
    directions of an orthonormal basis of P(mu)-perp,

        X(s) = t + (1 - s^2)/(1 + s^2) u1 + 2s/(1 + s^2) u2.

    Raises
    ------
    EmptyConic
        If P(mu) is timelike (no real isotropic directions exist).
    DegenerateStart
        If mu or s is not finite, or the chosen direction coincides with the net's lift.
    """
    if not np.isfinite([mu, s]).all():
        raise DegenerateStart(f"mu = {mu} and s = {s} must be finite")
    net = cq.net
    if basepoint is None:
        basepoint = (0, 0)
    index = net.domain.index(basepoint)
    P = mp_eval(cq.coeffs[index], mu)
    p2 = float(norm2(P))
    scale = float(np.dot(P, P))
    if scale <= tol(1.0) ** 2:
        raise EmptyConic("P(mu) vanishes; reduce the quantity first")
    if abs(p2) <= tol(scale):
        # isotropic P(mu): the only orthogonal isotropic ray is P(mu) itself
        return P.copy()
    if p2 < 0:
        raise EmptyConic("P(mu) is timelike; its complement carries no light cone")

    dirs = orthonormal_complement(P)
    t = dirs[0]  # timelike direction comes first
    u1, u2 = dirs[1], dirs[2]
    den = 1.0 + s * s
    X = t + ((1.0 - s * s) / den) * u1 + (2.0 * s / den) * u2
    if ray_distance(X, net.lifts.data[index]) <= tol(1.0):
        raise DegenerateStart("start direction coincides with the net; vary s")
    return X


def pcq_darboux(cq: ConservedQuantity, transform: DarbouxTransform) -> ConservedQuantity:
    """Conserved quantity of a Darboux transform (degree at most N+1):

        Phat(lam) = (lam - mu) P(lam)
                    - ( lam(lam-mu)/mu <P,F> Fhat + lam <P,Fhat> F ) / <F,Fhat>.

    The top norm is preserved, |Phat|^2 = (lam - mu)^2 |P|^2.

    Raises
    ------
    NotPolynomial
        If the degree N+2 coefficient fails to cancel (bad input quantity).
    """
    mu = transform.mu
    c = cq.coeffs
    k = c.shape[2]
    F = cq.net.lifts.data[:, :, None, :]
    Fh = transform.lifts.data[:, :, None, :]
    g = minkowski_inner(F, Fh)[..., None]
    pf = mp_inner_vec(c, F)[..., None]
    pfh = mp_inner_vec(c, Fh)[..., None]
    out = np.zeros(c.shape[:2] + (k + 2, 5))
    out[:, :, :k] += -mu * c
    out[:, :, 1:k + 1] += c
    out[:, :, 2:k + 2] -= pf * Fh / (mu * g)
    out[:, :, 1:k + 1] += pf * Fh / g
    out[:, :, 1:k + 1] -= pfh * F / g
    scale = 1.0 + mp_max_coeff(out)
    Check(f"degree {k + 1} coefficient does not cancel", float(np.abs(out[:, :, k + 1, :]).max()),
          tol(scale)).require(NotPolynomial)
    trimmed = mp_trim(out, scale)
    return ConservedQuantity(transform.net(), trimmed)


def pcq_backlund(cq: ConservedQuantity, transform: DarbouxTransform) -> ConservedQuantity:
    """Conserved quantity of a Backlund transform, same degree N:

        Phat(lam) = P(lam) - (lam/mu) <P,F>/<F,Fhat> Fhat
                    - lam <P,Fhat>/((lam-mu) <F,Fhat>) F,

    where the last division is exact because <P(mu), Fhat> = 0.  The
    constant coefficient is unchanged.

    Raises
    ------
    NotBacklund
        If the start orthogonality <P(mu), Fhat> fails at some vertex.
    """
    mu = transform.mu
    c = cq.coeffs
    k = c.shape[2]
    F = cq.net.lifts.data[:, :, None, :]
    Fh = transform.lifts.data[:, :, None, :]
    g = minkowski_inner(F, Fh)[..., None]
    pf = mp_inner_vec(c, F)[..., None]
    pfh = mp_inner_vec(c, Fh)  # must vanish at mu
    # divide lam * pfh by (lam - mu): quotient degree <= k-1
    num = np.concatenate([np.zeros(pfh.shape[:2] + (1,)), pfh], axis=-1)
    quot, rem = mp_divide_linear(num[..., None], mu)
    rem = np.abs(rem[..., 0])
    scale = cq.scale() * (1.0 + float(np.abs(transform.lifts.data).max()))
    index = np.unravel_index(int(np.argmax(rem)), rem.shape)
    Check(f"<P({mu}), Fhat> does not vanish", float(rem[index]), tol(scale),
          cq.net.domain.vertex_at(index)).require(NotBacklund)
    out = c.copy()
    out[:, :, 1:] -= pf[:, :, :k - 1] * Fh / (mu * g)
    out -= quot * F / g
    return ConservedQuantity(transform.net(), out)


@dataclass
class BianchiResult:
    net: IsothermicNet
    lifts: VertexField
    residual_first: float
    residual_second: float
    quantity: ConservedQuantity | None
    quantity_gap: float | None


def bianchi(net: IsothermicNet, first: DarbouxTransform, second: DarbouxTransform,
            quantities: tuple[ConservedQuantity, ConservedQuantity] | None = None)\
        -> BianchiResult:
    """Fourth net of the permutability quadrilateral:

        F_12 = C(mu2/mu1; fhat1, fhat2) F   (vertexwise),

    verified to be a Darboux transform of the first input with parameter
    mu2 and of the second with parameter mu1.  When the two inputs are
    Backlund transforms with their quantities supplied, the transformed
    quantity is computed along both routes and the agreement reported.

    Raises
    ------
    CoincidentTransforms
        If the two transforms touch at some vertex.
    """
    mu1, mu2 = first.mu, second.mu
    if abs(mu1 - mu2) <= tol(1.0 + abs(mu1)):
        raise CoincidentTransforms("equal parameters")
    A, B = first.lifts.data, second.lifts.data
    g = np.abs(minkowski_inner(A, B))
    limit = tol(np.linalg.norm(A, axis=-1) * np.linalg.norm(B, axis=-1))
    if (g <= limit).any():
        index = np.unravel_index(int(np.argmin(g / limit)), g.shape)
        raise CoincidentTransforms(f"transforms coincide at {net.domain.vertex_at(index)}")
    lifts = VertexField(cross_ratio_apply(mu2 / mu1, A, B, net.lifts.data))

    d_of_first = DarbouxTransform(mu2, lifts, first.net())
    d_of_second = DarbouxTransform(mu1, lifts, second.net())
    r1 = d_of_first.cross_ratio_residual()
    r2 = d_of_second.cross_ratio_residual()

    quantity = None
    gap = None
    if quantities is not None:
        q1, q2 = quantities
        route1 = pcq_backlund(q1, d_of_first)
        route2 = pcq_backlund(q2, d_of_second)
        gap = float(np.abs(route1.coeffs - route2.coeffs).max())
        quantity = route1
    return BianchiResult(d_of_first.net(), lifts, r1, r2, quantity, gap)


@dataclass
class ComplementaryNet:
    mu: float
    multiplicity: int
    lifts: VertexField | None  # None when P(mu) vanishes identically
    degenerate: bool


def complementary(cq: ConservedQuantity) -> list[ComplementaryNet]:
    """Evaluations of the quantity at the real roots of |P(lam)|^2.

    Each non-degenerate entry is an isotropic parallel section, i.e. a
    Backlund transform of the net; for a normalized linear quantity the
    roots are H +- sqrt(H^2 + kappa), so their count tracks the sign of
    H^2 + kappa.  Roots come from companion-matrix eigenvalues; a root is
    accepted as real when |imag| <= 1e-7 (1 + |real|), and roots are merged
    into multiplicity clusters of radius 1e-6.
    """
    poly = cq.norm_poly()
    scale = float(np.abs(poly).max())
    if scale == 0.0:
        return []
    k = len(poly)
    while k > 1 and abs(poly[k - 1]) <= tol(scale):
        k -= 1
    poly = poly[:k]
    if len(poly) <= 1:
        return []
    roots = np.roots(poly[::-1])
    real = [float(r.real) for r in roots if abs(r.imag) <= 1e-7 * (1.0 + abs(r.real))]
    real.sort()
    clusters: list[list[float]] = []
    for r in real:
        if clusters and abs(r - clusters[-1][-1]) <= 1e-6:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    out = []
    for cluster in clusters:
        mu = float(np.mean(cluster))
        values = mp_eval(cq.coeffs, mu)
        size = float(np.sqrt((values * values).sum(-1)).max())
        degenerate = size <= tol(cq.scale() * (1.0 + abs(mu)) ** cq.degree)
        lifts = None if degenerate else VertexField(values)
        out.append(ComplementaryNet(mu, len(cluster), lifts, degenerate))
    return out


def pcq_from_parallel_sections(net: IsothermicNet, sections, weights) -> ConservedQuantity:
    """Degree-N conserved quantity from N+1 parallel sections:

        P(lam) = sum_n w_n * S^n * prod_{m != n} (lam - mu_m),

    where S^n is parallel for the connection at mu_n and the combined top
    coefficient sum_n w_n S^n must be orthogonal to the net everywhere.

    Parameters
    ----------
    sections : list of (mu, VertexField)
    weights : list of floats

    Raises
    ------
    ValueError
        If the weights are not one per section.
    NotParallel, IncidenceFailure
    """
    if len(weights) != len(sections):
        raise ValueError(f"{len(weights)} weights for {len(sections)} sections")
    mus = [mu for mu, _ in sections]
    if len(set(np.round(mus, 12))) != len(mus):
        raise ValueError("section parameters must be pairwise distinct")
    for mu, sec in sections:
        Check(f"section at {mu} is not parallel", parallel_residual(net, mu, sec),
              tol(1.0)).require(NotParallel)
    dom = net.domain
    top = np.zeros((dom.rows, dom.cols, 5))
    for w, (mu, sec) in zip(weights, sections):
        top += w * sec.data
    inc = np.abs((top * SIGNATURE * net.lifts.data).sum(-1))
    scale = (1.0 + float(np.abs(top).max())) * net.lift_scale()
    Check("combined top coefficient not orthogonal to the net", float(inc.max()),
          tol(scale)).require(IncidenceFailure)

    k = len(sections)
    coeffs = np.zeros((dom.rows, dom.cols, k, 5))
    for n, (w, (mu, sec)) in enumerate(zip(weights, sections)):
        p = np.array([1.0])
        for m, other in enumerate(mus):
            if m != n:
                p = np.convolve(p, [-other, 1.0])
        coeffs += w * mp_scale_poly(sec.data[:, :, None, :], p)
    return ConservedQuantity(net, coeffs)


def calapso_pcq(cq: ConservedQuantity, frame: CalapsoFrame) -> ConservedQuantity:
    """Conserved quantity of a Calapso transform: vertexwise frame applied
    to the parameter-shifted polynomial P(mu + lam).  Degree and top norm
    are preserved; for linear quantities the curvatures move along the
    family H -> H - mu, kappa -> kappa + 2 mu H - mu^2 with H^2 + kappa
    invariant."""
    a, b = frame.net, cq.net
    if a is not b and not (np.array_equal(a.lifts.data, b.lifts.data)  # a reloaded net
                           and np.array_equal(a.weights.u, b.weights.u)
                           and np.array_equal(a.weights.v, b.weights.v)):
        raise ValueError("frame was built for a different net")
    shifted = mp_shift(cq.coeffs, frame.mu)
    data = np.einsum("mnij,mnkj->mnki", frame.frames.data, shifted)
    return ConservedQuantity(frame.transformed, data)
