"""Polynomial conserved quantities of discrete isothermic nets.

A conserved quantity attaches to every vertex a polynomial P(lam) with
5-vector coefficients such that, on every edge (ij),

    dP_ij(lam) = (lam * a_ij / <F_i, F_j>) * ( <P_j, F_j> F_i - <P_i, F_i> F_j ).

Consequences used throughout: the constant coefficient is the same vector
at every vertex (it defines the ambient space form), |P(lam)|^2 depends on
lam only, and the top coefficient is orthogonal to the net's lifts.  Linear
quantities lam*Z + Q with |Z|^2 = 1 carry the geometry of constant mean
curvature: H = -<Z, Q> and ambient curvature kappa = -|Q|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTop,
    NonzeroRoot,
    NotConserved,
    NotNormalized,
    SphericalStar,
)
from .grids import EdgeFunction, VertexField, edge_stacks, sweep_integrate, sweep_propagate
from .minkowski import SIGNATURE, _dot, minkowski_inner, norm2, span_normal
from .nets import IsothermicNet
from .polyvec import (
    mp_divide_linear,
    mp_divide_one_minus,
    mp_eval,
    mp_inner_vec,
    mp_max_coeff,
    mp_norm_poly,
    mp_scale_arg,
)
from .tolerances import Check, tol


class ConservedQuantity:
    """Vertex field of polynomials of a common degree, bound to a net."""

    def __init__(self, net: IsothermicNet, coeffs, *, check: bool = True):
        coeffs = np.asarray(coeffs, dtype=float)
        if (coeffs.shape[:2] != (net.domain.rows, net.domain.cols) or coeffs.shape[3:] != (5,)
                or coeffs.shape[2] == 0):
            raise ValueError("coefficient array must have shape (rows, cols, deg+1, 5)")
        self.net = net
        self.coeffs = coeffs
        if check:
            self._check_invariants()

    @classmethod
    def linear(cls, net: IsothermicNet, Q, Z, *, check: bool = True) -> "ConservedQuantity":
        """The linear quantity lam*Z + Q: constant coefficient Q (a 5-vector)
        and top coefficients Z, shape (rows, cols, 5)."""
        coeffs = np.empty((net.domain.rows, net.domain.cols, 2, 5))
        coeffs[:, :, 0] = Q
        coeffs[:, :, 1] = Z
        return cls(net, coeffs, check=check)

    # -- basic accessors ------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.shape[2] - 1

    def at(self, v) -> np.ndarray:
        """Coefficients at vertex ``v`` (the library indexes ``coeffs``)."""
        mi, ni = self.net.domain.index(v)
        return self.coeffs[mi, ni]

    def evaluate(self, lam: float) -> VertexField:
        return VertexField(mp_eval(self.coeffs, lam))

    @property
    def constant(self) -> np.ndarray:
        """The (vertex-independent) constant coefficient."""
        return self.coeffs[:, :, 0, :].mean(axis=(0, 1))

    def scale(self) -> float:
        return 1.0 + mp_max_coeff(self.coeffs)

    def scaled(self, factor: float) -> "ConservedQuantity":
        return ConservedQuantity(self.net, self.coeffs * factor, check=False)

    # -- invariants -----------------------------------------------------

    def _check_invariants(self):
        s = self.scale()
        Check("constant coefficient varies over vertices",
              float(np.abs(self.coeffs[:, :, 0, :] - self.constant).max()),
              tol(s)).require(NotConserved)
        np_all, _ = self._norm_polys(s)
        inc = np.abs(mp_inner_vec(self.coeffs[:, :, -1, :], self.net.lifts.data))
        Check("top coefficient not orthogonal to the net", float(inc.max()),
              tol(s * self.net.lift_scale())).require(NotConserved)
        Check("top coefficient has negative Minkowski square", -float(np_all[..., -1].min()),
              tol(s * s)).require(NotConserved)

    def _norm_polys(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """|P(lam)|^2 at every vertex and its mean, about which it spreads by at most tol(s^2)."""
        np_all = mp_norm_poly(self.coeffs)
        mean = np_all.mean(axis=(0, 1))
        Check("|P|^2 varies over vertices", float(np.abs(np_all - mean).max()),
              tol(s * s)).require(NotConserved)
        return np_all, mean

    def norm_poly(self) -> np.ndarray:
        """Coefficients of |P(lam)|^2 (asserts vertex independence)."""
        return self._norm_polys(self.scale())[1]

    def top_norm2(self) -> float:
        return float(self.norm_poly()[-1])


def pcq_verify(net: IsothermicNet, quantity: ConservedQuantity) -> Check:
    """The conserved-quantity edge condition as a check, never raised: the
    worst coefficientwise residual of the edge condition, relative to the
    coefficient scale, against tol(1)."""
    coeffs = quantity.coeffs
    k = coeffs.shape[2]
    F = net.lifts.data
    p = mp_inner_vec(coeffs, F[:, :, None, :])  # <P, F>(lam) at every vertex
    worst = 0.0
    for (Fi, Fj), a, (ci, cj), (pi, pj) in zip(edge_stacks(F), net.weights.stacks(),
                                               edge_stacks(coeffs), edge_stacks(p)):
        w = (a / minkowski_inner(Fi, Fj))[..., None]
        dc = cj - ci
        # coefficient l of dP - (lam a / <F_i, F_j>) (<P_j, F_j> F_i - <P_i, F_i> F_j)
        for l in range(k + 1):
            r = dc[..., l, :] if l < k else 0.0
            if l:
                r = r - w * (pj[..., l - 1, None] * Fi - pi[..., l - 1, None] * Fj)
            worst = np.maximum(worst, np.abs(r).max(initial=0.0))
    return Check("edge condition of the conserved quantity",
                 float(worst) / (1.0 + mp_max_coeff(coeffs)), tol(1.0))


def pcq_propagate(net: IsothermicNet, seed, basepoint=None) -> ConservedQuantity:
    """Extend a seed polynomial at the basepoint to a conserved quantity by
    parallel transport through the edge connections.

    The transport follows the spanning tree of :func:`grids.sweep_propagate`.
    On each edge the transported polynomial stays polynomial only if an
    exact division by (1 - lam * a_ij) succeeds; a residual there, degree
    growth, or path dependence on the redundant edges means the seed value
    is wrong or the net has no such quantity.

    Raises
    ------
    NotConserved
    """
    dom = net.domain
    if basepoint is None:
        basepoint = dom.center()
    seed = np.asarray(seed, dtype=float)
    if seed.ndim != 2 or seed.shape[1] != 5:
        raise ValueError("seed must have shape (deg+1, 5)")
    k = seed.shape[0]
    scale = 1.0 + mp_max_coeff(seed)
    limit = tol(scale * net.lift_scale())
    lifts = edge_stacks(net.lifts.data)
    weights = [np.broadcast_to(a, Fi.shape[:2]) for a, (Fi, _) in zip(net.weights.stacks(), lifts)]

    def transport(ci, axis, index, forward):
        Fi, Fj = (F[index][..., None, :] for F in lifts[axis][::1 if forward else -1])
        a = weights[axis][index][..., None]
        g = minkowski_inner(Fi, Fj)[..., None]
        # exact division of <P_src(lam), F_dst> by (1 - a*lam) gives <P_dst, F_dst>
        p_dst, rem = mp_divide_one_minus(mp_inner_vec(ci, Fj)[..., None], a)
        worst, edge = dom.worst_edge(np.abs(rem[..., 0]), axis, index, forward)
        Check("transport is not polynomial: division remainder", worst, limit,
              edge).require(NotConserved)
        p_src = mp_inner_vec(ci, Fi)
        worst, edge = dom.worst_edge(np.abs(p_src[..., k - 1]), axis, index, forward)
        Check("transport raises the degree: top incidence defect", worst, limit,
              edge).require(NotConserved)
        add = np.zeros(ci.shape)
        add[..., 1:, :] = p_dst[..., :k - 1, :] * Fi - p_src[..., :k - 1, None] * Fj
        return ci + (a[..., None] / g) * add

    coeffs, worst, edge = sweep_propagate(dom, seed, basepoint, transport)
    Check("path dependence during propagation", worst, tol(scale), edge).require(NotConserved)
    return ConservedQuantity(net, coeffs)


def degree_reduce(cq: ConservedQuantity, mu: float) -> ConservedQuantity:
    """Divide out a common root: P(mu) must vanish at every vertex
    (it vanishes globally as soon as it vanishes anywhere).

    Raises
    ------
    NonzeroRoot
    """
    if not np.isfinite(mu):
        raise ValueError(f"mu = {mu} must be finite")
    values = mp_eval(cq.coeffs, mu)
    Check(f"|P({mu})| is not a root", float(np.sqrt(_dot(values, values)).max()),
          tol(cq.scale() * (1.0 + abs(mu)) ** cq.degree)).require(NonzeroRoot)
    if cq.coeffs.shape[2] < 2:
        raise NonzeroRoot("cannot reduce a constant quantity")
    return ConservedQuantity(cq.net, mp_divide_linear(cq.coeffs, mu)[0])


def reparametrize(cq: ConservedQuantity, alpha: float) -> ConservedQuantity:
    """Rescale the spectral parameter: P(alpha * lam) is conserved for the
    same net with edge weights alpha * a."""
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha = {alpha} must be finite")
    weights = cq.net.weights
    net = IsothermicNet(VertexField(cq.net.lifts.data.copy()),
                        EdgeFunction(weights.u * alpha, weights.v * alpha))
    return ConservedQuantity(net, mp_scale_arg(cq.coeffs, alpha))


def normalize_top(cq: ConservedQuantity) -> ConservedQuantity:
    """Scale so the top coefficient has unit Minkowski square.

    Raises
    ------
    DegenerateTop
        If |top|^2 vanishes (the top is then a lift of the net itself).
    """
    s = cq.scale()
    t2 = float(cq._norm_polys(s)[1][-1])
    if t2 <= tol(s ** 2):
        raise DegenerateTop("isotropic top coefficient cannot be normalized")
    return cq.scaled(1.0 / np.sqrt(t2))


def mean_curvature_data(cq: ConservedQuantity):
    """(H, kappa) of a normalized linear quantity: H = -<Z, Q> (constant
    over vertices), kappa = -|Q|^2.

    Raises
    ------
    NotNormalized
        If |top|^2 misses 1 by more than tolerance (for a quantity from the
        revolution builder: the builder lost that much accuracy).
    """
    if cq.degree != 1:
        raise ValueError("mean curvature data needs a linear quantity")
    s = cq.scale()
    Check("quantity is not normalized: |top|^2 - 1", abs(float(cq._norm_polys(s)[1][-1]) - 1.0),
          tol(1.0)).require(NotNormalized)
    Q = cq.constant
    zq = mp_inner_vec(cq.coeffs[:, :, 1, :], Q)
    H = -float(zq.mean())
    Check("<Z, Q> varies over vertices", float(np.abs(zq + H).max()),
          tol(s ** 2)).require(NotConserved)
    return H, -float(norm2(Q))


# --- sphere-congruence propagation and linear solvers -----------------------


def propagate_congruence(net: IsothermicNet, Q, basepoint) -> VertexField:
    """Propagate a vertex congruence from zero at the basepoint by

        Z_j = Z_i + a_ij / <F_i, F_j> * ( <Q, F_j> F_i - <Q, F_i> F_j ),

    which is integrable on any isothermic net and independent of lift
    scalings.  Incidence <Z, F> = 0 is *not* automatic away from the
    basepoint's star; callers check it.

    The edge form is summed along the basepoint's column and then along
    every row, and closed on the remaining edges, by
    :func:`grids.sweep_integrate`."""
    dom = net.domain
    F = net.lifts.data
    QF = minkowski_inner(F, np.asarray(Q, dtype=float))
    wu, wv = [(a / minkowski_inner(Fi, Fj))[..., None] * (qj[..., None] * Fi - qi[..., None] * Fj)
              for (Fi, Fj), a, (qi, qj) in zip(edge_stacks(F), net.weights.stacks(),
                                               edge_stacks(QF))]
    Z, worst, edge = sweep_integrate(dom, wu, wv, basepoint)
    Check("congruence propagation is path dependent", worst,
          tol(1.0 + float(np.abs(Z).max())), edge).require(NotConserved)
    return VertexField(Z)


def lcq_solve_grid(net: IsothermicNet, Q, basepoint=None):
    """Linear conserved quantity with prescribed constant term on a whole
    grid, or the failed :class:`tolerances.Check` when none exists.

    Solves the nine incidence conditions on the extended vertex star of the
    basepoint in least squares (on a 3x3 net the axis star: five conditions
    for the five components of Z there), propagates, and checks incidence at
    every vertex (naming the worst) and the edge condition
    (:func:`pcq_verify`); failure means the net is not cmc for this ambient
    vector.

    Raises
    ------
    SphericalStar
        If the star's lifts span fewer than five dimensions, so that they
        do not pin Z at the basepoint.
    """
    dom = net.domain
    if basepoint is None:
        basepoint = dom.center()
    Q = np.asarray(Q, dtype=float)

    # propagation is affine in the start value with trivial linear part:
    # Z(v) = Z(base) + W(v) with W independent of the start.
    W = propagate_congruence(net, Q, basepoint)

    m, n = basepoint
    star = [(m, n), (m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1),
            (m + 2, n), (m - 2, n), (m, n + 2), (m, n - 2)]
    idx = tuple(np.array([v for v in star if dom.contains(v)]).T)
    F = net.lifts.data[idx]
    Zc, _, _, s = np.linalg.lstsq(F * SIGNATURE, -mp_inner_vec(W.data[idx], F), rcond=None)
    Check("vertex star is cospherical", float(s[4] / s[0]) if len(s) == 5 else 0.0, tol(1.0),
          basepoint, floor="singular value ratio").require(SphericalStar)

    Z = VertexField(W.data + Zc)
    scale = (1.0 + float(np.abs(Z.data).max())) * net.lift_scale()
    inc = np.abs(mp_inner_vec(Z.data, net.lifts.data)) / scale
    worst = np.unravel_index(int(np.argmax(inc)), inc.shape)
    check = Check("incidence residual", float(inc[worst]), tol(1.0), dom.vertex_at(worst))
    if not check.ok:
        return check
    cq = ConservedQuantity.linear(net, Q, Z.data, check=False)
    check = pcq_verify(net, cq)
    return cq if check.ok else check


@dataclass
class TypeReport:
    spherical: bool
    sphere: np.ndarray | None  # a sphere through every vertex; unique iff span == 4
    min_degree: int | None
    degenerate_present: bool
    passed: tuple[bool, ...] | None  # whether each candidate verified; None if not checked
    span: int  # dimension of the span of the lifts

    @property
    def verified(self) -> int:
        """How many candidates verified."""
        return sum(self.passed or ())


def classify_type(net: IsothermicNet, candidates=()) -> TypeReport:
    """Classify the net relative to supplied candidate quantities.

    Type 0 (all vertices on one sphere) is decided intrinsically from the
    rank of the lifts (their span; the sphere is unique at span 4) and holds
    for every net of fewer than five vertices; higher types are certified
    only relative to the verified normalized candidates, reporting the
    minimal degree among them and whether a degenerate (isotropic-top)
    quantity was seen.
    """
    V = net.lifts.data.reshape(-1, 5)
    V = V / np.sqrt(_dot(V, V))[:, None]
    s = np.linalg.svd(V, compute_uv=False)
    span = int(np.count_nonzero(s / s[0] > tol(1.0)))
    if span < 5:
        return TypeReport(True, span_normal(V), 0, False, None, span)

    min_degree = None
    degenerate = False
    passed = []
    for cand in candidates:
        passed.append(pcq_verify(net, cand).ok)
        if not passed[-1]:
            continue
        s = cand.scale()
        if float(cand._norm_polys(s)[1][-1]) <= tol(s ** 2):
            degenerate = True
            continue
        d = cand.degree
        if min_degree is None or d < min_degree:
            min_degree = d
    return TypeReport(False, None, min_degree, degenerate, tuple(passed), span)
