"""Linear algebra of the Lorentz space R^{4,1} and its light cone.

Vectors are plain numpy arrays of shape ``(..., 5)`` with the inner product

    <x, y> = -x0*y0 + x1*y1 + x2*y2 + x3*y3 + x4*y4.

Points of the conformal 3-sphere are represented by isotropic rays; all
operations below are invariant under rescaling of such representatives
unless stated otherwise.  The distinguished splitting R^{2,1} + R^2 used by
surfaces of revolution maps the Lorentz 3-space onto the component slots
(0, 1, 4) and the rotation plane onto the slots (2, 3).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateLift,
    DegeneratePair,
    DegeneratePoints,
    NonFiniteLift,
    SingularParameter,
    SingularSystem,
)
from .tolerances import tol

#: Diagonal of the metric, as a vector for broadcasting.
SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])

#: The metric as a matrix.
METRIC = np.diag(SIGNATURE)

#: Flat ambient vector (1,0,0,0,-1): the space form it defines via
#: ``{Y : <Y,Q> = -1}`` is Euclidean 3-space, and :func:`euclidean_lift`
#: lands in it.
Q_EUCLIDEAN = np.array([1.0, 0.0, 0.0, 0.0, -1.0])

#: Slots of the Lorentz R^{2,1} factor and of the rotation plane R^2.
LORENTZ3_SLOTS = (0, 1, 4)
ROTATION_SLOTS = (2, 3)

SIGNATURE3 = np.array([-1.0, 1.0, 1.0])


def minkowski_inner(x, y):
    """Indefinite inner product; broadcasts over leading axes."""
    return (np.asarray(x) * np.asarray(y) * SIGNATURE).sum(axis=-1)


def norm2(x):
    """Minkowski square |x|^2 (may be negative)."""
    return minkowski_inner(x, x)


def euclidean_lift(f):
    """Isotropic representative ((1+|f|^2)/2, f, (1-|f|^2)/2) of a point of R^3.

    Satisfies <F, F> = 0, <F, Q_EUCLIDEAN> = -1 and, for two lifts,
    <F, G> = -|f - g|^2 / 2.
    """
    f = np.asarray(f, dtype=float)
    s = (f * f).sum(axis=-1)
    return np.concatenate(
        [((1.0 + s) / 2.0)[..., None], f, ((1.0 - s) / 2.0)[..., None]], axis=-1
    )


def euclidean_point(F):
    """Inverse chart of :func:`euclidean_lift` on representatives with
    <F, Q_EUCLIDEAN> != 0."""
    F = np.asarray(F, dtype=float)
    w = -minkowski_inner(F, Q_EUCLIDEAN)
    return F[..., 1:4] / w[..., None]


def spaceform_point(F, Q):
    """Rescale a lightlike F into the quadric {Y : <Y, Q> = -1}.

    Raises
    ------
    DegenerateLift
        If <F, Q> vanishes, i.e. the point lies on the infinity boundary
        of the space form defined by Q.
    """
    F = np.asarray(F, dtype=float)
    w = minkowski_inner(F, Q)
    scale = float(np.linalg.norm(F) * np.linalg.norm(Q))
    if np.any(np.abs(w) <= tol(scale)):
        raise DegenerateLift("point on the infinity boundary of the space form")
    return F / (-w)[..., None]


class QuadInvariants(NamedTuple):
    """Per-quadruple results of :func:`quad_invariants`, arrays of shape (...)."""

    q: np.ndarray
    regularity: np.ndarray

    def cross_ratios(self) -> np.ndarray:
        """``q``, or DegeneratePoints if two points of a quadruple coincide."""
        regularity = np.asarray(self.regularity)
        if regularity.size and regularity.min() <= regularity_tol():
            worst = np.unravel_index(int(np.argmin(regularity)), regularity.shape)
            where = f" of quadruple {tuple(map(int, worst))}" if worst else ""
            raise DegeneratePoints(f"two points{where} coincide "
                                   f"(regularity {float(regularity.min()):.3g})")
        return self.q


def quad_invariants(V) -> QuadInvariants:
    """Cross ratio and regularity of stacked quadruples of points.  ``V`` has
    shape (..., 4, 5), one quadruple of isotropic representatives per
    leading index; :func:`face_products` and :func:`edge_quad_products` take
    the quadruples of vertex arrays without stacking them.

    With <ij> the products of the unit representatives U_i = V_i / |V_i|
    and

        a = <12><34>,   b = <13><24>,   c = <14><23>,

    the fields are

    - ``q``: the cross ratio, with real part (a - b + c) / 2c.  The Gram
      determinant of the quadruple is det = a^2 + b^2 + c^2 - 2ab - 2bc - 2ca,
      which equals (x - y - z)^2 - 4yz for every order x, y, z of a, b, c
      and is evaluated with x the largest in size, where the square cancels
      least; four points off a common circle span four dimensions with
      det < 0, and the imaginary part is then sqrt(-det) / 2|c| (the
      canonical branch, positive).  Concircularity decides which
      quadruples get it: U_4 is projected onto the span of U_1, U_2, U_3
      with the closed-form inverse (cofactors over determinant) of their
      Gram matrix M, which for isotropic vectors has zero diagonal and
      determinant 2<12><13><23>, so that

          R = U_4 - alpha_1 U_1 - alpha_2 U_2 - alpha_3 U_3,
          alpha_1 = (a + b - c) / 2<12><13>,
          alpha_2 = (a - b + c) / 2<12><23>,
          alpha_3 = (b + c - a) / 2<13><23>.

      |R| is linear in the off-circle distance; a quadruple with
      |R| <= tol(1 + sum |alpha|) is concircular to working precision and
      keeps a real cross ratio.  M keeps its computed diagonal, so lifts
      slightly off the light cone that still span three dimensions count
      as concircular.  a, b and c all scale with the product of the four
      representatives and are Lorentz invariant, so ``q`` does not change
      under rescaling of a representative or a Möbius map of the points.
    - ``regularity``: min |<ij>| / max |<ij>| over the six pairs.  Two
      isotropic vectors are orthogonal only when proportional, and three
      have Gram determinant 2<12><13><23>, so this is 0 exactly when two
      points coincide and positive exactly when every triple of the
      quadruple is in general position.  It is quadratic in the side ratio
      of a thin quadruple, rescaling invariant and, through the unit
      representatives, chart dependent.  A product no larger than the
      noise of the products, the lifts' own isotropy defect max |<ii>| plus
      a few rounding units, cannot tell two points apart and counts as 0.

    Each product is summed in the fixed order of :func:`_inner` and carries
    a rounding error of a few units, so a quadruple whose products are small
    against the representatives' norms (small faces far from the origin of
    the chart) loses digits to it.

    Raises
    ------
    DegeneratePoints
        If a representative is zero.
    NonFiniteLift
        If a representative holds a NaN or infinite entry.
    """
    U, s = _units(V)
    corners = tuple(U[..., k, :] for k in range(4))
    products = tuple(_inner(x, y) for x, y in itertools.combinations(corners, 2))
    return invariants_from_products(corners, products, tuple(s[..., k] for k in range(4)))


def face_products(data):
    """The arguments of :func:`invariants_from_products` for the faces of a
    vertex array, each product taken once per vertex, edge or face diagonal."""
    U, s = _units(data)
    along_m, along_n = _inner(U[:-1], U[1:]), _inner(U[:, :-1], U[:, 1:])
    corners = U[:-1, :-1], U[1:, :-1], U[1:, 1:], U[:-1, 1:]
    products = (along_m[:, :-1], _inner(corners[0], corners[2]), along_n[:-1], along_n[1:],
                _inner(corners[1], corners[3]), along_m[:, 1:])
    return corners, products, (s[:-1, :-1], s[1:, :-1], s[1:, 1:], s[:-1, 1:])


def edge_quad_products(F, H):
    """The arguments of :func:`invariants_from_products` for [F_i, F_j, H_j, H_i]
    on the edge stacks (i, j) along +m and +n of two vertex arrays: norms and
    <F, H> taken once per vertex, the other products once per edge."""
    (UF, sF), (UH, sH) = _units(F), _units(H)
    rungs = _inner(UF, UH)
    return [((UF[i], UF[j], UH[j], UH[i]),
             (_inner(UF[i], UF[j]), _inner(UF[i], UH[j]), rungs[i], rungs[j],
              _inner(UF[j], UH[i]), _inner(UH[j], UH[i])),
             (sF[i], sF[j], sH[j], sH[i]))
            for i, j in ((np.s_[:-1], np.s_[1:]), (np.s_[:, :-1], np.s_[:, 1:]))]


def _inner(X, Y):
    """<X, Y> in the fixed order (((-x0 y0 + x1 y1) + x2 y2) + x3 y3) + x4 y4."""
    xy = X * Y
    return (((xy[..., 1] - xy[..., 0]) + xy[..., 2]) + xy[..., 3]) + xy[..., 4]


def require_finite(V) -> None:
    """Raise NonFiniteLift naming the first vector of V (..., 5) with a NaN or
    infinite entry, by its index into the leading axes."""
    bad = ~np.isfinite(V).all(axis=-1)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteLift(f"lift at index {index} is not finite")


def _units(V):
    """Unit representatives V / |V| and their self-products <U, U>."""
    V = np.asarray(V, dtype=float)
    norms = np.sqrt((V * V).sum(axis=-1))
    if not np.isfinite(norms).all():
        require_finite(V)
    if (norms == 0.0).any():
        raise DegeneratePoints("zero representative")
    U = V / norms[..., None]
    return U, _inner(U, U)


def invariants_from_products(corners, products, selfs) -> QuadInvariants:
    """The fields of :func:`quad_invariants` from the unit corners U_1 .. U_4,
    their pair products 12, 13, 14, 23, 24, 34 and their self-products."""
    # one contiguous array each, rows of which the arithmetic below runs on
    products, selfs = np.array(products), np.array(selfs)
    g12, g13, g14, g23, g24, g34 = products
    g11, g22, g33, _ = selfs
    a, b, c = g12 * g34, g13 * g24, g14 * g23
    regularity = _regularity(products, selfs)
    # cofactors of M, the Gram matrix of U_1, U_2, U_3
    m11, m22, m33 = g22 * g33 - g23 * g23, g11 * g33 - g13 * g13, g11 * g22 - g12 * g12
    m12, m13, m23 = g13 * g23 - g12 * g33, g12 * g23 - g13 * g22, g12 * g13 - g23 * g11
    # a degenerate quadruple gets an infinite or nan q; callers reject it
    # by its regularity
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.array((a - b + c) / (2.0 * c), dtype=complex)
        det_m = g11 * m11 + g12 * m12 + g13 * m13
        alpha = [(m11 * g14 + m12 * g24 + m13 * g34) / det_m,
                 (m12 * g14 + m22 * g24 + m23 * g34) / det_m,
                 (m13 * g14 + m23 * g24 + m33 * g34) / det_m]
        R = corners[3] - sum(w[..., None] * corners[k] for k, w in enumerate(alpha))
        off = np.sqrt((R * R).sum(axis=-1)) > tol(1.0 + sum(np.abs(w) for w in alpha))
    if off.any():
        a, b, c = a[off], b[off], c[off]
        big_a = (np.abs(a) >= np.abs(b)) & (np.abs(a) >= np.abs(c))
        big_b = ~big_a & (np.abs(b) >= np.abs(c))
        x = np.where(big_a, a, np.where(big_b, b, c))
        y, z = np.where(big_a, b, a), np.where(big_a | big_b, c, b)
        det = (x - y - z) ** 2 - 4.0 * y * z
        with np.errstate(divide="ignore", invalid="ignore"):
            q.imag[off] = np.where(det < 0.0, np.sqrt(np.abs(det)) / (2.0 * np.abs(c)), 0.0)
    return QuadInvariants(q, regularity)


def _regularity(products, selfs):
    """The ``regularity`` of :func:`quad_invariants` from the six products and
    the four self-products of unit representatives, stacked on axis 0."""
    absg = np.abs(products)
    gmin, gmax = absg.min(axis=0), absg.max(axis=0)
    noise = np.abs(selfs).max(axis=0) + 8.0 * np.finfo(float).eps
    return np.where(gmin > noise, gmin, 0.0) / np.where(gmax > 0.0, gmax, 1.0)


def regularity_tol() -> float:
    """Largest ``regularity`` of :func:`quad_invariants` that counts as 0:
    tol(1)^2, since the measure is quadratic in the side ratio of a thin
    quadruple."""
    return tol(1.0) ** 2


def cross_ratios(V):
    """Cross ratios of quadruples of points stacked by the caller: ``V`` has
    shape (..., 4, 5), one quadruple of isotropic representatives per leading
    index, and the result is a complex array of shape (...), the checked
    ``q`` of :func:`quad_invariants`.  With a = <12><34>, b = <13><24>,
    c = <14><23> from the products of the unit representatives,

        q = ( a - b + c + sqrt(det) ) / 2c,   det = a^2 + b^2 + c^2 - 2ab - 2bc - 2ca,

    real for concircular points (the fourth lift in the span of the other
    three) and otherwise on the branch with positive imaginary part.  The
    value does not depend on the scaling of each representative.

    Raises
    ------
    DegeneratePoints
        If a representative is zero, or two points of some quadruple
        coincide: its regularity min |<ij>| / max |<ij>| is at most
        :func:`regularity_tol`.
    """
    return quad_invariants(V).cross_ratios()


def cross_ratio(P1, P2, P3, P4):
    """Cross ratio of four points given by isotropic representatives: the
    one-quadruple case of :func:`cross_ratios`."""
    return complex(cross_ratios(np.array([P1, P2, P3, P4], dtype=float)))


def circle_coefficients(q, A, B):
    """The circle transform C(q; A, B) of :func:`cross_ratio_apply` as its
    coefficients c = (alpha, beta) = ((q-1)/<A,B>, (1/q - 1)/<A,B>), shape
    (..., 2, 1): with U = [A, B] of shape (..., 5, 2) and J = [JB; JA] of
    shape (..., 2, 5), JX = X * SIGNATURE, the map is X + U (c * (J X))
    (:func:`_circle_apply`), and swapping alpha and beta gives its inverse
    C(q; B, A).  Parameters of shape (...) broadcast against anchors of shape
    (..., 5).  Raises SingularParameter if some q vanishes and DegeneratePair
    if some pair of anchors is orthogonal."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if (np.abs(q) <= tol(1.0)).any():
        raise SingularParameter("circle transform parameter is zero")
    g = np.einsum("...i,...i->...", A, B * SIGNATURE)
    if (np.abs(g) <= tol(np.sqrt(np.einsum("...i,...i->...", A, A)
                                 * np.einsum("...i,...i->...", B, B)))).any():
        raise DegeneratePair("anchor representatives are orthogonal")
    return np.stack([(q - 1.0) / g, (1.0 / q - 1.0) / g], axis=-1)[..., None]


def _circle_apply(U, J, c, X):
    """X + U (c * (J X)) for U, J and c of :func:`circle_coefficients` and
    columns X of shape (..., 5, k); no matrix I + U c J is formed."""
    return X + U @ (c * (J @ X))


def _anchored(q, A, B):
    """U = [A, B], J = [JB; JA] and c of :func:`circle_coefficients`."""
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    c = circle_coefficients(q, A, B)
    return np.stack([A, B], axis=-1), np.stack([B, A], axis=-2) * SIGNATURE, c


def cross_ratio_apply(q, A, B, X):
    """Apply the circle transform with parameter q anchored at the rays A, B
    to X, through its coefficients (:func:`circle_coefficients`):

        X  ->  X + ( (q-1) <X,B> A + (1/q - 1) <X,A> B ) / <A,B>.

    It fixes the rays of A and B (with multipliers q and 1/q), restricts to
    the identity on their orthogonal complement, and does not depend on the
    scaling of A or B.  For isotropic A, B it moves points along the circle
    through a, b: parameter 0 sends everything to b, 1 is the identity and
    the limit of large q sends everything to a.
    """
    return _circle_apply(*_anchored(q, A, B), np.asarray(X, dtype=float)[..., None])[..., 0]


def cross_ratio_matrix(q, A, B):
    """5x5 matrix of :func:`cross_ratio_apply`, its apply to the identity; an
    isometry of the metric.  Parameters of shape (...) and anchors of shape
    (..., 5) give matrices of shape (..., 5, 5)."""
    return _circle_apply(*_anchored(q, A, B), np.eye(5))


def solve_dense(A, b):
    """Solve a small (k <= 6) dense system by Gaussian elimination with
    partial pivoting.

    Raises
    ------
    SingularSystem
        If a pivot falls below tolerance relative to the matrix scale.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    k = A.shape[0]
    if A.shape != (k, k) or b.shape != (k,):
        raise ValueError("solve_dense expects a square matrix and matching vector")
    if k > 6:
        raise ValueError("solve_dense is limited to systems of size <= 6")
    scale = max(1.0, float(np.abs(A).max()))
    M = np.hstack([A, b[:, None]])
    for col in range(k):
        p = col + int(np.argmax(np.abs(M[col:, col])))
        if abs(M[p, col]) <= tol(scale):
            raise SingularSystem("pivot below tolerance")
        if p != col:
            M[[col, p]] = M[[p, col]]
        M[col] = M[col] / M[col, col]
        for r in range(k):
            if r != col:
                M[r] -= M[r, col] * M[col]
    return M[:, k].copy()


def orthonormal_complement(X):
    """Deterministic orthonormal basis of the Minkowski complement of a
    non-isotropic vector, ordered timelike direction first (when present).

    Rows w satisfy <w_i, w_j> = +-delta_ij; signs are fixed by making the
    largest component of each direction positive.  The basis comes from a
    Gram-Schmidt pass over the columns of the projector onto the complement;
    when that pass keeps a nearly dependent column, so that the Minkowski
    Gram of its rows has an eigenvalue within tolerance of 0 or the result
    is not orthonormal or not orthogonal to X within tolerance, the range is
    taken from the projector's SVD instead.
    """
    X = np.asarray(X, dtype=float)
    x2 = float(norm2(X))
    if abs(x2) <= tol(float(np.dot(X, X))):
        raise ValueError("complement basis needs a non-isotropic vector")
    comp = np.eye(5) - np.outer(X, X * SIGNATURE) / x2
    basis = []
    for col in comp.T:
        w = col.copy()
        for b in basis:
            w -= (np.dot(w, b) / np.dot(b, b)) * b
        if np.linalg.norm(w) > 1e-9:
            basis.append(w)
        if len(basis) == 4:
            break
    # a Gram eigenvalue within a few rounding units of the largest carries no
    # digits: the pass kept a nearly dependent column
    dirs = (_minkowski_directions(np.stack(basis), floor=4.0 * np.finfo(float).eps)
            if len(basis) == 4 else None)
    if dirs is not None:
        gram_defect = np.abs(np.abs((dirs * SIGNATURE) @ dirs.T) - np.eye(4)).max()
        incidence = (np.abs(minkowski_inner(dirs, X))
                     / (np.linalg.norm(dirs, axis=1) * np.linalg.norm(X)))
        if not max(gram_defect, incidence.max()) <= tol(1.0):
            dirs = None
    if dirs is None:
        dirs = _minkowski_directions(np.linalg.svd(comp)[0][:, :4].T)
    for d in dirs:
        k = int(np.argmax(np.abs(d)))
        if d[k] < 0:
            d *= -1.0
    return dirs


def _minkowski_directions(B, floor=0.0):
    """The rows of B recombined into directions with <w_i, w_j> = +-delta_ij,
    in ascending order of the Minkowski Gram's eigenvalues; None when some
    eigenvalue is at most ``floor`` times the largest in absolute value."""
    evals, evecs = np.linalg.eigh((B * SIGNATURE) @ B.T)
    size = np.abs(evals)
    if size.min() <= floor * size.max():
        return None
    return (evecs.T @ B) / np.sqrt(size)[:, None]


def span_normal(V):
    """Unit spacelike Minkowski normal of the span of the rows of V (the
    sphere through the points those lifts represent), with its largest
    entry made positive; None when the normal is not spacelike."""
    _, _, vt = np.linalg.svd(V * SIGNATURE)
    normal = vt[-1]
    nn = float(norm2(normal))
    if nn <= tol(1.0):
        return None
    normal = normal / np.sqrt(nn)
    k = int(np.argmax(np.abs(normal)))
    return -normal if normal[k] < 0 else normal


def ray_distance(x, y):
    """Distance between the projective rays of x and y (0 when proportional).

    Computed as the smaller chord between the unit representatives and their
    negatives, which stays accurate down to exact proportionality.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise DegeneratePoints("zero representative")
    xh = x / nx
    yh = y / ny
    return float(min(np.linalg.norm(xh - yh), np.linalg.norm(xh + yh)))


# --- the Lorentz R^{2,1} factor ------------------------------------------------

def inner3(x, y):
    """Inner product of the R^{2,1} factor (slots 0, 1, 4 of the ambient)."""
    return (np.asarray(x) * np.asarray(y) * SIGNATURE3).sum(axis=-1)


def norm3(x):
    return inner3(x, x)


def lorentz_cross(a, b):
    """Vector y with <y, w> = det(a, b, w) for all w in R^{2,1}.

    For a in the hyperbolic plane (|a|^2 = -1) and b orthogonal to a this
    produces the vector completing (a, b) to a positively oriented basis,
    with |y|^2 = |b|^2.
    """
    return SIGNATURE3 * np.cross(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def hyperbolic_point(eta, rho):
    """Point of the hyperbolic plane {|Y|^2 = -1, Y0 > 0} in R^{2,1}
    representing the profile sample (axis coordinate eta, radius rho > 0)."""
    if rho <= 0:
        raise ValueError("profile radius must be positive")
    s = eta * eta + rho * rho
    return np.array([(1.0 + s) / (2.0 * rho), eta / rho, (1.0 - s) / (2.0 * rho)])


def profile_coordinates(M):
    """Inverse of :func:`hyperbolic_point`: recover (eta, rho)."""
    M = np.asarray(M, dtype=float)
    w = M[..., 0] + M[..., 2]
    return M[..., 1] / w, 1.0 / w


def embed_lorentz3(x):
    """Embed an R^{2,1} vector into the ambient slots (0, 1, 4)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (5,))
    out[..., 0] = x[..., 0]
    out[..., 1] = x[..., 1]
    out[..., 4] = x[..., 2]
    return out


