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

import numpy as np

from .errors import (
    DegenerateLift,
    DegeneratePair,
    DegeneratePoints,
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


def is_lightlike(x, scale=None):
    x = np.asarray(x)
    if scale is None:
        scale = float(np.dot(x, x))
    return abs(norm2(x)) <= tol(scale)


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


def gram_matrix(vectors):
    V = np.asarray(vectors, dtype=float)
    return (V * SIGNATURE) @ V.T


def gram_det(vectors):
    """Determinant of the matrix of pairwise inner products of up to 5 vectors."""
    V = np.asarray(vectors, dtype=float)
    if not 1 <= V.shape[0] <= 5:
        raise ValueError("gram_det expects between 1 and 5 vectors")
    return float(np.linalg.det(gram_matrix(V)))


def cross_ratios(V):
    """Cross ratios of stacked quadruples of points: ``V`` has shape
    (..., 4, 5), one quadruple of isotropic representatives per leading
    index, and the result is a complex array of shape (...).

    Computed from pairwise inner products as

        ( <12><34> - <13><24> + <14><23> + sqrt(det) ) / ( 2 <14><23> ),

    where det is the 4x4 determinant of inner products.  The value is
    independent of the scaling of each representative.  For concircular
    points the representatives span only three dimensions; the rank test
    (smallest singular value of the unit representatives) decides
    concircularity with sensitivity linear in the off-circle distance, and
    the result is then the unique real cross ratio.  Otherwise det < 0 and
    the complex value with positive imaginary part is returned (canonical
    branch).

    Raises
    ------
    DegeneratePoints
        If a denominator inner product vanishes (coinciding points) in any
        quadruple.
    """
    V = np.asarray(V, dtype=float)
    norms = np.linalg.norm(V, axis=-1)
    if np.any(norms == 0.0):
        raise DegeneratePoints("zero representative")
    U = V / norms[..., None]
    G = (U * SIGNATURE) @ np.swapaxes(U, -1, -2)
    g12, g13, g14 = G[..., 0, 1], G[..., 0, 2], G[..., 0, 3]
    g23, g24, g34 = G[..., 1, 2], G[..., 1, 3], G[..., 2, 3]
    den = 2.0 * g14 * g23
    if np.any(np.abs(den) <= tol(1.0)):
        raise DegeneratePoints("cross ratio denominator vanishes")
    q = np.array((g12 * g34 - g13 * g24 + g14 * g23) / den, dtype=complex)
    s = np.linalg.svd(U, compute_uv=False)
    det = np.linalg.det(G)
    # a nearly rank-deficient quadruple, or one with nonnegative determinant
    # noise, is concircular to working precision and keeps a real value
    off_circle = (s[..., 3] > tol(s[..., 0])) & (det < 0.0)
    q.imag = np.where(off_circle, np.sqrt(np.abs(det)) / np.abs(den), 0.0)
    return q


def cross_ratio(P1, P2, P3, P4):
    """Cross ratio of four points given by isotropic representatives: the
    one-quadruple case of :func:`cross_ratios`."""
    return complex(cross_ratios(np.array([P1, P2, P3, P4], dtype=float)))


def cross_ratio_apply(q, A, B, X):
    """Apply the circle transform with parameter q anchored at the rays A, B:

        X  ->  X + ( (q-1) <X,B> A + (1/q - 1) <X,A> B ) / <A,B>.

    It fixes the rays of A and B (with multipliers q and 1/q), restricts to
    the identity on their orthogonal complement, and does not depend on the
    scaling of A or B.  For isotropic A, B it moves points along the circle
    through a, b: parameter 0 sends everything to b, 1 is the identity and
    the limit of large q sends everything to a.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if abs(q) <= tol(1.0):
        raise SingularParameter("circle transform parameter is zero")
    g = minkowski_inner(A, B)
    scale = float(np.linalg.norm(A) * np.linalg.norm(B))
    if abs(g) <= tol(scale):
        raise DegeneratePair("anchor representatives are orthogonal")
    X = np.asarray(X, dtype=float)
    ga = minkowski_inner(X, A)
    gb = minkowski_inner(X, B)
    return X + ((q - 1.0) * gb[..., None] * A + (1.0 / q - 1.0) * ga[..., None] * B) / g


def cross_ratio_matrix(q, A, B):
    """5x5 matrix of :func:`cross_ratio_apply`; an isometry of the metric.

    Broadcasts over leading axes: parameters of shape (...) and anchors of
    shape (..., 5) give matrices of shape (..., 5, 5).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if (np.abs(q) <= tol(1.0)).any():
        raise SingularParameter("circle transform parameter is zero")
    BJ = B * SIGNATURE
    g = (A * BJ).sum(axis=-1)
    scale = np.sqrt((A * A).sum(axis=-1) * (B * B).sum(axis=-1))
    if (np.abs(g) <= tol(scale)).any():
        raise DegeneratePair("anchor representatives are orthogonal")
    AB = A[..., :, None] * BJ[..., None, :]
    BA = B[..., :, None] * (A * SIGNATURE)[..., None, :]
    return np.eye(5) + ((q - 1.0) / g)[..., None, None] * AB \
        + ((1.0 / q - 1.0) / g)[..., None, None] * BA


def is_isometry(M, scale=1.0):
    """Whether M^T J M = J within tolerance."""
    M = np.asarray(M, dtype=float)
    resid = M.T @ METRIC @ M - METRIC
    return float(np.abs(resid).max()) <= tol(max(scale, float(np.abs(M).max()) ** 2))


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
    when that pass keeps a nearly dependent column, so that the result is
    not orthonormal or not orthogonal to X within tolerance, the range is
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
    dirs = _minkowski_directions(np.stack(basis))
    gram_defect = np.abs(np.abs((dirs * SIGNATURE) @ dirs.T) - np.eye(len(dirs))).max()
    incidence = (np.abs(minkowski_inner(dirs, X))
                 / (np.linalg.norm(dirs, axis=1) * np.linalg.norm(X)))
    if len(dirs) != 4 or not max(gram_defect, incidence.max()) <= tol(1.0):
        dirs = _minkowski_directions(np.linalg.svd(comp)[0][:, :4].T)
    for d in dirs:
        k = int(np.argmax(np.abs(d)))
        if d[k] < 0:
            d *= -1.0
    return dirs


def _minkowski_directions(B):
    """The rows of B recombined into directions with <w_i, w_j> = +-delta_ij,
    in ascending order of the Minkowski Gram's eigenvalues."""
    evals, evecs = np.linalg.eigh((B * SIGNATURE) @ B.T)
    return (evecs.T @ B) / np.sqrt(np.abs(evals))[:, None]


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


