"""References for the tests.  Scalar ones: a domain's interior vertices,
edges and faces one at a time, and single edge connections, face holonomies
and the four-point circle identity, against which the tests check the
library's array code.  Array ones: the meridian step, the seed solve, the
meridian residual and the dense solve as numpy code on 3-element arrays,
against which the tests check the library's scalar constructor bit for bit.
Loop ones: Horner evaluation and the division by (1 - a*lam) as their own
loops, against which the tests check ``polyvec``'s one synthetic division.
Exact ones: random Moutard nets, filled face by face in decimal arithmetic
and rounded to doubles at the end, on which the tests probe every check;
exact arithmetic stays here, out of the library."""

import decimal
import warnings

import numpy as np

from isothermic.errors import (
    AxisCrossing,
    ConstraintViolated,
    DegenerateBasis,
    DegenerateEdge,
    InfinityBoundary,
    PoleParameter,
    SingularSystem,
    VanishingX,
)
from isothermic.grids import EdgeFunction, VertexField
from isothermic.minkowski import cross_ratio_matrix
from isothermic.nets import IsothermicNet
from isothermic.revolution import SeedSolution
from isothermic.tolerances import Check, tol


def interior_vertices(dom):
    return ((m, n) for m in range(1, dom.rows - 1) for n in range(1, dom.cols - 1))


def edges(dom):
    """Each undirected edge once, directed along +m or +n."""
    for m, n in np.ndindex(dom.rows, dom.cols):
        if m < dom.rows - 1:
            yield (m, n), (m + 1, n)
        if n < dom.cols - 1:
            yield (m, n), (m, n + 1)


def faces(dom):
    """Every face as its corners ((m,n) (m+1,n) (m+1,n+1) (m,n+1))."""
    return (((m, n), (m + 1, n), (m + 1, n + 1), (m, n + 1))
            for m in range(dom.rows - 1) for n in range(dom.cols - 1))


def weight(net, edge) -> float:
    """The weight a_ij of a grid edge of a net, in either direction."""
    (mi, ni), (mj, nj) = edge
    assert net.domain.contains(edge[0]) and net.domain.contains(edge[1]), edge
    assert abs(mj - mi) + abs(nj - ni) == 1, edge
    return float(net.weights.u[min(mi, mj)] if ni == nj else net.weights.v[min(ni, nj)])


def edge_connection(net, lam: float, edge) -> np.ndarray:
    """The circle transform C(1 - lam * a_ij; F_i, F_j) of one edge, which
    maps the fiber over j to the fiber over i; PoleParameter where
    1 - lam * a_ij vanishes."""
    a = weight(net, edge)
    q = 1.0 - lam * a
    if abs(q) <= tol(1.0 + abs(lam * a)):
        raise PoleParameter(f"parameter {lam} is a pole of edge {edge}")
    return cross_ratio_matrix(q, net.lifts.data[edge[0]], net.lifts.data[edge[1]])


def face_holonomy(net, lam: float, face) -> np.ndarray:
    """C(ij) C(jk) C(kl) C(li) around the face (i, j, k, l)."""
    i, j, k, l = face
    return np.linalg.multi_dot([edge_connection(net, lam, e)
                                for e in ((i, j), (j, k), (k, l), (l, i))])


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


# --- random Moutard nets in decimal arithmetic ----------------------------------


def _decimal_lift(point, scale):
    """``scale * euclidean_lift(point)`` from the exact values of the doubles."""
    f = [decimal.Decimal(float(x)) for x in point]
    s = decimal.Decimal(float(scale))
    q = sum(x * x for x in f)
    return [s * (1 + q) / 2, *(s * x for x in f), s * (1 - q) / 2]


def _decimal_inner(x, y):
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3] + x[4] * y[4]


def _decimal_fill(F, u, v):
    """Fill the lifts F through the Moutard equation of every face, row by
    row; False at the first face whose |<F_j, F_l>| is below 1e-6 or whose
    new lift has an entry above 1e3 in absolute value."""
    for m in range(len(u)):
        for n in range(len(v)):
            Fi, Fj, Fl = F[m][n], F[m + 1][n], F[m][n + 1]
            g = _decimal_inner(Fj, Fl)
            if abs(g) < 1e-6:
                return False
            c = (u[m] - v[n]) / g
            F[m + 1][n + 1] = [xi + c * (xj - xl) for xi, xj, xl in zip(Fi, Fj, Fl)]
            if max(abs(x) for x in F[m + 1][n + 1]) > 1e3:
                return False
    return True


def random_moutard_net(rng, rows, cols, digits=34):
    """Random isothermic net with Moutard lifts, <F_i, F_j> = a_ij.

    Draws the first column and the first row of lifts, Euclidean lifts of
    random points of the box [-1, 1]^3 with random scalings in [0.5, 2],
    reads the edge weights off them and fills every face (i, j, k, l), row
    by row, through the Moutard equation

        F_k = F_i + (a_ij - a_il) / <F_j, F_l> (F_j - F_l),

    all in ``digits``-digit decimal arithmetic; the lifts and weights are
    rounded to doubles at the end, so the net realizes its weights to double
    precision at every size.  A draw is rejected when an edge weight is
    below 1e-3, a face diagonal product |<F_j, F_l>| below 1e-6, or a lift
    entry above 1e3 in absolute value; after 50 rejected draws it raises
    DegenerateEdge.
    """
    for _ in range(50):
        pts = rng.uniform(-1.0, 1.0, size=(rows + cols, 3))
        scales = rng.uniform(0.5, 2.0, size=rows + cols)
        with decimal.localcontext(prec=digits):
            F = [[_decimal_lift(pts[m], scales[m])] + [None] * (cols - 1) for m in range(rows)]
            F[0][1:] = [_decimal_lift(pts[rows + n], scales[rows + n]) for n in range(1, cols)]
            u = [_decimal_inner(F[m][0], F[m + 1][0]) for m in range(rows - 1)]
            v = [_decimal_inner(F[0][n], F[0][n + 1]) for n in range(cols - 1)]
            if min(abs(a) for a in u + v) >= 1e-3 and _decimal_fill(F, u, v):
                return IsothermicNet(VertexField(np.array(F, dtype=float)),
                                     EdgeFunction(np.array(u, dtype=float),
                                                  np.array(v, dtype=float)))
    raise DegenerateEdge("could not draw a non-degenerate random net")


# --- the revolution constructor on 3-element arrays -----------------------------

SIGNATURE3 = np.array([-1.0, 1.0, 1.0])


def inner3(x, y):
    return (np.asarray(x) * np.asarray(y) * SIGNATURE3).sum(axis=-1)


def norm3(x):
    return inner3(x, x)


def lorentz_cross(a, b):
    return SIGNATURE3 * np.cross(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def solve_dense(A, b):
    """Gaussian elimination with partial pivoting on the array [A | b]."""
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


def meridian_residual(M, S, Mn, Sn, Q, alpha: float, c: float, H: float) -> float:
    """``revolution._meridian_residual`` on the (k, 3) arrays of the meridian:
    its points and spheres are the first of M and S followed by Mn and Sn,
    each given as three components, scalars or columns of edges."""
    def rows(x):
        return np.asarray(x, dtype=float).T.reshape(-1, 3)

    M, S = (np.concatenate([rows(x)[:1], rows(xn)]) for x, xn in ((M, Mn), (S, Sn)))
    Q = np.asarray(Q, dtype=float)
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


def seed_edge(Q, H: float, M0, M1) -> list:
    """``revolution.seed_edge`` on 3-element arrays."""
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
        resid = meridian_residual(M0, S0, M1, S1, Q, float(alpha), float(c), H)
        Check("seed solve inconsistent", resid,
              tol(10.0 * (1.0 + abs(alpha)) * (1.0 + qscale) ** 2)).require(ConstraintViolated)
        out.append(sol)
    return out


def meridian_step(state, Q, alpha: float, c: float, H: float, kappa: float, prev):
    """``revolution.meridian_step`` on 3-element arrays."""
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
    prev = np.asarray(prev, dtype=float)
    d_plus = float(np.linalg.norm(cand_plus - prev))
    d_minus = float(np.linalg.norm(cand_minus - prev))
    M_next = cand_plus if d_plus > d_minus else cand_minus
    if M_next[0] <= 0:
        raise AxisCrossing("next meridian point left the hyperbolic half plane")
    if float(inner3(Q, M_next)) * qm < 0:
        warnings.warn("meridian crossed the infinity boundary of the space form",
                      stacklevel=2)
    Mavg = (M + M_next) / 2.0
    S_next = S + 2.0 * alpha * float(inner3(Q, Mavg)) * (M_next - M)
    return M_next, S_next


# --- polynomial loops -------------------------------------------------------------


def mp_eval(coeffs, lam):
    """Horner evaluation; returns shape (..., 5)."""
    c = np.asarray(coeffs, dtype=float)
    out = c[..., -1, :].copy()
    for k in range(c.shape[-2] - 2, -1, -1):
        out = out * lam + c[..., k, :]
    return out


def mp_divide_one_minus(coeffs, a):
    """Division by (1 - a*lam) of a polynomial of degree K-1: returns the
    quotient Q of degree K-2 and the remainder vector r with
    P = (1 - a*lam) Q + r lam^(K-1)."""
    c = np.asarray(coeffs, dtype=float)
    k = c.shape[-2]
    q = np.zeros(c.shape[:-2] + (max(k - 1, 1), c.shape[-1]))
    carry = np.zeros(c.shape[:-2] + (c.shape[-1],))
    for j in range(k - 1):
        carry = c[..., j, :] + a * carry
        q[..., j, :] = carry
    remainder = c[..., k - 1, :] + a * carry if k > 1 else c[..., 0, :]
    return q, remainder
