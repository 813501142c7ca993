"""Scalar references for the tests: a domain's interior vertices, edges and
faces one at a time, and single edge connections, face holonomies and the four-point
circle identity, against which the tests check the library's array code."""

import numpy as np

from isothermic.errors import PoleParameter
from isothermic.minkowski import cross_ratio_matrix
from isothermic.tolerances import tol


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
