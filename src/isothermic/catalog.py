"""Ready-made nets: circular cylinder, zigzag plane and planar grid, with the
cylinder's and the zigzag plane's conserved quantities.  The tests draw
their random Moutard nets themselves, in exact arithmetic."""

from __future__ import annotations

import numpy as np

from .conserved import ConservedQuantity
from .grids import EdgeFunction, VertexField
from .minkowski import Q_EUCLIDEAN, euclidean_lift, euclidean_point
from .nets import IsothermicNet
from .tolerances import tol


def cylinder_net(rows: int, cols: int, eta: float, phi: float) -> IsothermicNet:
    """Discrete circular cylinder f = (eta*m, cos(n*phi), sin(n*phi)) for
    n = 0 .. cols-1, with Euclidean lifts and weights +-<F_i, F_j>/2
    (negative along the rulings, positive along the circles); its face
    cross ratios are -eta^2 / (4 sin^2(phi/2))."""
    if rows < 2 or cols < 2:
        raise ValueError("cylinder needs at least a 2x2 grid")
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    pts = np.stack(np.broadcast_arrays(eta * m, np.cos(n * phi), np.sin(n * phi)),
                   axis=-1).astype(float)
    u = np.full(rows - 1, -eta * eta / 4.0)
    v = np.full(cols - 1, np.sin(phi / 2.0) ** 2)
    return IsothermicNet(VertexField(euclidean_lift(pts)), EdgeFunction(u, v))


def cylinder_dual_lifts(net: IsothermicNet) -> np.ndarray:
    """Euclidean lifts of the parallel net (eta*m, -cos, -sin)."""
    dual = euclidean_point(net.lifts.data)
    dual[..., 1:] *= -1.0
    return euclidean_lift(dual)


def cylinder_quantity(net: IsothermicNet) -> ConservedQuantity:
    """The cylinder's normalized linear quantity lam*(F*/2 - Q) + Q with
    Q = (1,0,0,0,-1); it has H = 1/2 and kappa = 0."""
    return ConservedQuantity.linear(net, Q_EUCLIDEAN, cylinder_dual_lifts(net) / 2.0 - Q_EUCLIDEAN)


def zigzag_quantity(net: IsothermicNet) -> ConservedQuantity:
    """Degenerate linear quantity lam*(-1)^n F + Q_zz of a net whose Euclidean
    lifts F = ((1+|f|^2)/2, f, (1-|f|^2)/2) have y coordinates alternating
    between 1 (even n) and alpha (odd n) along every row: the zigzag plane,
    or a cylinder patch with angles {-phi, 0, phi} (alpha = cos phi), where
    the cylinder coincides with the zigzag plane;
    Q_zz = -4/(1-alpha) ((1+alpha)/2, 0, 1, 0, -(1+alpha)/2).

    Raises
    ------
    ValueError
        If the y coordinates do not alternate between 1 and some alpha.
    """
    y = net.lifts.data[..., 2]
    alpha = float(y.min())
    even = y[0] > (1.0 + alpha) / 2.0
    if (len(even) < 2 or np.any(even[1:] == even[:-1])
            or np.abs(y - np.where(even, 1.0, alpha)).max() > tol(1.0)):
        raise ValueError("y coordinates do not alternate between 1 and alpha")
    Qzz = (-4.0 / (1.0 - alpha)) * np.array(
        [(1.0 + alpha) / 2.0, 0.0, 1.0, 0.0, -(1.0 + alpha) / 2.0])
    signs = np.where(even, 1.0, -1.0)
    return ConservedQuantity.linear(net, Qzz, net.lifts.data * signs[None, :, None], check=False)


def cylinder_family_quantity(net: IsothermicNet, t: float) -> ConservedQuantity:
    """Superposition family on a 3-column cylinder patch:

        Z_t = (F* + t (-1)^n F)/2 - Q0,   Q_t = Q0 + (t/2) Q_zz,

    normalized for every t, with H_t = (1+t^2)/2 - t (1+cos phi)/(1-cos phi)
    and kappa_t = -4 t^2 / (1-cos phi)^2."""
    base = cylinder_quantity(net)
    zz = zigzag_quantity(net)
    return ConservedQuantity(net, base.coeffs + (t / 2.0) * zz.coeffs)


def zigzag_net(rows: int, cols: int, eta: float, alpha: float, beta: float) -> IsothermicNet:
    """Zigzag plane f = (eta*m, (1+alpha)/2 + (-1)^n (1-alpha)/2, beta*n)
    with rectangular faces; weights are +-<F_i, F_j>/2 as for the cylinder."""
    if not 0.0 < alpha < 1.0 or beta <= 0 or eta <= 0:
        raise ValueError("zigzag parameters need 0 < alpha < 1 and beta, eta > 0")
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    y = (1.0 + alpha) / 2.0 + ((-1.0) ** n) * (1.0 - alpha) / 2.0
    pts = np.stack(np.broadcast_arrays(eta * m, y, beta * n), axis=-1).astype(float)
    u = np.full(rows - 1, -eta * eta / 4.0)
    v = np.full(cols - 1, ((1.0 - alpha) ** 2 + beta * beta) / 4.0)
    return IsothermicNet(VertexField(euclidean_lift(pts)), EdgeFunction(u, v))


def planar_grid_net(rows: int, cols: int) -> IsothermicNet:
    """Unit square grid f = (m, n, 0); every face cross ratio is -1."""
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    pts = np.stack(np.broadcast_arrays(m.astype(float), n.astype(float),
                                       np.zeros((rows, cols))), axis=-1)
    return IsothermicNet(VertexField(euclidean_lift(pts)),
                         EdgeFunction(np.full(rows - 1, 1.0), np.full(cols - 1, -1.0)))
