import numpy as np
import pytest

from isothermic import catalog
from isothermic.grids import VertexField
from isothermic.minkowski import euclidean_lift
from isothermic.nets import IsothermicNet
from isothermic.transforms import darboux_propagate
from reference import faces


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def centred_cylinder(rows, cols, eta, phi):
    """``catalog.cylinder_net(rows, cols, eta, phi)`` with its columns numbered
    from -1: a three-column patch has the angles {-phi, 0, phi}, where the
    cylinder coincides with the zigzag plane of ``catalog.zigzag_quantity``."""
    n = -1 + np.arange(cols)
    pts = np.stack(np.broadcast_arrays(eta * np.arange(rows)[:, None], np.cos(n * phi),
                                       np.sin(n * phi)), axis=-1).astype(float)
    return IsothermicNet(VertexField(euclidean_lift(pts)),
                         catalog.cylinder_net(rows, cols, eta, phi).weights)


def centred_zigzag(rows, cols, eta, alpha, beta):
    """``catalog.zigzag_net(rows, cols, eta, alpha, beta)`` with its columns
    numbered from -1, so that its y coordinates start at alpha."""
    n = -1 + np.arange(cols)
    y = (1.0 + alpha) / 2.0 + ((-1.0) ** n) * (1.0 - alpha) / 2.0
    pts = np.stack(np.broadcast_arrays(eta * np.arange(rows)[:, None], y, beta * n),
                   axis=-1).astype(float)
    return IsothermicNet(VertexField(euclidean_lift(pts)),
                         catalog.zigzag_net(rows, cols, eta, alpha, beta).weights)


def random_lightlike(rng, box=1.0):
    return rng.uniform(0.5, 2.0) * euclidean_lift(rng.uniform(-box, box, 3))


def ref_face_regularity(lifts: VertexField):
    """Smallest relative third singular value over the corner triples of all
    faces, one face at a time (unit representatives): the regularity margin
    the random test nets are drawn with."""
    worst = np.inf
    for face in faces(lifts.domain):
        V = np.stack([lifts[v] / np.linalg.norm(lifts[v]) for v in face])
        for drop in range(4):
            s = np.linalg.svd(np.delete(V, drop, axis=0), compute_uv=False)
            worst = min(worst, s[2] / s[0])
    return worst


def darboux_stacked_net(rng, rows=4, cols=4, layers=1, min_regularity=5e-3):
    """Random isothermic net: a random cylinder patch pushed through random
    Darboux transforms (each layer is isothermic with the same weights).

    Draws are rejected until every face keeps three-point general position
    with margin ``min_regularity`` (nearly touching transforms produce the
    degenerate nets the library does not support).
    """
    eta = rng.uniform(0.2, 0.8)
    phi = rng.uniform(0.4, 1.2)
    net = catalog.cylinder_net(rows, cols, eta, phi)
    for _ in range(layers):
        for _ in range(100):
            mu = rng.uniform(-2.0, 2.0)
            du = np.abs(1.0 - mu * net.weights.u)
            dv = np.abs(1.0 - mu * net.weights.v)
            if min(du.min(), dv.min()) < 0.05 or abs(mu) < 0.1:
                continue
            start = random_lightlike(rng, 2.0)
            candidate = darboux_propagate(net, mu, start).net()
            if ref_face_regularity(candidate.lifts) >= min_regularity:
                net = candidate
                break
        else:
            raise AssertionError("could not draw a regular stacked net")
    return net
