"""Wavefront OBJ export through space-form charts.

The chart turns lifts into R^3 coordinates: an affine chart for a flat
ambient vector, the unit ball for hyperbolic ambients, and stereographic
projection for spherical ones.  Vertices that the chart cannot place
(infinity boundary, far sheet, projection pole) are clamped and listed in
a sidecar report next to the OBJ file.

Each coordinate is written by ``orjson`` as the shortest decimal that reads
back to the same double (as in net files of version 2), -0.0 as ``0.0``.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelMismatch
from .grids import face_stack
from .minkowski import (
    METRIC,
    SIGNATURE,
    _dot,
    minkowski_inner,
    norm2,
    orthonormal_complement,
)
from .nets import IsothermicNet
from .tolerances import tol

MODELS = ("euclidean", "poincare", "stereographic")

#: Smallest chart denominator of a placed vertex; margin inside the ideal boundary.
POLE_TOL = 1e-9


def _euclidean_chart(Q, lifts):
    """Affine coordinates in the flat quadric of a lightlike Q."""
    # lightlike partner with <Q, partner> = -1
    scores = METRIC @ Q
    k = int(np.argmax(np.abs(scores)))
    V = np.zeros(5)
    V[k] = -1.0 / scores[k]
    partner = V + (float(norm2(V)) / 2.0) * Q

    def null_project(w):
        # Minkowski projection onto the complement of the null pair
        return (w + float(minkowski_inner(w, partner)) * Q
                + float(minkowski_inner(w, Q)) * partner)

    basis = []
    for col in np.eye(5):
        w = null_project(col)
        for b in basis:
            w -= float(minkowski_inner(w, b)) * b
        w2 = float(norm2(w))
        if w2 > 1e-12:
            basis.append(w / np.sqrt(w2))
        if len(basis) == 3:
            break
    E = np.stack(basis)
    w = -minkowski_inner(lifts, Q)
    ok = np.abs(w) > tol(float(np.abs(lifts).max()) * float(np.abs(Q).max()))
    wsafe = np.where(ok, w, 1.0)
    return (lifts @ (E * SIGNATURE).T) / wsafe[..., None], ok


def _curved_chart(Q, lifts, model):
    q2 = float(norm2(Q))
    sigma = np.sqrt(abs(q2))
    dirs = orthonormal_complement(Q)
    w = minkowski_inner(lifts, Q)
    ok = np.abs(w) > tol(float(np.abs(lifts).max()))
    wsafe = np.where(ok, w, 1.0)
    Y = lifts / (-wsafe[..., None])
    Yperp = Y - (minkowski_inner(Y, Q) / q2)[..., None] * Q
    coords = sigma * (Yperp @ (dirs * SIGNATURE).T)
    if model == "poincare":
        # dirs[0] is timelike, so <w, t> = -w0; flip to the honest time slot
        coords[..., 0] *= -1.0
        # pick the sheet holding the majority of the vertices
        t = coords[..., 0]
        if np.sum(t[ok] > 0) < np.sum(t[ok] < 0):
            coords = -coords
            t = coords[..., 0]
        den = 1.0 + t
        good = ok & (den > POLE_TOL)
        den = np.where(good, den, 1.0)
        return coords[..., 1:4] / den[..., None], good
    # stereographic: all four directions spacelike; project from the pole
    # opposite the last coordinate
    den = 1.0 + coords[..., 3]
    good = ok & (np.abs(den) > POLE_TOL)
    den = np.where(good, den, 1.0)
    return coords[..., 0:3] / den[..., None], good


def _vertices(mask):
    """The vertices where a (rows, cols) mask holds, in row-major order."""
    return [(int(m), int(n)) for m, n in np.argwhere(mask)]


def export_obj(net: IsothermicNet, Q, model: str, path, clamp: float = 1e6) -> list:
    """Write the net as an OBJ quad mesh in the requested chart, and return
    the flagged vertices as a list of (vertex, reason) pairs.

    ``model`` must match the curvature sign of Q: "euclidean" needs
    |Q|^2 = 0, "poincare" |Q|^2 > 0 (negative ambient curvature),
    "stereographic" |Q|^2 < 0.  Unplaceable vertices are clamped to
    ``clamp`` times their direction and reported in the sidecar file
    ``<path>.report.txt``.

    Raises
    ------
    ModelMismatch
    ValueError
        When a coordinate is NaN or infinite (such as with an infinite
        ``clamp``), before the OBJ file is opened.
    """
    Q = np.asarray(Q, dtype=float)
    q2 = float(norm2(Q))
    qscale = float(np.dot(Q, Q))
    if model not in MODELS:
        raise ModelMismatch(f"unknown model '{model}'")
    if qscale == 0.0:
        raise ModelMismatch("the ambient vector Q is zero")
    if model == "euclidean" and abs(q2) > tol(qscale):
        raise ModelMismatch("euclidean chart needs a lightlike ambient vector")
    if model == "poincare" and q2 <= tol(qscale):
        raise ModelMismatch("poincare chart needs |Q|^2 > 0 (kappa < 0)")
    if model == "stereographic" and q2 >= -tol(qscale):
        raise ModelMismatch("stereographic chart needs |Q|^2 < 0 (kappa > 0)")

    lifts = net.lifts.data
    if model == "euclidean":
        coords, good = _euclidean_chart(Q, lifts)
    else:
        coords, good = _curved_chart(Q, lifts, model)

    dom = net.domain
    # clamp each unplaceable vertex to ``clamp`` times its direction (or e1);
    # the Poincare ball flags its boundary by the same norm
    norm = np.sqrt(_dot(coords, coords))[..., None]
    direction = np.where(norm > 0, coords / np.where(norm > 0, norm, 1.0), [1.0, 0.0, 0.0])
    xyz = np.where(good[..., None], coords, clamp * direction)
    flagged = [(v, "unplaceable in chart") for v in _vertices(~good)]
    if model == "poincare":
        flagged += [(v, "on or past the ideal boundary")
                    for v in _vertices(good & (norm[..., 0] >= 1.0 - POLE_TOL))]

    # orjson would write NaN and inf as null without an error
    if not np.isfinite(xyz).all():
        raise ValueError("non-finite value cannot be serialized")
    # imported here, as in netfile: a top-level import slowed operations on
    # nets in memory by about 5 %
    import orjson

    nv, nf = dom.rows * dom.cols, (dom.rows - 1) * (dom.cols - 1)
    ids = face_stack(1 + np.arange(nv).reshape(dom.rows, dom.cols))
    data = b""
    # C-contiguous arrays, as orjson requires; + 0.0 turns -0.0 into 0.0
    for tag, arr in ((b"v", np.ascontiguousarray(xyz.reshape(nv, 3), dtype=float) + 0.0),
                     (b"f", np.ascontiguousarray(ids.reshape(nf, 4)))):
        if len(arr):
            # "[[a,b,c],[d,e,f]]" becomes "v a b c\nv d e f\n"; the text holds
            # numbers only, so every "],[" joins two rows
            text = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)
            data += (tag + b" " + text[2:-2].replace(b"],[", b"\n" + tag + b" ")
                     .replace(b",", b" ") + b"\n")
    with open(path, "wb") as fh:
        fh.write(data)

    with open(str(path) + ".report.txt", "w", encoding="ascii") as fh:
        fh.write(f"model: {model}\nvertices: {nv}\nfaces: {nf}\nflagged: {len(flagged)}\n"
                 + "".join(f"  vertex {v}: {reason}\n" for v, reason in flagged))
    return flagged
