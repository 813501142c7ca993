"""Independent checks of the library's outputs.

Every check here is written from the properties a correct output must have,
with this file's own Minkowski product; none calls into ``isothermic``.
Each function returns a *score*: the worst error divided by its tolerance,
so an output passes when every score is at most 1.  Tolerances are relative
and grow with the conditioning of the face or edge they look at: an inner
product <X, Y> of nearly coincident points carries a relative rounding
error of about |X||Y| / |<X, Y>|, so each residual is compared with
``REL * cond`` for the condition number ``cond`` of the data that enters it,
but never with more than ``MAX_REL``: data too poorly conditioned to certify
an output to that accuracy fails.

Conventions follow the library: lifts are ``(rows, cols, 5)`` arrays, face
(i, j, k, l) has corners (m, n), (m+1, n), (m+1, n+1), (m, n+1), the weights
``u[m]`` sit on the edges along m and ``v[n]`` on the edges along n, and a
polynomial conserved quantity is a ``(rows, cols, degree+1, 5)`` array of
ascending coefficients.
"""

from __future__ import annotations

import re

import numpy as np

SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])
Q_FLAT = np.array([1.0, 0.0, 0.0, 0.0, -1.0])

#: Relative accuracy assumed of a computed output; residuals may reach this
#: times the conditioning of the data they are computed from.  Outputs of
#: long propagations carry accumulated rounding: the Bianchi quantity on the
#: 64x64 cylinder misses its edge equation by about 1e-8 relative.
REL = 1e-7
#: Largest relative error any residual may have, however poorly conditioned
#: its data: beyond this an output cannot be certified and fails.  (The
#: Darboux transforms of the 64x64 cylinder have faces of condition number
#: ~5e8 whose cross ratios are right to ~3e-4.)
MAX_REL = 1e-2
#: Isotropy |<F, F>| / |F|^2 of a lift.
ISO_TOL = 1e-8
#: Fourth singular value of the four unit lifts of a face, relative to the
#: first; zero for concircular points.
RANK_TOL = 1e-7
#: Curvature data (H, kappa) and constant terms, relative to 1 + |value|.
CURV_TOL = 1e-6


class CheckFailure(Exception):
    """An output misses a property by more than its tolerance."""


def require(scores: dict) -> None:
    """Raise :class:`CheckFailure` naming every score above 1."""
    bad = {k: v for k, v in scores.items() if not v <= 1.0}
    if bad:
        raise CheckFailure(", ".join(f"{k} {v:.3g}x tolerance" for k, v in bad.items()))


def mink(x, y):
    return (np.asarray(x) * np.asarray(y) * SIGNATURE).sum(axis=-1)


def _norm(x):
    return np.sqrt((np.asarray(x) ** 2).sum(axis=-1))


def _corners(a):
    """The four corner arrays (i, j, k, l) of every face of a vertex array."""
    return a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]


def _pair(x, y):
    """<x, y> and its condition number |x||y| / |<x, y>|."""
    g = mink(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = _norm(x) * _norm(y) / np.abs(g)
    return g, cond


def _tolerance(cond):
    """Relative tolerance for a residual computed from data of condition
    number ``cond``."""
    return np.minimum(REL * cond, MAX_REL)


def _worst(values) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    if np.any(np.isnan(values)):
        return np.inf
    return float(values.max())


# --- nets --------------------------------------------------------------------


def isotropy(lifts) -> float:
    """Lifts are isotropic: |<F, F>| <= ISO_TOL |F|^2."""
    L = np.asarray(lifts, dtype=float)
    return _worst(np.abs(mink(L, L)) / (L * L).sum(-1) / ISO_TOL)


def concircular(lifts) -> float:
    """The four lifts of each face have rank 3 (the points lie on a circle)."""
    L = np.asarray(lifts, dtype=float)
    U = L / _norm(L)[..., None]
    V = np.stack(_corners(U), axis=-2)  # (r-1, c-1, 4, 5)
    s = np.linalg.svd(V, compute_uv=False)
    return _worst(s[..., 3] / s[..., 0] / RANK_TOL)


def face_cross_ratios(lifts, u, v) -> float:
    """|<F_i,F_j><F_k,F_l> / (<F_j,F_k><F_l,F_i>)| = (a_u / a_v)^2 on each face."""
    L = np.asarray(lifts, dtype=float)
    i, j, k, l = _corners(L)
    gij, cij = _pair(i, j)
    gkl, ckl = _pair(k, l)
    gjk, cjk = _pair(j, k)
    gli, cli = _pair(l, i)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(gij * gkl / (gjk * gli))
        target = (np.asarray(u)[:, None] / np.asarray(v)[None, :]) ** 2
        err = np.abs(ratio / target - 1.0)
    return _worst(err / _tolerance(cij + ckl + cjk + cli))


def real_cross_ratios(lifts, u, v) -> float:
    """The real cross ratio of each (concircular) face,

        (<ij><kl> - <ik><jl> + <il><jk>) / (2 <il><jk>),

    equals a_u / a_v, sign included."""
    L = np.asarray(lifts, dtype=float)
    i, j, k, l = _corners(L)
    terms = []
    for a, b, c, d in ((i, j, k, l), (i, k, j, l), (i, l, j, k)):
        g1, c1 = _pair(a, b)
        g2, c2 = _pair(c, d)
        terms.append((g1 * g2, c1 + c2))
    gil, cil = _pair(i, l)
    gjk, cjk = _pair(j, k)
    num = terms[0][0] - terms[1][0] + terms[2][0]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = num / (2.0 * gil * gjk)
        target = np.asarray(u)[:, None] / np.asarray(v)[None, :]
        err = np.abs(q / target - 1.0)
        cond = sum(np.abs(t) * c for t, c in terms) / np.abs(num) + cil + cjk
    return _worst(err / _tolerance(cond))


def net(lifts, u, v) -> dict:
    """All properties of an isothermic net with weights (u, v)."""
    return {"isotropic": isotropy(lifts),
            "concircular": concircular(lifts),
            "face cross ratios": face_cross_ratios(lifts, u, v),
            "real cross ratios": real_cross_ratios(lifts, u, v)}


def weights_shifted(u, v, base_u, base_v, mu) -> float:
    """Calapso weights are a / (1 - mu a) of the input weights."""
    base = np.concatenate([base_u, base_v])
    got = np.concatenate([u, v])
    want = base / (1.0 - mu * base)
    cond = 1.0 + np.abs(mu * base / (1.0 - mu * base))
    return _worst(np.abs(got / want - 1.0) / (REL * cond))


def weights_equal(u, v, base_u, base_v) -> float:
    return weights_shifted(u, v, base_u, base_v, 0.0)


def weights_proportional(u, v, base_u, base_v) -> float:
    """Reconstructed weights equal the stored ones up to one global factor."""
    ratio = np.concatenate([u, v]) / np.concatenate([base_u, base_v])
    return _worst(np.abs(ratio / ratio[0] - 1.0) / REL)


# --- conserved quantities -----------------------------------------------------


def _edge_equation(Fi, Fj, ci, cj, a) -> float:
    """dP = (lam a / <F_i, F_j>) (<P_j, F_j> F_i - <P_i, F_i> F_j) on a batch of
    edges, coefficient by coefficient."""
    g, cond = _pair(Fi, Fj)
    pi = mink(ci, Fi[..., None, :])  # (..., K)
    pj = mink(cj, Fj[..., None, :])
    zero = np.zeros(ci.shape[:-2] + (1,))
    pi = np.concatenate([zero, pi], axis=-1)  # shifted by one power of lam
    pj = np.concatenate([zero, pj], axis=-1)
    pad = np.zeros(ci.shape[:-2] + (1, 5))
    dc = np.concatenate([cj - ci, pad], axis=-2)  # (..., K+1, 5)
    f = (a / g)[..., None, None]
    resid = dc - f * (pj[..., None] * Fi[..., None, :] - pi[..., None] * Fj[..., None, :])
    size = np.maximum(_norm(ci).max(-1), _norm(cj).max(-1))
    return _worst(_norm(resid).max(-1) / (size * _tolerance(1.0 + np.abs(a) * cond)))


def quantity_edges(lifts, u, v, coeffs) -> float:
    """The quantity satisfies its edge equation on every edge."""
    L = np.asarray(lifts, dtype=float)
    C = np.asarray(coeffs, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    along_m = _edge_equation(L[:-1], L[1:], C[:-1], C[1:], u[:, None])
    along_n = _edge_equation(L[:, :-1], L[:, 1:], C[:, :-1], C[:, 1:], v[None, :])
    return max(along_m, along_n)


def curvature(coeffs, H, kappa, constant=None) -> float:
    """A linear quantity lam Z + Q has a vertex-independent constant term
    (equal to ``constant`` when given), and its normalized top Z / |Z| gives
    -<Z, Q> / |Z| = H and -|Q|^2 = kappa at every vertex."""
    C = np.asarray(coeffs, dtype=float)
    if C.shape[2] != 2:
        return np.inf
    Qv = C[:, :, 0, :]
    Z = C[:, :, 1, :]
    z2 = mink(Z, Z)
    if np.any(z2 <= 0.0):
        return np.inf
    Hv = -mink(Z, Qv) / np.sqrt(z2)
    kv = -mink(Qv, Qv)
    ref = Qv[0, 0] if constant is None else np.asarray(constant, dtype=float)
    qsize = 1.0 + _norm(ref)
    err = max(_worst(np.abs(Hv - H) / (1.0 + abs(H))),
              _worst(np.abs(kv - kappa) / (1.0 + abs(kappa))),
              _worst(_norm(Qv - ref) / qsize))
    return err / CURV_TOL


def calapso_curvature(H, kappa, mu):
    """(H, kappa) after a Calapso transform with parameter mu."""
    return H - mu, kappa + 2.0 * mu * H - mu * mu


# --- transforms ---------------------------------------------------------------


def darboux_edges(lifts, dlifts, u, v, mu) -> float:
    """On every edge (ij), |<F_i,F_j><Fh_j,Fh_i> / (<F_j,Fh_j><Fh_i,F_i>)| = (a mu)^2."""
    L = np.asarray(lifts, dtype=float)
    D = np.asarray(dlifts, dtype=float)
    worst = 0.0
    for sl_i, sl_j, a in (((slice(None, -1), slice(None)), (slice(1, None), slice(None)),
                           np.asarray(u)[:, None]),
                          ((slice(None), slice(None, -1)), (slice(None), slice(1, None)),
                           np.asarray(v)[None, :])):
        Fi, Fj, Hi, Hj = L[sl_i], L[sl_j], D[sl_i], D[sl_j]
        g1, c1 = _pair(Fi, Fj)
        g2, c2 = _pair(Hj, Hi)
        g3, c3 = _pair(Fj, Hj)
        g4, c4 = _pair(Hi, Fi)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.abs(np.abs(g1 * g2 / (g3 * g4)) / (a * mu) ** 2 - 1.0)
        worst = max(worst, _worst(err / _tolerance(c1 + c2 + c3 + c4)))
    return worst


def euclidean_points(lifts):
    """Points of R^3 in the flat chart <Y, (1,0,0,0,-1)> = -1."""
    L = np.asarray(lifts, dtype=float)
    return L[..., 1:4] / (-mink(L, Q_FLAT))[..., None]


def christoffel_twice(points, dual_points, u, v) -> float:
    """Dualizing the dual with the same weights, df** = -a df* / |df*|^2,
    gives back every edge vector of the net (so the net up to a translation)."""
    P = np.asarray(points, dtype=float)
    D = np.asarray(dual_points, dtype=float)
    worst = 0.0
    for axis, a in ((0, np.asarray(u)[:, None]), (1, np.asarray(v)[None, :])):
        dP = np.diff(P, axis=axis)
        dD = np.diff(D, axis=axis)
        back = -(a / (dD * dD).sum(-1))[..., None] * dD
        sP = _norm(np.delete(P, -1, axis=axis)) + _norm(np.delete(P, 0, axis=axis))
        sD = _norm(np.delete(D, -1, axis=axis)) + _norm(np.delete(D, 0, axis=axis))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = 1.0 + sP / _norm(dP) + sD / _norm(dD)
            err = _norm(back - dP) / _norm(dP)
        worst = max(worst, _worst(err / _tolerance(cond)))
    return worst


# --- OBJ export ---------------------------------------------------------------

_UNPLACED = re.compile(r"vertex \((-?\d+), (-?\d+)\): unplaceable in chart")


def read_obj(text: str):
    """(vertices (n, 3), faces (f, 4) one-based) of an OBJ text."""
    verts, faces = [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(x) for x in parts[1:]])
    return np.array(verts, dtype=float).reshape(-1, 3), np.array(faces, dtype=int)


def unplaced_vertices(report_text: str):
    return {(int(m), int(n)) for m, n in _UNPLACED.findall(report_text)}


def obj_mesh(obj_text: str, report_text: str, rows: int, cols: int, u, v) -> dict:
    """The OBJ holds rows*cols vertices and the (rows-1)(cols-1) grid quads,
    and on every face whose four vertices the chart placed, the Euclidean
    cross-ratio magnitude |x_i-x_j||x_k-x_l| / (|x_j-x_k||x_l-x_i|) equals
    |a_u / a_v| (the charts are Moebius maps)."""
    verts, faces = read_obj(obj_text)
    m, n = np.meshgrid(np.arange(rows - 1), np.arange(cols - 1), indexing="ij")
    first = (m * cols + n + 1).ravel()
    want = np.stack([first, first + cols, first + cols + 1, first + 1], axis=-1)
    layout_ok = verts.shape == (rows * cols, 3) and faces.shape == want.shape \
        and bool(np.all(faces == want))
    if not layout_ok:
        return {"obj layout": np.inf}
    X = verts.reshape(rows, cols, 3)
    placed = np.ones((rows, cols), dtype=bool)
    for mi, ni in unplaced_vertices(report_text):
        placed[mi, ni] = False
    i, j, k, l = _corners(X)
    pi, pj, pk, pl = _corners(placed)
    ok = pi & pj & pk & pl

    def dist(a, b):
        d = _norm(a - b)
        return d, (_norm(a) + _norm(b)) / d

    dij, cij = dist(i, j)
    dkl, ckl = dist(k, l)
    djk, cjk = dist(j, k)
    dli, cli = dist(l, i)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dij * dkl / (djk * dli)
        target = np.abs(np.asarray(u)[:, None] / np.asarray(v)[None, :])
        err = np.abs(ratio / target - 1.0) / _tolerance(cij + ckl + cjk + cli)
    return {"obj layout": 0.0, "obj cross ratios": _worst(err[ok])}
