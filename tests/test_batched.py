"""The batched checks against per-face and per-edge references.

Every check of the library runs as array code on face and edge stacks.  The
references below evaluate the same formulas one face or one edge at a time,
with their own Gram-matrix cross ratio, so a slicing or broadcasting slip in
the stacks shows up as a mismatch on some face or edge."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import darboux_stacked_net
from isothermic import catalog
from isothermic.conserved import lcq_solve_grid, pcq_residual
from isothermic.errors import DegeneratePoints, NonConcircularFace
from isothermic.grids import GridDomain, VertexField
from isothermic.minkowski import (
    Q_EUCLIDEAN,
    SIGNATURE,
    cross_ratio_matrix,
    cross_ratios,
    euclidean_lift,
    euclidean_point,
    minkowski_inner,
)
from isothermic.nets import (
    IsothermicNet,
    edge_connection,
    edge_connections,
    face_regularity,
    verify_isothermic,
)
from isothermic.transforms import DarbouxTransform, darboux_propagate, parallel_residual

# --- references, one face or edge at a time -----------------------------------


def ref_cross_ratio(P1, P2, P3, P4, rel=1e-9):
    V = np.array([P1, P2, P3, P4], dtype=float)
    V = V / np.linalg.norm(V, axis=1)[:, None]
    G = (V * SIGNATURE) @ V.T
    den = 2.0 * G[0, 3] * G[1, 2]
    if abs(den) <= max(1e-12, rel):
        raise DegeneratePoints("cross ratio denominator vanishes")
    num = G[0, 1] * G[2, 3] - G[0, 2] * G[1, 3] + G[0, 3] * G[1, 2]
    s = np.linalg.svd(V, compute_uv=False)
    det = float(np.linalg.det(G))
    if s[3] <= max(1e-12, rel * s[0]) or det >= 0.0:
        return complex(num / den, 0.0)
    return complex(num / den, np.sqrt(-det) / abs(den))


def ref_face_cross_ratios(lifts: VertexField):
    dom = lifts.domain
    out = np.zeros((dom.rows - 1, dom.cols - 1), dtype=complex)
    for face in dom.faces():
        out[dom.index(face[0])] = ref_cross_ratio(*(lifts[v] for v in face))
    return out


def ref_face_regularity(lifts: VertexField):
    worst = np.inf
    for face in lifts.domain.faces():
        V = np.stack([lifts[v] / np.linalg.norm(lifts[v]) for v in face])
        for drop in range(4):
            s = np.linalg.svd(np.delete(V, drop, axis=0), compute_uv=False)
            worst = min(worst, s[2] / s[0])
    return worst


def ref_pcq_residual(net: IsothermicNet, coeffs):
    k = coeffs.shape[2]
    scale = 1.0 + float(np.sqrt((coeffs * coeffs).sum(-1)).max())
    dom = net.domain
    worst = 0.0
    for i, j in dom.edges():
        ci, cj = coeffs[dom.index(i)], coeffs[dom.index(j)]
        Fi, Fj = net.lifts[i], net.lifts[j]
        a = net.weight((i, j))
        g = float(minkowski_inner(Fi, Fj))
        pii = (ci * Fi * SIGNATURE).sum(-1)
        pjj = (cj * Fj * SIGNATURE).sum(-1)
        resid = np.zeros((k + 1, 5))
        resid[:k] = cj - ci
        resid[1:] -= (a / g) * (np.outer(pjj, Fi) - np.outer(pii, Fj))
        worst = max(worst, float(np.abs(resid).max()) / scale)
    return worst


def ref_cross_ratio_residual(t: DarbouxTransform):
    worst = 0.0
    for i, j in t.base.domain.edges():
        q = ref_cross_ratio(t.base.lifts[i], t.base.lifts[j], t.lifts[j], t.lifts[i])
        target = t.base.weight((i, j)) * t.mu
        worst = max(worst, abs(q - target) / (1.0 + abs(target)))
    return worst


def ref_parallel_residual(net, mu, section):
    scale = 1.0 + float(np.abs(section.data).max())
    return max(float(np.abs(section[i] - edge_connection(net, mu, (i, j)) @ section[j]).max())
               for i, j in net.domain.edges()) / scale


# --- nets ---------------------------------------------------------------------

SHAPES = [(2, 2), (2, 5), (5, 2), (3, 4), (4, 3)]


def random_net(seed, shape, kind):
    rng = np.random.default_rng(seed)
    rows, cols = shape
    if kind == "cylinder":
        return catalog.cylinder_net(rows, cols, rng.uniform(0.2, 0.8), rng.uniform(0.4, 1.2))
    if kind == "moutard":
        return catalog.random_moutard_net(rng, rows, cols)
    return darboux_stacked_net(rng, rows, cols, layers=1)


def bent(net, seed):
    """The net with one Euclidean point moved off its face circles."""
    rng = np.random.default_rng(seed)
    pts = euclidean_point(net.lifts.data)
    pts[rng.integers(net.domain.rows), rng.integers(net.domain.cols)] += \
        rng.uniform(0.02, 0.05, 3)
    lifts = euclidean_lift(pts) * rng.uniform(0.5, 2.0, pts.shape[:2])[..., None]
    return IsothermicNet(net.domain, VertexField(net.domain, lifts), net.weights)


NETS = st.tuples(st.integers(0, 10 ** 6), st.sampled_from(SHAPES),
                 st.sampled_from(["cylinder", "moutard", "darboux"]))


@settings(max_examples=30, deadline=None)
@given(NETS, st.booleans())
def test_face_checks_match_references(drawn, bend):
    seed, shape, kind = drawn
    net = random_net(seed, shape, kind)
    if bend:
        net = bent(net, seed)
    lifts = net.lifts
    q = cross_ratios(np.stack([lifts.data[:-1, :-1], lifts.data[1:, :-1],
                               lifts.data[1:, 1:], lifts.data[:-1, 1:]], axis=2))
    ref = ref_face_cross_ratios(lifts)
    np.testing.assert_allclose(q, ref, rtol=1e-12, atol=1e-13)
    assert face_regularity(lifts) == pytest.approx(ref_face_regularity(lifts), rel=1e-12)
    if bend:
        # every face through the moved point has a complex cross ratio
        assert np.abs(q.imag).max() > 1e-6
        with pytest.raises(NonConcircularFace):
            verify_isothermic(lifts)
    else:
        assert np.abs(q.imag).max() == 0.0
        report = verify_isothermic(lifts)
        ratios = ref.real
        np.testing.assert_allclose(report.weights.u[:, None] / report.weights.v[None, :],
                                   ratios, rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(NETS, st.floats(-2.0, 2.0))
def test_edge_checks_match_references(drawn, mu):
    seed, shape, kind = drawn
    net = random_net(seed, shape, kind)
    w = np.concatenate([net.weights.u, net.weights.v])
    if abs(mu) < 0.1 or np.abs(1.0 - mu * w).min() < 0.05:
        mu = 0.5 / (1.0 + np.abs(w).max())
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(net.domain.rows, net.domain.cols, 2, 5))
    assert pcq_residual(net, coeffs) == pytest.approx(ref_pcq_residual(net, coeffs), rel=1e-12)
    start = rng.uniform(0.5, 2.0) * euclidean_lift(rng.uniform(2.0, 3.0, 3))
    t = darboux_propagate(net, mu, start)
    assert t.cross_ratio_residual() == pytest.approx(ref_cross_ratio_residual(t),
                                                     rel=1e-6, abs=1e-12)
    noise = VertexField(net.domain, t.lifts.data + rng.normal(size=t.lifts.data.shape) * 1e-3)
    for section in (t.lifts, noise):
        assert parallel_residual(net, mu, section) == pytest.approx(
            ref_parallel_residual(net, mu, section), rel=1e-9, abs=1e-12)


def test_edge_connection_stacks_match_single_edges():
    net = catalog.cylinder_net(3, 4, 0.4, 0.7)
    for reverse in (False, True):
        Cu, Cv = edge_connections(net, 0.6, reverse=reverse)
        assert Cu.shape == (2, 4, 5, 5) and Cv.shape == (3, 3, 5, 5)
        for axis, stack in enumerate((Cu, Cv)):
            for idx in np.ndindex(stack.shape[:2]):
                i, j = net.domain.stack_edge(axis, idx)
                edge = (j, i) if reverse else (i, j)
                np.testing.assert_array_equal(stack[idx], edge_connection(net, 0.6, edge))


def test_cross_ratio_matrix_broadcasts():
    rng = np.random.default_rng(3)
    A = euclidean_lift(rng.normal(size=(2, 3, 3)))
    B = euclidean_lift(rng.normal(size=(2, 3, 3)))
    q = rng.uniform(0.5, 2.0, size=(2, 3))
    M = cross_ratio_matrix(q, A, B)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(M[idx], cross_ratio_matrix(q[idx], A[idx], B[idx]))


@pytest.mark.parametrize("shape", SHAPES)
def test_coincident_points_raise(shape):
    net = catalog.cylinder_net(*shape, 0.5, 0.9)
    data = net.lifts.data.copy()
    data[0, 1] = 3.0 * data[0, 0]  # the edge (i, l) of face (0, 0) collapses
    lifts = VertexField(net.domain, data)
    with pytest.raises(DegeneratePoints):
        ref_face_cross_ratios(lifts)
    V = np.stack([data[:-1, :-1], data[1:, :-1], data[1:, 1:], data[:-1, 1:]], axis=2)
    with pytest.raises(DegeneratePoints):
        cross_ratios(V)
    with pytest.raises(DegeneratePoints):
        cross_ratios(V[:1, :1].reshape(4, 5))
    with pytest.raises(DegeneratePoints):
        DarbouxTransform(0.3, lifts, net).cross_ratio_residual()


def test_lcq_solve_grid_reproduces_cylinder_quantity():
    net = catalog.cylinder_net(12, 10, 0.3, 0.5)
    expected = catalog.cylinder_quantity(net)
    for base in (None, (0, 0), (11, 9), (4, 0)):
        sol = lcq_solve_grid(net, Q_EUCLIDEAN, base)
        np.testing.assert_allclose(sol.coeffs[:, :, 1], expected.coeffs[:, :, 1], atol=1e-9)
        np.testing.assert_allclose(sol.coeffs[:, :, 0], expected.coeffs[:, :, 0], atol=0)


def test_stack_edge_labels_follow_domain_offsets():
    dom = GridDomain(2, 5, -1, 3)
    assert dom.stack_edge(0, (0, 0)) == ((2, -1), (3, -1))
    assert dom.stack_edge(1, (3, 3)) == ((5, 2), (5, 3))
