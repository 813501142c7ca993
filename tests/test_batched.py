"""The batched checks, propagators and transforms against per-face,
per-edge and per-vertex references.

Every check of the library runs as array code on face and edge stacks, and
every propagation sweeps whole columns at a time.  The references below
evaluate the same formulas one face, edge or vertex at a time (propagating
along a breadth-first spanning tree, with their own Gram-matrix cross
ratio), so a slicing or broadcasting slip in the stacks shows up as a
mismatch on some face, edge or vertex."""

import functools
import re
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import darboux_stacked_net, ref_face_regularity
from isothermic import catalog, conserved, grids, minkowski, nets, transforms
from isothermic.conserved import (
    ConservedQuantity,
    classify_type,
    lcq_solve_grid,
    mean_curvature_data,
    normalize_top,
    pcq_propagate,
    pcq_verify,
    propagate_congruence,
)
from isothermic.errors import (
    CoincidentTransforms,
    DegenerateEdge,
    DegeneratePoints,
    GeometryError,
    NonConcircularFace,
    NotBacklund,
    NotConserved,
    NotFlat,
    NotParallel,
    PoleParameter,
)
from isothermic.euclidean import EuclideanNet, bp_sphere, christoffel
from isothermic.grids import EdgeFunction, GridDomain, VertexField, edge_stacks
from isothermic.minkowski import (
    Q_EUCLIDEAN,
    SIGNATURE,
    _circle_apply,
    _unit,
    cross_ratio_apply,
    cross_ratio_matrix,
    cross_ratios,
    euclidean_lift,
    euclidean_point,
    face_products,
    minkowski_inner,
    regularity_tol,
)
from isothermic.nets import (
    IsothermicNet,
    calapso,
    edge_connections,
    face_regularity,
    holonomy_residual,
    moutard_check,
    moutard_lift,
    verify_isothermic,
    vertex_star_cospherical,
)
from isothermic.tolerances import tol
from isothermic.transforms import (
    DarbouxTransform,
    backlund_init,
    bianchi,
    complementary,
    darboux_propagate,
    parallel_residual,
    pcq_backlund,
    pcq_darboux,
)
from reference import edge_connection, edges, faces, random_moutard_net, weight

# --- references, one face or edge at a time -----------------------------------


#: Index arrays of the six pairs ij, i < j, of a face's 4x4 Gram matrix.
PAIRS = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])


def ref_unit_gram(points):
    """Unit representatives of a few points and their Gram matrix, each
    product summed like the kernel's, in the order
    (((-x0 y0 + x1 y1) + x2 y2) + x3 y3) + x4 y4."""
    V = np.array(points, dtype=float)
    V = V / np.sqrt((V * V).sum(axis=-1))[:, None]
    G = np.empty((len(V), len(V)))
    for i, j in np.ndindex(G.shape):
        x = V[i] * V[j]
        G[i, j] = (((x[1] - x[0]) + x[2]) + x[3]) + x[4]
    return V, G


def ref_cross_ratio(P1, P2, P3, P4, rel=1e-9):
    V, G = ref_unit_gram([P1, P2, P3, P4])
    # the regularity of minkowski.invariants_from_products: min |<ij>| / max |<ij>|,
    # with a product within the isotropy defect and rounding counting as 0
    g = np.abs(G[PAIRS])
    noise = np.abs(np.diag(G)).max() + 8.0 * np.finfo(float).eps
    if g.min() <= max(noise, regularity_tol() * g.max()):
        raise DegeneratePoints("two points coincide")
    den = 2.0 * G[0, 3] * G[1, 2]
    num = G[0, 1] * G[2, 3] - G[0, 2] * G[1, 3] + G[0, 3] * G[1, 2]
    s = np.linalg.svd(V, compute_uv=False)
    det = float(np.linalg.det(G))
    if s[3] <= max(1e-12, rel * s[0]) or det >= 0.0:
        return complex(num / den, 0.0)
    return complex(num / den, np.sqrt(-det) / abs(den))


def ref_face_cross_ratios(lifts: VertexField):
    dom = lifts.domain
    out = np.zeros((dom.rows - 1, dom.cols - 1), dtype=complex)
    for face in faces(dom):
        out[dom.index(face[0])] = ref_cross_ratio(*(lifts[v] for v in face))
    return out


def ref_face_grams(lifts: VertexField):
    """Unit representatives and Gram matrices of every face, one face at a
    time (:func:`ref_unit_gram`): shapes (rows-1, cols-1, 4, 5) and (..., 4, 4)."""
    stack = (lifts.domain.rows - 1, lifts.domain.cols - 1)
    units, grams = np.zeros(stack + (4, 5)), np.zeros(stack + (4, 4))
    for face in faces(lifts.domain):
        units[face[0]], grams[face[0]] = ref_unit_gram([lifts[v] for v in face])
    return units, grams


def cross_ratio_rounding(q, *lifts):
    """Per-face bounds (real, imag) on how far two computations of the face
    cross ratios q = (a - b + c + sqrt(det)) / 2c, from the given lifts (one
    VertexField per computation), may differ by rounding.  Each unit product
    <ij> of a computation is uncertain by d, its lifts' isotropy defect
    max |<ii>| plus a rounding unit.  That moves the real part by about
    d (3 max |<ij>| / |c| + 2 |q| / min |<ij>|) and det by about
    8 d max |<ij>|^3, so the imaginary part by that over 4 c^2 Im q."""
    eps = np.finfo(float).eps
    real = imag = 0.0
    for L in lifts:
        G = ref_face_grams(L)[1]
        d = eps + np.abs(np.diagonal(G, axis1=-2, axis2=-1)).max(axis=-1)
        g = np.abs(G[(...,) + PAIRS])
        gmin, gmax = g.min(axis=-1), g.max(axis=-1)
        c = np.abs(G[..., 0, 3] * G[..., 1, 2])
        den = 4.0 * c ** 2 * q.imag
        real = real + d * (3.0 * gmax / c + 2.0 * np.abs(q) / gmin)
        imag = imag + (np.divide(8.0 * d * gmax ** 3, den, out=np.zeros_like(den),
                                 where=den > 0.0)
                       + 2.0 * d * np.abs(q.imag) / gmin)
    return real, imag


def ref_pcq_residuals(net: IsothermicNet, coeffs):
    """The worst residual of each coefficient l = 0 .. k of the edge
    condition of a quantity with k coefficient blocks, relative to the
    coefficient scale."""
    k = coeffs.shape[2]
    scale = 1.0 + float(np.sqrt((coeffs * coeffs).sum(-1)).max())
    dom = net.domain
    worst = np.zeros(k + 1)
    for i, j in edges(dom):
        ci, cj = coeffs[dom.index(i)], coeffs[dom.index(j)]
        Fi, Fj = net.lifts[i], net.lifts[j]
        a = weight(net, (i, j))
        g = float(minkowski_inner(Fi, Fj))
        pii = (ci * Fi * SIGNATURE).sum(-1)
        pjj = (cj * Fj * SIGNATURE).sum(-1)
        resid = np.zeros((k + 1, 5))
        resid[:k] = cj - ci
        resid[1:] -= (a / g) * (np.outer(pjj, Fi) - np.outer(pii, Fj))
        worst = np.maximum(worst, np.abs(resid).max(axis=-1) / scale)
    return worst


def ref_pcq_residual(net: IsothermicNet, coeffs):
    return float(ref_pcq_residuals(net, coeffs).max())


def ref_cross_ratio_residual(t: DarbouxTransform):
    worst = 0.0
    for i, j in edges(t.base.domain):
        q = ref_cross_ratio(t.base.lifts[i], t.base.lifts[j], t.lifts[j], t.lifts[i])
        target = weight(t.base, (i, j)) * t.mu
        worst = max(worst, abs(q - target) / (1.0 + abs(target)))
    return worst


def ref_parallel_residual(net, mu, section):
    scale = 1.0 + float(np.abs(section.data).max())
    return max(float(np.abs(section[i] - edge_connection(net, mu, (i, j)) @ section[j]).max())
               for i, j in edges(net.domain)) / scale


# --- nets ---------------------------------------------------------------------

SHAPES = [(2, 2), (2, 5), (5, 2), (3, 4), (4, 3)]


def random_net(seed, shape, kind):
    rng = np.random.default_rng(seed)
    rows, cols = shape
    if kind == "cylinder":
        return catalog.cylinder_net(rows, cols, rng.uniform(0.2, 0.8), rng.uniform(0.4, 1.2))
    if kind == "moutard":
        return random_moutard_net(rng, rows, cols)
    return darboux_stacked_net(rng, rows, cols, layers=1)


def bent(net, seed):
    """The net with one Euclidean point moved off its face circles."""
    rng = np.random.default_rng(seed)
    pts = euclidean_point(net.lifts.data)
    pts[rng.integers(net.domain.rows), rng.integers(net.domain.cols)] += \
        rng.uniform(0.02, 0.05, 3)
    lifts = euclidean_lift(pts) * rng.uniform(0.5, 2.0, pts.shape[:2])[..., None]
    return IsothermicNet(VertexField(lifts), net.weights)


NETS = st.tuples(st.integers(0, 10 ** 6), st.sampled_from(SHAPES),
                 st.sampled_from(["cylinder", "moutard", "darboux"]))


@settings(max_examples=30, deadline=None)
@given(NETS, st.booleans())
@example((1004, (4, 3), "moutard"), False)  # a face with |2<14><23>| <= 1e-9, min |q| 0.053
@example((1004, (4, 3), "moutard"), True)
def test_face_checks_match_references(drawn, bend):
    seed, shape, kind = drawn
    net = random_net(seed, shape, kind)
    if bend:
        net = bent(net, seed)
    lifts = net.lifts
    q = cross_ratios(np.stack([lifts.data[:-1, :-1], lifts.data[1:, :-1],
                               lifts.data[1:, 1:], lifts.data[:-1, 1:]], axis=2))
    ref = ref_face_cross_ratios(lifts)
    # the kernel takes the oracle's products, so the real parts agree; its
    # imaginary parts are closed form where the oracle's come from an LU
    # determinant, and differ by that determinant's rounding
    np.testing.assert_allclose(q.real, ref.real, rtol=1e-12, atol=1e-13)
    assert np.array_equal(q.imag == 0.0, ref.imag == 0.0)
    imag = cross_ratio_rounding(ref, lifts)[1]
    assert np.all(np.abs(q.imag - ref.imag) <= 1e-13 + 1e-12 * np.abs(ref) + imag)
    g = np.abs(ref_face_grams(lifts)[1][(...,) + PAIRS])
    assert face_regularity(lifts) == pytest.approx((g.min(axis=-1) / g.max(axis=-1)).min(),
                                                   rel=1e-12)
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


def assert_quad_products_equal(built, grams, units):
    """The corners, products and self-products of a product builder (the
    arguments of ``minkowski.invariants_from_products``) equal the unit
    representatives and Gram entries of the per-quadruple oracle bitwise;
    ``grams`` and ``units`` have shape (..., 4, 4) and (..., 4, 5)."""
    corners, products, selfs = built
    for k, corner in enumerate(corners):
        assert np.array_equal(corner, units[..., k, :])
    for (i, j), g in zip(zip(*PAIRS), products):
        assert np.array_equal(g, grams[..., i, j])
    for i, g in enumerate(selfs):
        assert np.array_equal(g, grams[..., i, i])


def edge_quad_oracle(F, H, axis):
    """Unit representatives and Gram matrices of the quadruples
    [F_i, F_j, H_j, H_i] on the edges (i, j) along +m (``axis`` 0) or +n,
    one quadruple at a time: shapes (rows-1, cols, 4, 5) or (rows, cols-1,
    4, 5) and (..., 4, 4)."""
    dom = GridDomain(*F.shape[:2])
    stack = (dom.rows - 1 + axis, dom.cols - axis)
    units, grams = np.zeros(stack + (4, 5)), np.zeros(stack + (4, 4))
    for idx in np.ndindex(stack):
        i, j = dom.stack_edge(axis, idx)
        units[idx], grams[idx] = ref_unit_gram([F[i], F[j], H[j], H[i]])
    return units, grams


@settings(max_examples=30, deadline=None)
@given(NETS, st.booleans())
def test_quad_products_are_the_oracles_bitwise(drawn, bend):
    """The products the face builder hands to invariants_from_products (once
    per vertex, edge and face diagonal) are the products one quadruple at a
    time would take, in the same order, to the last bit: on the faces of a
    net, on the Darboux edge quadruples [F_i, F_j, H_j, H_i] that
    cross_ratio_residual reads off the two-layer array [F; H] along +m and
    +n, on those of both layer pairs of a three-layer array [F; H; G] (as
    bianchi reads its two routes), and on the 2x2 grids of cross_ratios."""
    seed, shape, kind = drawn
    net = random_net(seed, shape, kind)
    if bend:
        net = bent(net, seed)
    F = net.lifts.data
    rng = np.random.default_rng(seed)
    H, G = (euclidean_lift(rng.normal(size=F.shape[:2] + (3,)))
            * rng.uniform(0.5, 2.0, F.shape[:2] + (1,)) for _ in range(2))
    units, grams = ref_face_grams(net.lifts)
    assert_quad_products_equal(face_products(_unit(F)), grams, units)

    built = []
    families = minkowski._face_families

    def recorded(U):
        for family in families(U):
            built.append(family)
            yield family

    V = np.stack([F[:-1, :-1], H[1:, :-1], F[1:, 1:], H[:-1, 1:]], axis=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transforms, "_face_families", recorded)
        patch.setattr(minkowski, "_face_families", recorded)
        DarbouxTransform(0.5, VertexField(H), net).cross_ratio_residual()
        two_layers = built[:]
        built.clear()
        try:
            transforms._layer_residuals(net.weights, [F, H, G], [0.5, -0.7])
        except DegeneratePoints:  # raised after the kernel, by a floor
            pass
        three_layers = built[:]
        built.clear()
        cross_ratios(V)
    assert len(two_layers) == len(three_layers) == 2
    for layers, families_built in (([F, H], two_layers), ([F, H, G], three_layers)):
        for pair, (f, fhat) in enumerate(zip(layers, layers[1:])):
            for axis, quads in enumerate(families_built):
                # the faces between layers pair and pair + 1 are the edge stack
                assert_quad_products_equal([[x[:, pair] for x in part] for part in quads],
                                           *edge_quad_oracle(f, fhat, axis)[::-1])
    assert len(built) == 1
    units, grams = zip(*(ref_unit_gram(quad) for quad in V.reshape(-1, 4, 5)))
    assert_quad_products_equal([[x[0, 0] for x in part] for part in built[0]],
                               np.reshape(grams, V.shape[:2] + (4, 4)),
                               np.reshape(units, V.shape))


class _NoStack:
    """numpy, with ``stack`` of four arrays (a corner stack) refused and the
    shape of every other ``stack`` recorded."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def stack(self, arrays, *args, **kwargs):
        arrays = list(arrays)
        if len(arrays) == 4:
            raise AssertionError("a quadruple stack was formed")
        stacked = np.stack(arrays, *args, **kwargs)
        self.shapes.append(stacked.shape)
        return stacked


def test_quad_checks_form_no_quadruple_stack(monkeypatch):
    """verify_isothermic, validate, cross_ratio_residual and bianchi read
    their products off the vertex arrays: they run, to the same results,
    with face_stack and every stack of four arrays refused in the kernel,
    net and transform modules.  cross_ratio_residual stacks the base and the
    transform into one two-layer array, and bianchi its two routes into one
    three-layer array [fhat1; F12; fhat2] (after the coefficient stack and
    the two anchor stacks of the vertex map); the net checks stack
    nothing."""
    net = catalog.cylinder_net(4, 5, 0.3, np.pi / 4)
    t = darboux_propagate(net, 0.4, euclidean_lift(np.array([3.0, 0.5, 0.2])))
    t2 = darboux_propagate(net, -0.7, euclidean_lift(np.array([2.0, -1.0, 0.4])))

    def routes():
        result = bianchi(net, t, t2)
        return result.residual_first, result.residual_second

    checks = (lambda: verify_isothermic(net.lifts).cross_ratios, net.validate,
              t.cross_ratio_residual, routes)
    expected = [check() for check in checks]

    def refused(data):
        raise AssertionError("a face stack was formed")

    for module in (grids, nets, transforms):
        monkeypatch.setattr(module, "face_stack", refused, raising=False)
    numpy = _NoStack()
    for module in (minkowski, nets, transforms):
        monkeypatch.setattr(module, "np", numpy)
    for check, value, shapes in zip(checks, expected, ([], [], [(4, 2, 5, 5)], [
            (4, 5, 2), (4, 5, 5, 2), (4, 5, 2, 5), (4, 3, 5, 5)])):
        numpy.shapes.clear()
        assert np.array_equal(check(), value)
        assert numpy.shapes == shapes


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
    # 1 to 4 coefficient blocks; the degree-1 draw leaves the draws below as they were
    for k in (1, 2, 3, 4):
        c = coeffs if k == 2 else np.random.default_rng([seed, k]).normal(
            size=coeffs.shape[:2] + (k, 5))
        cq = ConservedQuantity(net, c, check=False)
        assert pcq_verify(net, cq).value == pytest.approx(ref_pcq_residual(net, c), rel=1e-12)
    start = rng.uniform(0.5, 2.0) * euclidean_lift(rng.uniform(2.0, 3.0, 3))
    t = darboux_propagate(net, mu, start)
    assert t.cross_ratio_residual() == pytest.approx(ref_cross_ratio_residual(t),
                                                     rel=1e-6, abs=1e-12)
    noise = VertexField(t.lifts.data + rng.normal(size=t.lifts.data.shape) * 1e-3)
    for section in (t.lifts, noise):
        assert parallel_residual(net, mu, section) == pytest.approx(
            ref_parallel_residual(net, mu, section), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("last", [False, True])
def test_pcq_residual_finds_one_corrupted_vertex(last):
    """One vertex coefficient of a conserved quantity moved, so that the
    worst residual falls on the first coefficient l = 0 of the edge
    condition or on the last, l = k."""
    net = catalog.cylinder_net(4, 5, 1.0, np.pi / 4)
    coeffs = catalog.cylinder_quantity(net).coeffs.copy()
    F = net.lifts.data[3, 2]
    if last:
        # <Z, F> != 0 at one vertex enters coefficient l = k = 2 through a / <F_i, F_j>
        coeffs[3, 2, 1] += 0.1 * F * SIGNATURE
    else:
        # Q + 0.1 F leaves every <P, F> alone, so only coefficient l = 0 moves
        coeffs[3, 2, 0] += 0.1 * F
    per_coefficient = ref_pcq_residuals(net, coeffs)
    assert per_coefficient.argmax() == (2 if last else 0)
    got = pcq_verify(net, ConservedQuantity(net, coeffs, check=False)).value
    assert got == pytest.approx(per_coefficient.max(), rel=1e-12)


def test_pcq_residual_contracts_the_lifts_once(monkeypatch):
    net = catalog.cylinder_net(4, 5, 0.3, np.pi / 4)
    quantity = ConservedQuantity(net, catalog.cylinder_quantity(net).coeffs, check=False)
    calls = []
    contract = conserved.mp_inner_vec

    def counted(c, X):
        calls.append(np.shape(c))
        return contract(c, X)

    monkeypatch.setattr(conserved, "mp_inner_vec", counted)
    pcq_verify(net, quantity)
    assert calls == [(4, 5, 2, 5)]


def test_quantity_checks_take_one_scale_and_one_norm_pass(monkeypatch):
    """normalize_top, mean_curvature_data and complementary each take the
    coefficient scale and |P|^2 once; classify_type takes |P|^2 once per
    verified candidate, and the scale once more than pcq_verify does, for
    its own tolerance."""
    net = catalog.cylinder_net(5, 5, 0.3, np.pi / 4)
    quantity = catalog.cylinder_quantity(net)
    coeffs = quantity.coeffs.copy()
    coeffs[2, 3, 1] += 0.1
    failing = ConservedQuantity(net, coeffs, check=False)
    calls = []
    for name in ("mp_max_coeff", "mp_norm_poly"):
        def counted(c, name=name, original=getattr(conserved, name)):
            calls.append(name)
            return original(c)

        monkeypatch.setattr(conserved, name, counted)

    normalize_top(quantity)
    assert calls == ["mp_max_coeff", "mp_norm_poly"]
    calls.clear()
    mean_curvature_data(quantity)
    assert calls == ["mp_max_coeff", "mp_norm_poly"]
    calls.clear()
    complementary(quantity)
    assert calls == ["mp_max_coeff", "mp_norm_poly"]
    calls.clear()
    report = classify_type(net, [quantity, failing, quantity])
    assert report.passed == (True, False, True)
    verified, rejected = ["mp_max_coeff", "mp_max_coeff", "mp_norm_poly"], ["mp_max_coeff"]
    assert calls == verified + rejected + verified


def test_edge_connection_stacks_match_single_edges():
    """The connection stacks (U, J, c) applied to the identity,
    I + U (c * (J I)) along each edge and the same with alpha and beta
    swapped against it, are the edge connection of that edge in that
    direction, to 1e-14 of its largest entry (the single-edge matrix sums
    the rank-2 term in another order, so equality is not bitwise); U and J
    are windows over the lifts, not copies."""
    net = catalog.cylinder_net(3, 4, 0.4, 0.7)
    eye = np.eye(5)
    for axis, (U, J, c) in enumerate(edge_connections(net, 0.6)):
        assert U.shape[:2] == J.shape[:2] == c.shape[:2] == ((2, 4), (3, 3))[axis]
        assert np.shares_memory(U, net.lifts.data)
        for idx in np.ndindex(U.shape[:2]):
            i, j = net.domain.stack_edge(axis, idx)
            for coef, edge in ((c[idx], (i, j)), (c[idx][::-1], (j, i))):
                C = edge_connection(net, 0.6, edge)
                np.testing.assert_allclose(_circle_apply(U[idx], J[idx], coef, eye), C, rtol=0,
                                           atol=1e-14 * np.abs(C).max())


def test_transforms_apply_connections_without_matrices(monkeypatch):
    """Calapso frames, Darboux and Backlund sections, the Bianchi vertex map
    and the holonomy and parallelity checks apply the circle transforms
    through their coefficients: with ``cross_ratio_matrix`` raising in
    every module that imports it, they still return on a 4x5 cylinder."""
    def no_matrix(*args):
        raise AssertionError("cross_ratio_matrix called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isothermic" and hasattr(module, "cross_ratio_matrix"):
            monkeypatch.setattr(module, "cross_ratio_matrix", no_matrix)
    net = catalog.cylinder_net(4, 5, 0.4, 0.7)
    cq = catalog.cylinder_quantity(net)
    frame, transformed = calapso(net, 0.2)
    assert frame.frames.data.shape == (4, 5, 5, 5) and transformed.domain == net.domain
    darboux = darboux_propagate(net, 0.4, euclidean_lift(np.array([3.0, 0.5, 0.2])))
    first, second = (darboux_propagate(net, mu, backlund_init(cq, mu, s))
                     for mu, s in ((-1.0, 0.3), (-1.5, 0.6)))
    result = bianchi(net, first, second)
    for t in (darboux, first, second):
        assert parallel_residual(net, t.mu, t.lifts) <= tol(1.0)
    assert result.lifts.data.shape == (4, 5, 5)
    assert max(result.residual_first, result.residual_second) <= tol(1.0)
    assert holonomy_residual(net, [0.3, 0.6]) <= tol(10.0)


def test_cross_ratio_matrix_broadcasts():
    rng = np.random.default_rng(3)
    A = euclidean_lift(rng.normal(size=(2, 3, 3)))
    B = euclidean_lift(rng.normal(size=(2, 3, 3)))
    q = rng.uniform(0.5, 2.0, size=(2, 3))
    M = cross_ratio_matrix(q, A, B)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(M[idx], cross_ratio_matrix(q[idx], A[idx], B[idx]))


def lorentz_map(rng):
    """A random Lorentz isometry with entries bounded by 10: a product of
    three circle transforms (``cross_ratio_matrix``) with parameters in
    [1/2, 2], anchored at lifts of random points of the unit box."""
    while True:
        M = np.eye(5)
        for _ in range(3):
            A, B = euclidean_lift(rng.uniform(-1.0, 1.0, (2, 3)))
            M = cross_ratio_matrix(rng.uniform(0.5, 2.0), A, B) @ M
        if np.abs(M).max() <= 10.0:
            return M


def verify_outcome(lifts):
    """(ok, name of the deciding check, u, v) of a non-strict verification,
    or the type of the error it raises."""
    try:
        report = verify_isothermic(lifts, strict=False)
    except GeometryError as exc:
        return type(exc)
    w = report.weights
    return report.ok, report.check.name, None if w is None else w.u, None if w is None else w.v


def validate_outcome(net):
    try:
        return net.validate() <= tol(1.0)
    except GeometryError as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(NETS, st.booleans(), st.sampled_from(["lorentz", "rescale"]), st.integers(0, 10 ** 6))
def test_face_checks_are_invariant(drawn, bend, move, seed):
    # the face kernel reads Lorentz-invariant products, and normalizes each
    # lift, so neither an isometry of R^{4,1} nor rescaling the lifts
    # changes a cross ratio or the decision of a check
    net = random_net(*drawn)
    if bend:
        net = bent(net, drawn[0])
    rng = np.random.default_rng(seed)
    data = net.lifts.data
    if move == "lorentz":
        data = data @ lorentz_map(rng).T
    else:
        data = data * 10.0 ** rng.uniform(-6.0, 6.0, data.shape[:2])[..., None]
    lifts = VertexField(data)
    moved = IsothermicNet(lifts, net.weights)

    q0, q1 = (cross_ratios(np.stack([L[:-1, :-1], L[1:, :-1], L[1:, 1:], L[:-1, 1:]], axis=2))
              for L in (net.lifts.data, data))
    real, imag = cross_ratio_rounding(q0, net.lifts, lifts)
    assert np.array_equal(q1.imag == 0.0, q0.imag == 0.0)
    assert np.all(np.abs(q1.real - q0.real) <= 1e-12 * np.abs(q0) + real)
    assert np.all(np.abs(q1.imag - q0.imag) <= 1e-12 * np.abs(q0) + imag)

    before, after = verify_outcome(net.lifts), verify_outcome(lifts)
    if isinstance(before, type):
        assert after is before
    else:
        assert after[:2] == before[:2]
        if before[2] is not None:
            # equal up to one global factor (the gauge fixes it to 1 here)
            factor = after[2][0] / before[2][0]
            np.testing.assert_allclose(after[2], factor * before[2], rtol=1e-9)
            np.testing.assert_allclose(after[3], factor * before[3], rtol=1e-9)
    assert validate_outcome(moved) == validate_outcome(net)


@pytest.mark.parametrize("shape", SHAPES)
def test_coincident_points_raise(shape):
    net = catalog.cylinder_net(*shape, 0.5, 0.9)
    data = net.lifts.data.copy()
    data[0, 1] = 3.0 * data[0, 0]  # the edge (i, l) of face (0, 0) collapses
    lifts = VertexField(data)
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


def test_stack_edge_labels_are_array_indices():
    dom = GridDomain(4, 5)
    assert dom.stack_edge(0, (0, 0)) == ((0, 0), (1, 0))
    assert dom.stack_edge(1, (3, 3)) == ((3, 3), (3, 4))
    assert dom.stack_edge(0, (np.int64(2), np.int64(4))) == ((2, 4), (3, 4))


# --- propagators and transforms against breadth-first, per-vertex references ---


def bfs_tree(dom, base):
    """Directed edges (parent, child) of a breadth-first spanning tree, and
    the remaining edges."""
    seen, tree, queue = {base}, [], deque([base])
    while queue:
        m, n = v = queue.popleft()
        for w in ((m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1)):
            if dom.contains(w) and w not in seen:
                seen.add(w)
                tree.append((v, w))
                queue.append(w)
    in_tree = {frozenset(e) for e in tree}
    return tree, [e for e in edges(dom) if frozenset(e) not in in_tree]


def as_array(dom, values):
    return np.stack([np.stack([values[(m, n)] for n in range(dom.cols)])
                     for m in range(dom.rows)])


def ref_calapso_frames(net, mu, base):
    dom = net.domain
    tree, cross = bfs_tree(dom, base)
    T = {base: np.eye(5)}
    for parent, child in tree:
        T[child] = T[parent] @ edge_connection(net, mu, (parent, child))
    resid = [float(np.abs(T[j] - T[i] @ edge_connection(net, mu, (i, j))).max())
             for i, j in cross]
    frames = as_array(dom, T)
    if resid and max(resid) > tol(10.0 + float(np.abs(frames).max())):
        raise NotFlat(f"at {cross[int(np.argmax(resid))]}")
    return frames


def ref_darboux_lifts(net, mu, start, base):
    dom = net.domain
    tree, cross = bfs_tree(dom, base)
    S = {base: start}
    for parent, child in tree:
        S[child] = edge_connection(net, mu, (child, parent)) @ S[parent]
    lifts = as_array(dom, S)
    scale = 1.0 + float(np.abs(lifts).max())
    resid = [float(np.abs(S[i] - edge_connection(net, mu, (i, j)) @ S[j]).max()) / scale
             for i, j in cross]
    if resid and max(resid) > tol(1.0):
        raise NotParallel(f"at {cross[int(np.argmax(resid))]}")
    return lifts


def ref_pcq_propagate(net, seed, base):
    """Transport P_j = P_i + (a/g) lam (<P_j, F_j> F_i - <P_i, F_i> F_j), with
    <P_j, F_j> = <P_i, F_j> / (1 - a lam) by synthetic division, which must
    leave no remainder at the top."""
    dom = net.domain
    k = seed.shape[0]
    scale = 1.0 + float(np.sqrt((seed * seed).sum(-1)).max())
    limit = tol(scale * net.lift_scale())

    def transport(ci, i, j):
        Fi, Fj = net.lifts[i], net.lifts[j]
        a = weight(net, (i, j))
        s = (ci * Fj * SIGNATURE).sum(-1)
        pj = np.zeros(k)
        for d in range(k - 1):
            pj[d] = s[d] + a * (pj[d - 1] if d else 0.0)
        if abs(s[k - 1] + a * (pj[k - 2] if k > 1 else 0.0)) > limit:
            raise NotConserved(f"remainder on {(i, j)}")
        pi = (ci * Fi * SIGNATURE).sum(-1)
        if abs(pi[k - 1]) > limit:
            raise NotConserved(f"degree on {(i, j)}")
        out = ci.copy()
        out[1:] += (a / float(minkowski_inner(Fi, Fj))) * (
            np.outer(pj[:k - 1], Fi) - np.outer(pi[:k - 1], Fj))
        return out

    tree, cross = bfs_tree(dom, base)
    P = {base: seed}
    for parent, child in tree:
        P[child] = transport(P[parent], parent, child)
    resid = [float(np.abs(transport(P[i], i, j) - P[j]).max()) for i, j in cross]
    if resid and max(resid) > tol(scale):
        raise NotConserved(f"at {cross[int(np.argmax(resid))]}")
    return as_array(dom, P)


def ref_congruence(net, Q, base):
    """Z_j = Z_i + a_ij / <F_i, F_j> (<Q, F_j> F_i - <Q, F_i> F_j), summed one
    edge at a time from zero at the base and checked on the remaining edges."""
    dom = net.domain

    def form(i, j):
        Fi, Fj = net.lifts[i], net.lifts[j]
        return (weight(net, (i, j)) / float(minkowski_inner(Fi, Fj))
                * (float(minkowski_inner(Q, Fj)) * Fi - float(minkowski_inner(Q, Fi)) * Fj))

    tree, cross = bfs_tree(dom, base)
    Z = {base: np.zeros(5)}
    for parent, child in tree:
        Z[child] = Z[parent] + form(parent, child)
    resid = [float(np.abs(Z[j] - Z[i] - form(i, j)).max()) for i, j in cross]
    values = as_array(dom, Z)
    if resid and max(resid) > tol(1.0 + float(np.abs(values).max())):
        raise NotConserved(f"at {cross[int(np.argmax(resid))]}")
    return values


def ref_pcq_darboux(cq, t):
    """Phat = (lam - mu) P - (lam (lam - mu)/mu <P,F> Fhat + lam <P,Fhat> F) / <F,Fhat>."""
    dom, mu = cq.net.domain, t.mu
    k = cq.coeffs.shape[2]
    out = {}
    for v in np.ndindex(dom.rows, dom.cols):
        c, F, Fh = cq.coeffs[v], cq.net.lifts[v], t.lifts[v]
        g = float(minkowski_inner(F, Fh))
        pf, pfh = (c * F * SIGNATURE).sum(-1), (c * Fh * SIGNATURE).sum(-1)
        total = np.zeros((k + 2, 5))
        total[:k] -= mu * c
        total[1:k + 1] += c
        total[2:] -= np.outer(pf, Fh) / (mu * g)
        total[1:k + 1] += (np.outer(pf, Fh) - np.outer(pfh, F)) / g
        out[v] = total
    return as_array(dom, out)


def ref_pcq_backlund(cq, t):
    """Phat = P - (lam/mu) <P,F>/<F,Fhat> Fhat - lam <P,Fhat>/((lam-mu) <F,Fhat>) F."""
    dom, mu = cq.net.domain, t.mu
    k = cq.coeffs.shape[2]
    scale = cq.scale() * (1.0 + float(np.abs(t.lifts.data).max()))
    out, defects = {}, {}
    for v in np.ndindex(dom.rows, dom.cols):
        c, F, Fh = cq.coeffs[v], cq.net.lifts[v], t.lifts[v]
        g = float(minkowski_inner(F, Fh))
        pf, pfh = (c * F * SIGNATURE).sum(-1), (c * Fh * SIGNATURE).sum(-1)
        quot, rem = np.polynomial.polynomial.polydiv(np.concatenate([[0.0], pfh]), [-mu, 1.0])
        defects[v] = abs(rem[0])
        total = c.copy()
        total[1:] -= np.outer(pf[:k - 1], Fh) / (mu * g)
        total[:len(quot)] -= np.outer(quot, F) / g
        out[v] = total
    worst = max(defects, key=defects.get)
    if defects[worst] > tol(scale):
        raise NotBacklund(f"at {worst}")
    return ConservedQuantity(t.net(), as_array(dom, out))


def ref_bianchi_lifts(net, first, second):
    out = {}
    for v in np.ndindex(net.domain.rows, net.domain.cols):
        A, B = first.lifts[v], second.lifts[v]
        if abs(float(minkowski_inner(A, B))) <= tol(np.linalg.norm(A) * np.linalg.norm(B)):
            raise CoincidentTransforms(f"at {v}")
        out[v] = cross_ratio_matrix(second.mu / first.mu, A, B) @ net.lifts[v]
    return as_array(net.domain, out)


def outcome(fn):
    """The array ``fn`` returns, or the class of the GeometryError it raises."""
    try:
        return np.asarray(fn())
    except GeometryError as exc:
        return type(exc)


#: Rounding allowed per unit of a draw's conditioning: the library and the
#: references round along different paths, and ill-conditioned draws amplify
#: the difference (by at most 2.7 units in 800 to 1000 draws of each comparison).
ROUNDING = 8 * np.finfo(float).eps
#: Largest relative bound a draw's conditioning may set: it still catches a
#: slicing slip, which moves entries by their own size.  Draws above it are
#: left out (see test_conditioning_rarely_reaches_the_cap).
ROUNDING_CAP = 1e-6


def assert_same(got, ref, rtol=1e-12, closing=None):
    """Equal outcomes: arrays equal to ``rtol`` relative to the largest entry
    of ``ref``, or the same error class.  Given ``closing``, the class of a
    closing check that the draw's rounding can decide, one side may raise
    that class where the other returns an array; no other class may differ."""
    raised = [x for x in (got, ref) if isinstance(x, type)]
    if len(raised) == 2:
        assert got is ref
    elif raised:
        assert closing is not None and raised[0] is closing, (got, ref)
    else:
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


def connection_conditioning(net, mu):
    """Largest max|C_ij(mu)| max|C_ji(mu)| over the edges: how much one step
    through an edge connection can amplify the rounding of its input."""
    return max((float(np.abs(edge_connection(net, mu, (i, j))).max()
                      * np.abs(edge_connection(net, mu, (j, i))).max())
                for i, j in edges(net.domain)), default=1.0)


def pair_conditioning(A, B):
    """Largest |A||B| / |<A, B>| over the vertices: how much dividing by
    <A, B> amplifies the rounding of a product (inf where <A, B> = 0)."""
    with np.errstate(divide="ignore"):
        return float((np.linalg.norm(A, axis=-1) * np.linalg.norm(B, axis=-1)
                      / np.abs(minkowski_inner(A, B))).max())


PATCH_SHAPES = [(1, 4), (4, 1), (2, 5), (5, 2), (3, 4)]


def block(net, shape, coeffs=None):
    """The top-left ``shape`` block of a net (and of a quantity's
    coefficients)."""
    rows, cols = shape
    patch = IsothermicNet(VertexField(net.lifts.data[:rows, :cols]),
                          EdgeFunction(net.weights.u[:rows - 1], net.weights.v[:cols - 1]))
    if coeffs is None:
        return patch, None
    return patch, coeffs[:rows, :cols]


def net_with_quantity(seed, shape, kind):
    """A net of the given kind and shape with a conserved quantity's
    coefficients (None for Moutard nets, which carry none in general)."""
    rng = np.random.default_rng(seed)
    full = (max(shape[0], 2), max(shape[1], 2))
    if kind == "moutard":
        return block(random_moutard_net(rng, *full), shape)
    cyl = catalog.cylinder_net(*full, rng.uniform(0.2, 0.8), rng.uniform(0.4, 1.2))
    cq = catalog.cylinder_quantity(cyl)
    if kind == "cylinder":
        return block(cyl, shape, cq.coeffs)
    w = np.concatenate([cyl.weights.u, cyl.weights.v])
    for _ in range(100):
        mu = rng.uniform(-2.0, 2.0)
        if abs(mu) < 0.1 or np.abs(1.0 - mu * w).min() < 0.05:
            continue
        t = darboux_propagate(cyl, mu, rng.uniform(0.5, 2.0) * euclidean_lift(
            rng.uniform(-2.0, 2.0, 3)))
        if ref_face_regularity(t.net().lifts) >= 5e-3:
            return block(t.net(), shape, pcq_darboux(cq, t).coeffs)
    raise AssertionError("could not draw a regular Darboux transform")


def admissible_mu(net, mu):
    w = np.concatenate([net.weights.u, net.weights.v])
    if abs(mu) < 0.1 or np.abs(1.0 - mu * w).min() < 0.05:
        return 0.5 / (1.0 + np.abs(w).max())
    return mu


def basepoint(dom, where):
    return {"corner": (0, 0), "centre": dom.center(),
            "far corner": (dom.rows - 1, dom.cols - 1)}[where]


PATCHES = st.tuples(st.integers(0, 10 ** 6), st.sampled_from(PATCH_SHAPES),
                    st.sampled_from(["cylinder", "moutard", "darboux"]))


@settings(max_examples=40, deadline=None)
@given(PATCHES, st.sampled_from(["corner", "centre", "far corner"]), st.floats(-2.0, 2.0))
@example((91450, (2, 5), "moutard"), "corner", 2.0)  # frames up to 125
@example((836009, (3, 4), "moutard"), "corner", 2.0)
@example((916144, (3, 4), "moutard"), "centre", -2.0)  # conditioning 3.9e7: references raise
def test_propagators_match_bfs_references(drawn, where, mu):
    seed, shape, kind = drawn
    net, coeffs = net_with_quantity(seed, shape, kind)
    base = basepoint(net.domain, where)
    mu = admissible_mu(net, mu)
    # the propagated values round to about the conditioning of the connections;
    # from tol(1) on, that rounding can decide the closing checks
    rounding = ROUNDING * connection_conditioning(net, mu)
    assume(rounding <= ROUNDING_CAP)
    undecided = rounding >= tol(1.0)
    same = functools.partial(assert_same, rtol=max(1e-12, rounding))
    same(outcome(lambda: calapso(net, mu, base)[0].frames.data),
         outcome(lambda: ref_calapso_frames(net, mu, base)),
         closing=NotFlat if undecided else None)
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.5, 2.0) * euclidean_lift(rng.uniform(2.0, 3.0, 3))
    same(outcome(lambda: darboux_propagate(net, mu, start, base).lifts.data),
         outcome(lambda: ref_darboux_lifts(net, mu, start, base)),
         closing=NotParallel if undecided else None)
    if coeffs is None:
        seed_poly = rng.normal(size=(2, 5))
    else:
        seed_poly = coeffs[net.domain.index(base)]
    got = outcome(lambda: pcq_propagate(net, seed_poly, base).coeffs)
    same(got, outcome(lambda: ref_pcq_propagate(net, seed_poly, base)),
         closing=NotConserved if undecided else None)
    if coeffs is not None:
        assert_same(got, coeffs, rtol=1e-9)
    else:
        assert got is NotConserved


@settings(max_examples=25, deadline=None)
@given(PATCHES.filter(lambda d: d[2] != "moutard"), st.floats(-3.0, -0.5),
       st.floats(-3.0, -0.5), st.floats(0.0, 0.7))
@example((1000000, (1, 4), "darboux"), -3.0, -1.0, 0.0)
@example((303349, (1, 4), "darboux"), -1.0, -3.0, 0.0)
def test_quantity_transforms_match_vertex_references(drawn, mu1, mu2, s):
    seed, shape, kind = drawn
    net, coeffs = net_with_quantity(seed, shape, kind)
    cq = ConservedQuantity(net, coeffs)
    rng = np.random.default_rng(seed)
    mu = admissible_mu(net, float(rng.uniform(0.3, 0.6)))
    t = darboux_propagate(net, mu, euclidean_lift(rng.uniform(2.0, 3.0, 3)))
    got = pcq_darboux(cq, t).coeffs
    ref = ref_pcq_darboux(cq, t)
    assert_same(got, ref[:, :, :got.shape[2]])
    assert np.abs(ref[:, :, got.shape[2]:]).max(initial=0.0) <= 1e-9 * np.abs(ref).max()

    mu1, mu2 = admissible_mu(net, mu1), admissible_mu(net, mu2)
    if abs(mu1 - mu2) < 0.1:
        mu2 = mu1 - 0.25
    pairs = []
    for mu_b, s_b in ((mu1, s), (mu2, s + 0.3)):
        try:
            tb = darboux_propagate(net, mu_b, backlund_init(cq, mu_b, s_b))
        except GeometryError:
            return
        got = outcome(lambda: pcq_backlund(cq, tb).coeffs)
        ref = outcome(lambda: ref_pcq_backlund(cq, tb).coeffs)
        rounding = 0.0
        if not isinstance(ref, type):
            # the quotient's constant coefficient, zero in exact arithmetic,
            # keeps rounding of the quantity's size that 1 / <F, Fhat> amplifies
            rounding = (ROUNDING * pair_conditioning(net.lifts.data, tb.lifts.data)
                        * cq.scale() / np.abs(ref).max())
            assume(rounding <= ROUNDING_CAP)
        assert_same(got, ref, rtol=max(1e-12, rounding))
        pairs.append(tb)
    t1, t2 = pairs
    got = outcome(lambda: bianchi(net, t1, t2).lifts.data)
    ref = outcome(lambda: ref_bianchi_lifts(net, t1, t2))
    rounding = 0.0
    if not isinstance(ref, type):
        rounding = ROUNDING * pair_conditioning(t1.lifts.data, t2.lifts.data)
        assume(rounding <= ROUNDING_CAP)
    assert_same(got, ref, rtol=max(1e-12, rounding))



def test_conditioning_rarely_reaches_the_cap():
    """The draws the two comparisons above leave out are rare: of draws
    spread evenly over their inputs, at most 1 in 100 bounds exceeds the cap."""
    rng = np.random.default_rng(2024)
    bounds = []
    for n in range(200):
        kind = ("cylinder", "darboux", "moutard")[n % 3]
        net, coeffs = net_with_quantity(int(rng.integers(10 ** 6)),
                                        PATCH_SHAPES[n % len(PATCH_SHAPES)], kind)
        bounds.append(ROUNDING * connection_conditioning(net, admissible_mu(
            net, rng.uniform(-2.0, 2.0))))
        if kind == "moutard":
            continue
        cq = ConservedQuantity(net, coeffs)
        pairs = []
        for mu in rng.uniform(-3.0, -0.5, 2):
            mu = admissible_mu(net, mu)
            try:
                tb = darboux_propagate(net, mu, backlund_init(cq, mu, rng.uniform(0.0, 1.0)))
                ref = ref_pcq_backlund(cq, tb).coeffs
            except GeometryError:
                continue
            bounds.append(ROUNDING * pair_conditioning(net.lifts.data, tb.lifts.data)
                          * cq.scale() / np.abs(ref).max())
            pairs.append(tb)
        if len(pairs) == 2 and abs(pairs[0].mu - pairs[1].mu) >= 0.1:
            bounds.append(ROUNDING * pair_conditioning(pairs[0].lifts.data, pairs[1].lifts.data))
    assert len(bounds) > 300
    assert np.count_nonzero(np.array(bounds) > ROUNDING_CAP) <= len(bounds) // 100

# --- the same errors, naming where they happen ---------------------------------


def small_cylinder():
    return catalog.cylinder_net(4, 5, 0.5, 0.9)


def test_pole_edge_is_named():
    net = small_cylinder()
    mu = 1.0 / net.weights.v[0]
    first_pole = ((0, 0), (0, 1))
    for run in (lambda: calapso(net, mu),
                lambda: darboux_propagate(net, mu, euclidean_lift([3.0, 0.5, 0.2]))):
        with pytest.raises(PoleParameter, match=re.escape(f"is a pole of edge {first_pole}")):
            run()


def moved(net, vertex, by=1e-6):
    data = net.lifts.data.copy()
    pts = euclidean_point(data)
    pts[net.domain.index(vertex)] += by
    return IsothermicNet(VertexField(euclidean_lift(pts)), net.weights)


def test_path_dependence_names_the_worst_edge():
    net = moved(small_cylinder(), (1, 2))
    with pytest.raises(NotFlat) as got:
        calapso(net, 0.4)
    with pytest.raises(NotFlat) as ref:
        ref_calapso_frames(net, 0.4, (0, 0))
    assert str(got.value).startswith("path dependence")
    assert str(got.value).endswith(str(ref.value))
    start = euclidean_lift([3.0, 0.5, 0.2])
    with pytest.raises(NotParallel) as got:
        darboux_propagate(net, 0.4, start, (3, 4))
    with pytest.raises(NotParallel) as ref:
        ref_darboux_lifts(net, 0.4, start, (3, 4))
    assert str(got.value).startswith("Darboux propagation is path dependent")
    assert str(got.value).endswith(str(ref.value))
    cq = catalog.cylinder_quantity(catalog.cylinder_net(4, 5, 0.5, 0.9))
    with pytest.raises(NotConserved, match=re.escape("at ((1, 1), (1, 2))")) as got:
        pcq_propagate(net, cq.coeffs[0, 0], (0, 0))
    assert str(got.value).startswith("transport ")
    for base in ((0, 0), (3, 4), (2, 1)):
        with pytest.raises(NotConserved) as got:
            propagate_congruence(net, cq.constant, base)
        with pytest.raises(NotConserved) as ref:
            ref_congruence(net, cq.constant, base)
        assert str(got.value).startswith("congruence propagation is path dependent")
        assert str(got.value).endswith(str(ref.value))


def test_backlund_start_off_the_conic_names_the_worst_vertex():
    net = small_cylinder()
    cq = ConservedQuantity(net, catalog.cylinder_quantity(
        catalog.cylinder_net(4, 5, 0.5, 0.9)).coeffs)
    t = darboux_propagate(net, -1.0, euclidean_lift([3.0, 0.5, 0.2]))
    with pytest.raises(NotBacklund) as got:
        pcq_backlund(cq, t)
    with pytest.raises(NotBacklund) as ref:
        ref_pcq_backlund(cq, t)
    assert str(got.value).startswith("<P(-1.0), Fhat> does not vanish (")
    assert str(got.value).endswith(str(ref.value))


def test_coincident_transforms_name_the_vertex():
    net = small_cylinder()
    first = darboux_propagate(net, -1.0, euclidean_lift([3.0, 0.5, 0.2]))
    data = darboux_propagate(net, -0.5, euclidean_lift([2.0, -1.0, 0.4])).lifts.data.copy()
    data[net.domain.index((2, 3))] = 2.0 * first.lifts[(2, 3)]
    second = DarbouxTransform(-0.5, VertexField(data), net)
    for run in (lambda: bianchi(net, first, second),
                lambda: ref_bianchi_lifts(net, first, second)):
        with pytest.raises(CoincidentTransforms, match=r"at \(2, 3\)"):
            run()


def test_coincident_edge_quadruple_names_its_edge():
    """A transform that touches the net at (2, 3) degenerates the edge
    quadruples there; the error names the first of their edges as a pair
    of vertices and carries the failed floor check."""
    net = small_cylinder()
    data = darboux_propagate(net, -1.0, euclidean_lift([3.0, 0.5, 0.2])).lifts.data.copy()
    data[2, 3] = 2.0 * net.lifts[(2, 3)]
    with pytest.raises(DegeneratePoints) as got:
        DarbouxTransform(-1.0, VertexField(data), net).cross_ratio_residual()
    assert got.value.check.where == ((1, 3), (2, 3)) and not got.value.check.ok
    assert str(got.value) == ("an edge quadruple (f_i, f_j, fhat_j, fhat_i) has three nearly "
                              "dependent lifts (regularity 0 <= 1e-18) at ((1, 3), (2, 3))")


def test_coincident_n_edge_quadruples_name_the_first_in_row_major():
    """Two +n edge quadruples degenerate; the error names the first of them
    in row-major order of the (rows, cols-1) edge stack."""
    net = small_cylinder()
    data = darboux_propagate(net, -1.0, euclidean_lift([3.0, 0.5, 0.2])).lifts.data.copy()
    data[1, 3] = 2.0 * net.lifts[(1, 2)]
    data[2, 1] = 2.0 * net.lifts[(2, 0)]
    with pytest.raises(DegeneratePoints) as got:
        DarbouxTransform(-1.0, VertexField(data), net).cross_ratio_residual()
    assert got.value.check.where == ((1, 2), (1, 3)) and not got.value.check.ok


def test_second_bianchi_route_names_its_degenerate_edge():
    """A second transform that touches the net at (2, 3) puts F12 on its
    ray there.  The first route's quadruples stay regular; the second
    route's, read off the three-layer array [fhat1; F12; fhat2], degenerate,
    and bianchi names their first edge with the floor check it failed."""
    net = small_cylinder()
    first = darboux_propagate(net, -1.0, euclidean_lift([3.0, 0.5, 0.2]))
    data = darboux_propagate(net, -0.5, euclidean_lift([2.0, -1.0, 0.4])).lifts.data.copy()
    data[2, 3] = 2.0 * net.lifts[(2, 3)]
    second = DarbouxTransform(-0.5, VertexField(data), net)
    F12 = VertexField(cross_ratio_apply(-0.5 / -1.0, first.lifts.data, data, net.lifts.data))
    assert DarbouxTransform(-0.5, F12, first.net()).cross_ratio_residual() == \
        pytest.approx(0.125, abs=1e-3)
    with pytest.raises(DegeneratePoints) as got:
        bianchi(net, first, second)
    assert got.value.check.where == ((1, 3), (2, 3)) and not got.value.check.ok
    assert str(got.value) == ("an edge quadruple (f_i, f_j, fhat_j, fhat_i) has three nearly "
                              "dependent lifts (regularity 0 <= 1e-18) at ((1, 3), (2, 3))")


@settings(max_examples=30, deadline=None)
@given(NETS.filter(lambda d: d[2] != "moutard"), st.floats(-3.0, -0.3), st.floats(0.3, 3.0))
def test_bianchi_routes_are_the_two_layer_checks_bitwise(drawn, mu1, mu2):
    """bianchi reads both routes off one three-layer array [fhat1; F12;
    fhat2].  Its first route is cross_ratio_residual of F12 as a transform
    of the first input, to the last bit.  Its second pair (F12_i, F12_j,
    fhat2_j, fhat2_i) is route 2's quadruple reversed, with the regularity
    and the real part of q of the two-layer array [fhat2; F12] bitwise."""
    seed, shape, kind = drawn
    net = random_net(seed, shape, kind)
    rng = np.random.default_rng(seed)
    mu1, mu2 = admissible_mu(net, mu1), admissible_mu(net, mu2)
    assume(abs(mu1 - mu2) > 0.1)
    try:
        first, second = (darboux_propagate(net, mu, euclidean_lift(rng.uniform(2.0, 3.0, 3)))
                         for mu in (mu1, mu2))
        result = bianchi(net, first, second)
    except GeometryError:
        assume(False)
    assert result.residual_first == \
        DarbouxTransform(mu2, result.lifts, first.net()).cross_ratio_residual()
    F12, hat2 = result.lifts.data, second.net().lifts.data

    def kernels(layers):
        U = _unit(np.stack(layers, axis=1))
        return [minkowski.invariants_from_products(*f) for f in minkowski._face_families(U)]

    for (q3, r3), (q2, r2) in zip(kernels([first.net().lifts.data, F12, hat2]),
                                  kernels([hat2, F12])):
        assert np.array_equal(r3[:, 1], r2[:, 0])
        assert np.array_equal(q3.real[:, 1], q2.real[:, 0], equal_nan=True)


@pytest.mark.parametrize("call", [
    lambda net, cq, v: darboux_propagate(net, 0.4, euclidean_lift([3.0, 0.5, 0.2]), v),
    lambda net, cq, v: backlund_init(cq, -1.0, 0.3, v),
    lambda net, cq, v: calapso(net, 0.2, v),
    lambda net, cq, v: pcq_propagate(net, cq.coeffs[2, 2], v),
    lambda net, cq, v: lcq_solve_grid(net, Q_EUCLIDEAN, v),
    lambda net, cq, v: bp_sphere(cq, v),
    lambda net, cq, v: vertex_star_cospherical(net.lifts, v),
], ids=["darboux_propagate", "backlund_init", "calapso", "pcq_propagate", "lcq_solve_grid",
        "bp_sphere", "vertex_star_cospherical"])
def test_vertices_outside_the_grid_raise_key_error(call):
    # numpy would read (-1, 0) as the last row: each basepoint or vertex is
    # looked up in the domain first
    net = small_cylinder()
    cq = catalog.cylinder_quantity(net)
    call(net, cq, (2, 2))
    for vertex in ((-1, 0), (net.domain.rows, 0)):
        with pytest.raises(KeyError):
            call(net, cq, vertex)


# --- nets without faces ---------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 4), (4, 1)])
def test_faceless_nets_pass_the_face_checks(shape):
    net, _ = block(catalog.cylinder_net(4, 4, 0.5, 0.9), shape)
    assert net.validate() <= tol(1.0)
    # with no face to name, validate names the vertex of the worst lift
    data, vertex = net.lifts.data.copy(), (0, 2) if shape == (1, 4) else (2, 0)
    data[vertex + (0,)] += 0.1
    with pytest.raises(GeometryError, match=re.escape(f"at {vertex}")):
        IsothermicNet(VertexField(data), net.weights).validate()
    assert holonomy_residual(net, [0.3, -1.2]) == 0.0
    check = moutard_check(net.lifts)
    assert check.ok and check.value == 0.0
    assert face_regularity(net.lifts) == np.inf
    report = verify_isothermic(net.lifts, strict=False)
    assert not report.ok and report.check.name == "need at least one face"
    with pytest.raises(GeometryError, match="need at least one face"):
        verify_isothermic(net.lifts)
    # the dual is integrated from 0 along the edges w = -(a / |df|^2) df
    points = EuclideanNet.from_isothermic(net).points.data
    dual = christoffel(EuclideanNet.from_isothermic(net)).points.data
    assert np.array_equal(dual[0, 0], np.zeros(3))
    for (fi, fj), (gi, gj), a in zip(edge_stacks(points), edge_stacks(dual),
                                     net.weights.stacks()):
        df = fj - fi
        np.testing.assert_allclose(gj - gi, -(a / (df * df).sum(-1))[..., None] * df,
                                   rtol=1e-12, atol=1e-15)


# --- random Moutard nets, and the Moutard lift against loops ---------------------


def ref_moutard_lift(lifts, weights):
    """Scales lambda = 1 at (0, 0) and lambda_j = a_ij / (lambda_i <F_i, F_j>),
    one edge at a time: down the first column, then along each row from it.
    Each remaining edge is stepped once more, so that a vanishing product
    there is named too; then every product is checked on its own edge, and
    the diagonals of every face for parallelism."""
    F = lifts.data
    rows, cols = F.shape[:2]
    floor = tol(float(np.abs(F).max()) ** 2)
    lam = np.zeros((rows, cols))
    lam[0, 0] = 1.0

    def scale(i, j, a):
        g = lam[i] * float(minkowski_inner(F[i], F[j]))
        if abs(g) <= floor:
            raise DegenerateEdge(f"vanishing inner product on edge {(i, j)}")
        return a / g

    for m in range(1, rows):
        lam[m, 0] = scale((m - 1, 0), (m, 0), weights.u[m - 1])
    for n in range(1, cols):
        for m in range(rows):
            lam[m, n] = scale((m, n - 1), (m, n), weights.v[n - 1])
    for m in range(rows - 1):
        for n in range(1, cols):
            scale((m, n), (m + 1, n), weights.u[m])
    out = F * lam[..., None]
    worst = max(abs(float(minkowski_inner(out[i], out[j])) - weights.value((i, j)))
                / (abs(weights.value((i, j))) + np.linalg.norm(out[i]) * np.linalg.norm(out[j]))
                for i, j in edges(lifts.domain))
    defect = 0.0
    for i, j, k, l in faces(lifts.domain):
        s = np.linalg.svd(np.stack([out[k] - out[i], out[j] - out[l]]), compute_uv=False)
        defect = max(defect, s[1] / s[0] if s[0] > 0 else 0.0)
    if not worst <= tol(1.0):
        raise DegenerateEdge(f"normalized lifts miss the prescribed edge products "
                             f"({worst:.3g} > {tol(1.0):.3g})")
    if not defect <= tol(1.0):
        raise DegenerateEdge(f"face diagonals are not parallel ({defect:.3g} > {tol(1.0):.3g})")
    return out


@pytest.mark.parametrize("seed, rows, cols", [(1607, 6, 7), (2008, 8, 8)])
def test_random_moutard_nets_pass_their_own_validation(seed, rows, cols):
    # a fill in doubles once missed the stored weights on these draws by
    # 4.7e-7 and 4.7e-9; filled exactly, they realize them to rounding
    net = random_moutard_net(np.random.default_rng(seed), rows, cols)
    assert net.validate() <= tol(1.0)
    assert moutard_lift(net.lifts, net.weights).data.shape == (rows, cols, 5)


def assert_bitwise(got, ref):
    """Equal arrays, or the same DegenerateEdge message."""
    if isinstance(ref, Exception):
        assert isinstance(got, DegenerateEdge) and str(got) == str(ref)
    else:
        assert not isinstance(got, Exception)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)


def raised(fn):
    try:
        return fn()
    except DegenerateEdge as exc:
        return exc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 8), st.integers(2, 8))
def test_random_moutard_nets_round_an_exact_build(seed, rows, cols):
    """The nets' doubles are those of the same build at 60 digits: the
    34-digit fill is exact to the last bit."""
    def build(**digits):
        net = random_moutard_net(np.random.default_rng(seed), rows, cols, **digits)
        return net.lifts.data, net.weights.u, net.weights.v

    assert_bitwise(build(), build(digits=60))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 8), st.integers(2, 8))
def test_random_moutard_nets_validate(seed, rows, cols):
    net = random_moutard_net(np.random.default_rng(seed), rows, cols)
    assert net.validate() <= tol(1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 8), st.integers(2, 8))
def test_moutard_lift_matches_edge_loop(seed, rows, cols):
    net = random_moutard_net(np.random.default_rng(seed), rows, cols)
    weights = net.weights
    scales = np.random.default_rng(seed + 1).uniform(0.3, 3.0, (rows, cols))
    lifts = VertexField(net.lifts.data * scales[..., None])
    normalized = raised(lambda: (moutard_lift(lifts, weights).data,))
    assert_bitwise(normalized, raised(lambda: (ref_moutard_lift(lifts, weights),)))
    if not isinstance(normalized, Exception):
        # every prescribed product holds at the tolerance moutard_lift uses,
        # and the rescaled lifts are Moutard lifts
        out = normalized[0]
        limit = tol(1.0 + weights.max_abs() + float(np.abs(out).max()) ** 2)
        for (Fi, Fj), a in zip(edge_stacks(out), weights.stacks()):
            assert np.abs(minkowski_inner(Fi, Fj) - a).max() <= limit
        assert moutard_check(VertexField(out)).ok
    # the same point at the corners j and l of face (0, 0): no rescaling
    # meets the products of both paths around that face
    data = lifts.data.copy()
    data[1, 0] = 2.0 * data[0, 1]
    lifts = VertexField(data)
    with pytest.raises(DegenerateEdge):
        moutard_lift(lifts, weights)
    assert_bitwise(raised(lambda: moutard_lift(lifts, weights)),
                   raised(lambda: ref_moutard_lift(lifts, weights)))
