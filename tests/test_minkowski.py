"""Light-cone linear algebra: inner products, lifts, cross ratios, circle
transforms, and the small dense solver."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference
from isothermic import minkowski
from isothermic.errors import (
    DegenerateLift,
    DegeneratePair,
    DegeneratePoints,
    SingularParameter,
    SingularSystem,
)
from isothermic.grids import edge_stacks
from isothermic.minkowski import (
    METRIC,
    Q_EUCLIDEAN,
    SIGNATURE,
    _circle_apply,
    _dot,
    circle_coefficients,
    cross_ratio,
    cross_ratio_apply,
    cross_ratio_matrix,
    euclidean_lift,
    euclidean_point,
    inner3,
    minkowski_inner,
    norm2,
    orthonormal_complement,
    ray_distance,
    solve_dense,
    spaceform_point,
)
from isothermic.tolerances import tol

COORD = st.floats(-5.0, 5.0)
POINT3 = st.tuples(COORD, COORD, COORD).map(np.array)


def complex_cross_ratio(z1, z2, z3, z4):
    """Planar oracle: (z1-z2)(z3-z4) / ((z2-z3)(z4-z1))."""
    return (z1 - z2) * (z3 - z4) / ((z2 - z3) * (z4 - z1))


def test_signature_definition():
    e0 = np.array([1.0, 0, 0, 0, 0])
    assert minkowski_inner(e0, e0) == -1.0
    for k in range(1, 5):
        e = np.zeros(5)
        e[k] = 1.0
        assert minkowski_inner(e, e) == 1.0


def test_inner_of_neighbour_lifts():
    F = euclidean_lift(np.zeros(3))
    G = euclidean_lift(np.array([1.0, 0.0, 0.0]))
    assert minkowski_inner(F, G) == pytest.approx(-0.5, abs=1e-15)


def test_inner_componentwise_oracle(rng):
    for _ in range(50):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        oracle = -x[0] * y[0] + sum(x[k] * y[k] for k in range(1, 5))
        assert minkowski_inner(x, y) == pytest.approx(oracle, rel=1e-14, abs=1e-14)


# any double, with signed zeros and NaN drawn often
ENTRY = st.sampled_from([0.0, -0.0, np.nan]) | st.floats()
LEADING = st.just(()) | st.tuples(st.integers(1, 8), st.integers(1, 8))


def vectors(width, leading=LEADING):
    """Single ``width``-vectors or (rows, cols) grids of them."""
    return leading.flatmap(lambda lead: hnp.arrays(float, lead + (width,), elements=ENTRY))


def vector_pairs(width):
    """Two arrays of ``width``-vectors of one shape."""
    return LEADING.flatmap(lambda lead: st.tuples(vectors(width, st.just(lead)),
                                                  vectors(width, st.just(lead))))


def assert_bitwise(got, want):
    """The same shape and, entry by entry, the same double: the same bits
    (so 0.0 is not -0.0) or both NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == float and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def both_splits():
    """The default split between numpy's reduction (few vectors) and the
    column sums, then the column sums at every size."""
    for columns_from in (minkowski._COLUMNS_FROM, 0):
        with mock.patch.object(minkowski, "_COLUMNS_FROM", columns_from):
            yield


def assert_products_as_numpy(x, y):
    """Every trailing-axis product and norm of the package against the numpy
    reduction it replaces."""
    for _ in both_splits():
        with np.errstate(all="ignore"):
            if x.shape[-1] == 5:
                assert_bitwise(minkowski_inner(x, y), (x * y * SIGNATURE).sum(axis=-1))
                assert_bitwise(norm2(x), (x * x * SIGNATURE).sum(axis=-1))
            assert_bitwise(_dot(x, y), (x * y).sum(axis=-1))
            assert_bitwise(_dot(x, x), (x * x).sum(-1))
            assert_bitwise(np.sqrt(_dot(x, x)), np.linalg.norm(x, axis=-1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5]).flatmap(vector_pairs))
def test_products_are_bitwise_numpy_reductions(pair):
    assert_products_as_numpy(*pair)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5]).flatmap(lambda width: vectors(width, st.tuples(
    st.integers(1, 8), st.integers(1, 8)))))
def test_products_on_edge_stacks_are_bitwise_numpy_reductions(data):
    for near, far in edge_stacks(data):
        assert_products_as_numpy(near, far)


@settings(max_examples=100, deadline=None)
@given(vectors(5, st.tuples(st.integers(1, 8), st.integers(1, 8))), vectors(5, st.just(())))
def test_product_of_a_grid_with_one_vector_is_bitwise_numpy(F, Q):
    for _ in both_splits():
        with np.errstate(all="ignore"):
            assert_bitwise(minkowski_inner(F, Q), (F * Q * SIGNATURE).sum(axis=-1))
            assert_bitwise(minkowski_inner(Q, F), (Q * F * SIGNATURE).sum(axis=-1))
            assert_bitwise(_dot(F, Q), (F * Q).sum(axis=-1))


def test_products_of_a_large_grid_are_bitwise_numpy(rng):
    """At the default split a 40x40 grid takes the column sums."""
    x, y = (rng.choice([0.0, -0.0, np.nan, 1e-300, 1.0, -3.0, 1e300], (40, 40, 5))
            * rng.normal(size=(40, 40, 5)) for _ in range(2))
    assert 40 * 40 >= minkowski._COLUMNS_FROM
    with np.errstate(all="ignore"):
        assert_bitwise(minkowski_inner(x, y), (x * y * SIGNATURE).sum(axis=-1))
        assert_bitwise(_dot(x, y), (x * y).sum(axis=-1))
        assert_bitwise(np.sqrt(_dot(x[..., :3], x[..., :3])), np.linalg.norm(x[..., :3], axis=-1))


def test_products_keep_numpy_signed_zeros():
    """numpy sums from +0, so a sum of negative zeros is +0, and so are the
    helpers' sums."""
    x = np.full(5, -0.0)
    y = np.array([-0.0, 0.0, 0.0, 0.0, 0.0])  # every term of <x, y> is -0
    z = np.zeros(5)  # every term of x . z is -0
    assert np.signbit(x * y * SIGNATURE).all() and np.signbit(x * z).all()
    for a, b in ((x, y), (x, z), (x[:3], z[:3])):
        assert_products_as_numpy(a, b)
    assert not np.signbit(minkowski_inner(x, y)) and not np.signbit(_dot(x, z))


def test_euclidean_lift_values():
    np.testing.assert_allclose(euclidean_lift(np.zeros(3)),
                               [0.5, 0, 0, 0, 0.5], atol=0)
    np.testing.assert_allclose(euclidean_lift(np.array([1.0, 0, 0])),
                               [1, 1, 0, 0, 0], atol=0)


@settings(max_examples=40, deadline=None)
@given(POINT3, POINT3)
def test_lift_distance_oracle(f, g):
    F, G = euclidean_lift(f), euclidean_lift(g)
    assert all(abs(norm2(X)) <= tol(float(X @ X)) for X in (F, G))
    d2 = float(np.dot(f - g, f - g))
    assert minkowski_inner(F, G) == pytest.approx(-d2 / 2.0, rel=1e-12, abs=1e-12)
    assert minkowski_inner(F, Q_EUCLIDEAN) == pytest.approx(-1.0, rel=1e-14)


def test_spaceform_point(rng):
    F = euclidean_lift(np.array([0.3, -1.0, 2.0]))
    np.testing.assert_allclose(spaceform_point(F, Q_EUCLIDEAN), F, atol=1e-15)
    np.testing.assert_allclose(spaceform_point(2.0 * F, Q_EUCLIDEAN), F, atol=1e-15)
    for _ in range(20):
        G = rng.uniform(0.1, 3.0) * euclidean_lift(rng.normal(size=3))
        # timelike unit Q (spherical space form of curvature +1)
        Q = rng.normal(size=5)
        Q[0] = 2.0 + abs(Q[0])
        Q[1:] *= 0.3
        Q = Q / np.sqrt(-norm2(Q))
        Y = spaceform_point(G, Q)
        assert minkowski_inner(Y, Q) == pytest.approx(-1.0, abs=1e-12)
        assert abs(norm2(Y)) < 1e-12 * (1 + np.dot(Y, Y))


def test_spaceform_point_degenerate():
    # a point on the infinity boundary of the flat quadric: <F, Q0> = 0
    F = np.array([1.0, 1.0, 0.0, 0.0, -1.0])  # lightlike, F0 + F4 = 0
    with pytest.raises(DegenerateLift):
        spaceform_point(F, Q_EUCLIDEAN)


def test_spaceform_point_decides_each_lift_on_its_own_scale():
    """<F, Q> = 5e-9 with |F| = 1.41 and Q = e_4 is off the boundary against
    tol(|F| |Q|) = 1.4e-9, alone and among 400 other lifts, whose Frobenius
    norm 28 would put it on the boundary."""
    Q = np.eye(5)[4]
    F = np.array([1.0, 1.0, 0.0, 0.0, 5e-9])
    others = np.tile([1.0, 0.0, 0.0, 0.0, 1.0], (400, 1))
    alone = spaceform_point(F, Q)
    assert np.array_equal(spaceform_point(np.vstack([others, F]), Q)[-1], alone)


def test_spaceform_point_names_the_first_refused_lift():
    F = np.tile(euclidean_lift(np.array([0.3, -1.0, 2.0])), (3, 4, 1))
    F[2, 0] = F[1, 2] = [1.0, 1.0, 0.0, 0.0, -1.0]  # <F, Q_EUCLIDEAN> = 0
    with pytest.raises(DegenerateLift, match=r"^lift at index \(1, 2\) is on the infinity "):
        spaceform_point(F, Q_EUCLIDEAN)


def test_cross_ratio_unit_square():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    lifts = [euclidean_lift(np.array(p, dtype=float)) for p in pts]
    q = cross_ratio(*lifts)
    assert q.imag == pytest.approx(0.0, abs=1e-12)
    assert q.real == pytest.approx(-1.0, rel=1e-12)


def test_cross_ratio_collinear_oracle():
    zs = [0.0, 1.0, 3.0, 4.0]
    oracle = complex_cross_ratio(*zs)
    assert oracle == pytest.approx(-1.0 / 8.0)
    lifts = [euclidean_lift(np.array([z, 0.0, 0.0])) for z in zs]
    q = cross_ratio(*lifts)
    assert q == pytest.approx(oracle, rel=1e-12)


def test_cross_ratio_planar_oracle(rng):
    for _ in range(100):
        zs = rng.normal(size=4) + 1j * rng.normal(size=4)
        if min(abs(zs[i] - zs[j]) for i in range(4) for j in range(i + 1, 4)) < 0.1:
            continue
        lifts = [euclidean_lift(np.array([z.real, z.imag, 0.0])) for z in zs]
        q = cross_ratio(*lifts)
        oracle = complex_cross_ratio(*zs)
        if abs(oracle.imag) > 1e-9:
            oracle = oracle if oracle.imag > 0 else oracle.conjugate()
        assert q == pytest.approx(oracle, rel=1e-10, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.tuples(*(st.floats(0.1, 4.0),) * 4))
def test_cross_ratio_scaling_invariance(scales):
    pts = [(0.0, 0, 0), (1.0, 0.2, 0), (1.3, 1.1, 0.4), (0.1, 1.0, 0)]
    lifts = [s * euclidean_lift(np.array(p)) for s, p in zip(scales, pts)]
    base = cross_ratio(*(euclidean_lift(np.array(p)) for p in pts))
    assert cross_ratio(*lifts) == pytest.approx(base, rel=1e-10)


def test_cross_ratio_degenerate_points():
    F = euclidean_lift(np.zeros(3))
    G = euclidean_lift(np.ones(3))
    H = euclidean_lift(np.array([0.0, 1.0, 0.0]))
    with pytest.raises(DegeneratePoints):
        cross_ratio(F, G, H, F)  # <P1, P4> = 0


@pytest.mark.parametrize("shift", [10.0, 100.0, 1000.0])
def test_cross_ratio_of_translated_unit_square(shift):
    # the unit products of far-away lifts are about shift^-4, so rounding
    # of a few units costs digits, but the regularity test compares them
    # with each other, not with a fixed floor
    square = np.array([(0.0, 0, 0), (1.0, 0, 0), (1.0, 1, 0), (0.0, 1, 0)]) + [shift, 0, 0]
    q = cross_ratio(*euclidean_lift(square))
    assert q.imag == 0.0
    assert q.real == pytest.approx(-1.0, abs=4.0 * np.finfo(float).eps * shift ** 4)


def test_circle_transform_identity_and_eigenvector():
    A = euclidean_lift(np.array([0.0, 0, 0]))
    B = euclidean_lift(np.array([1.0, 0, 0]))
    X = euclidean_lift(np.array([0.3, 2.0, -1.0]))
    np.testing.assert_allclose(cross_ratio_apply(1.0, A, B, X), X, atol=1e-15)
    q = 2.7
    np.testing.assert_allclose(cross_ratio_apply(q, A, B, A), q * A, rtol=1e-14)
    with pytest.raises(SingularParameter):
        cross_ratio_apply(0.0, A, B, X)


def test_circle_transform_large_parameter_limit():
    # the image of any third concircular point tends to the first anchor
    A = euclidean_lift(np.array([0.0, 0, 0]))
    B = euclidean_lift(np.array([1.0, 0, 0]))
    X = euclidean_lift(np.array([0.4, 0, 0]))
    img = cross_ratio_apply(1e6, A, B, X)
    assert ray_distance(img, A) < 1e-5


def test_circle_transform_parametrizes_circle():
    # the fourth concircular point is recovered from the cross ratio
    rng = np.random.default_rng(5)
    for _ in range(20):
        zs = rng.normal(size=3) + 1j * rng.normal(size=3)
        q = rng.uniform(-3, 3)
        if abs(q) < 0.1 or abs(q - 1) < 0.05:
            continue
        P = [euclidean_lift(np.array([z.real, z.imag, 0.0])) for z in zs]
        p1, p2, p4 = P
        p3 = cross_ratio_apply(q, p2, p4, p1)
        assert cross_ratio(p1, p2, p3, p4) == pytest.approx(q, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 20.0), st.booleans())
def test_circle_transform_inverse(q, flip):
    q = -q if flip else q
    A = euclidean_lift(np.array([0.0, 0.3, 0]))
    B = euclidean_lift(np.array([1.0, -0.2, 0.4]))
    M = cross_ratio_matrix(q, A, B)
    # reversing the anchors at the same parameter inverts the map
    Minv = cross_ratio_matrix(q, B, A)
    np.testing.assert_allclose(M @ Minv, np.eye(5), atol=1e-11 * max(1, q, 1 / abs(q)))
    # equivalently the reciprocal parameter at the same anchors
    np.testing.assert_allclose(cross_ratio_matrix(1.0 / q, A, B), Minv, atol=1e-11)


def test_circle_transform_is_isometry():
    A = euclidean_lift(np.array([0.2, 0.1, -0.4]))
    B = euclidean_lift(np.array([1.0, 0.7, 0.3]))
    for q in (1.7, -0.3):
        M = cross_ratio_matrix(q, A, B)
        assert np.abs(M.T @ METRIC @ M - METRIC).max() <= tol(max(1.0, np.abs(M).max() ** 2))


def test_circle_transform_apply_broadcasts_with_typed_errors():
    # stacked anchors and an array of parameters, as cross_ratio_matrix takes
    # them; a zero parameter or an orthogonal pair raises the typed error
    rng = np.random.default_rng(11)
    A, B, X = (euclidean_lift(rng.normal(size=(4, 3))) for _ in range(3))
    q = rng.uniform(0.5, 2.0, size=4)
    Y = cross_ratio_apply(q, A, B, X)
    for k in range(4):
        M = cross_ratio_matrix(q[k], A[k], B[k])
        np.testing.assert_allclose(Y[k], M @ X[k], rtol=0, atol=1e-12 * np.abs(M).max()
                                   * np.abs(X[k]).max())
    with pytest.raises(SingularParameter):
        cross_ratio_apply(np.array([1.0, 0.0, 2.0, 1.5]), A, B, X)
    with pytest.raises(DegeneratePair):
        cross_ratio_apply(q, A, np.where(np.arange(4)[:, None] == 2, A, B), X)


ANCHOR_SCALE = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
PARAMETER = st.tuples(st.floats(0.05, 20.0), st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@settings(max_examples=80, deadline=None)
@given(POINT3, POINT3, POINT3, ANCHOR_SCALE, ANCHOR_SCALE, PARAMETER)
def test_circle_coefficients_apply_invert_and_preserve_the_metric(a, b, x, sa, sb, q):
    """The coefficients c of C(q; A, B) against its 5x5 matrix M, on
    rescaled lifts A, B of points at least 0.1 apart: with U = [A, B] and
    J = [JB; JA], the apply X + U (c * (J X)) is M X, the apply with alpha
    and beta swapped undoes it, and M^T J M = J, each to 1e-12 relative to
    the sizes of M and X that enter the products."""
    assume(np.linalg.norm(a - b) > 0.1)
    A, B = sa * euclidean_lift(a), sb * euclidean_lift(b)
    X = np.vstack([np.eye(5), euclidean_lift(x)])
    U, J = np.stack([A, B], axis=-1), np.stack([B, A]) * SIGNATURE
    c = circle_coefficients(q, A, B)
    assert c.shape == (2, 1)
    M = cross_ratio_matrix(q, A, B)
    size, size_x = np.abs(M).max(), np.abs(X).max()
    Y = _circle_apply(U, J, c, X.T).T
    assert np.abs(Y - X @ M.T).max() <= 1e-12 * size * size_x
    assert np.abs(cross_ratio_apply(q, A, B, X) - X @ M.T).max() <= 1e-12 * size * size_x
    size_inverse = np.abs(cross_ratio_matrix(q, B, A)).max()
    back = _circle_apply(U, J, c[::-1], Y.T).T
    assert np.abs(back - X).max() <= 1e-12 * size * size_inverse * size_x
    assert np.abs(cross_ratio_apply(q, B, A, Y) - X).max() <= 1e-12 * size * size_inverse * size_x
    assert np.abs(M.T @ METRIC @ M - METRIC).max() <= 1e-12 * size ** 2


def test_euclidean_point_inverse():
    f = np.array([0.3, -0.8, 1.7])
    np.testing.assert_allclose(euclidean_point(3.0 * euclidean_lift(f)), f, atol=1e-14)


def test_solve_dense():
    np.testing.assert_allclose(solve_dense(np.eye(3), np.array([1.0, 2, 3])),
                               [1, 2, 3], atol=0)
    np.testing.assert_allclose(solve_dense(np.diag([2.0, 4.0]), np.array([2.0, 4.0])),
                               [1, 1], atol=0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.normal(size=(5, 5)) + 2 * np.eye(5)
        b = rng.normal(size=5)
        x = solve_dense(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    with pytest.raises(SingularSystem):
        solve_dense(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        solve_dense(np.eye(7), np.zeros(7))


def _solve_outcome(solve, A, b):
    try:
        x = solve(A, b)
    except SingularSystem as exc:
        return SingularSystem, str(exc)
    return x.dtype, x.shape, x.tobytes()


@settings(max_examples=150, deadline=None)
@given(k=st.sampled_from([3, 5]), data=st.data(),
       singular=st.sampled_from([None, "zero row", "combination"]))
def test_solve_dense_is_the_array_elimination_bitwise(k, data, singular):
    """The scalar elimination gives the array elimination's solution bit for
    bit, or both raise SingularSystem; several right-hand sides give each
    column's solution."""
    entries = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
    A = np.array(data.draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k)
    B = np.array(data.draw(st.lists(entries, min_size=2 * k, max_size=2 * k))).reshape(k, 2)
    if singular == "zero row":
        A[k - 1] = 0.0
    elif singular == "combination":
        A[k - 1] = 0.5 * A[0] - 3.0 * A[1]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        expected = [_solve_outcome(reference.solve_dense, A, b) for b in B.T]
        assert [_solve_outcome(solve_dense, A, b) for b in B.T] == expected
        if expected[0][0] is SingularSystem:
            with pytest.raises(SingularSystem):
                solve_dense(A, B)
        else:
            assert solve_dense(A, B).T.tobytes() == b"".join(x for *_, x in expected)


def test_solve_dense_pivots_on_the_first_largest_entry():
    """Ties go to the first row, and a NaN wins its column as in np.argmax:
    beside entries below tolerance it pivots, where they would raise."""
    A = np.array([[1.0, 2.0, 0.0], [-3.0, 1.0, 1.0], [3.0, 0.5, 2.0]])
    b = np.array([1.0, 2.0, 3.0])
    assert solve_dense(A, b).tobytes() == reference.solve_dense(A, b).tobytes()
    A = np.array([[1e-13, 1.0, 0.0], [np.nan, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert np.isnan(reference.solve_dense(A, b)).all()
    assert np.isnan(solve_dense(A, b)).all()
    with pytest.raises(SingularSystem):
        solve_dense(np.zeros((5, 5)), np.ones(5))


@settings(max_examples=60, deadline=None)
@given(x=POINT3, y=POINT3)
def test_inner3_sums_as_numpy_sums_the_last_axis(x, y):
    # zero entries make products of either sign of zero, whose sum numpy
    # gives as +0
    x, y = x * [1.0, -1.0, 0.0], y * [0.0, 1.0, -1.0]
    expected = (x * y * np.array([-1.0, 1.0, 1.0])).sum(axis=-1)
    assert inner3(x, y).tobytes() == expected.tobytes()
    stack = np.stack([x, y, x])
    assert inner3(stack, y).tobytes() == (stack * y * np.array([-1.0, 1.0, 1.0])).sum(-1).tobytes()


def _assert_orthonormal_complement(P):
    from isothermic.minkowski import SIGNATURE

    D = orthonormal_complement(P)
    gram = (D * SIGNATURE) @ D.T
    assert np.abs(gram - np.diag([-1.0, 1.0, 1.0, 1.0])).max() <= tol(1.0)
    assert np.abs(minkowski_inner(D, P)).max() <= tol(float(np.linalg.norm(P)))


def test_orthonormal_complement_nearly_dependent_columns():
    # the projector's columns are nearly dependent here; a Gram-Schmidt pass
    # over them kept a direction of Minkowski square 5 instead of 1
    _assert_orthonormal_complement(np.array([-0.33, -0.26, -0.91, 1e-8, 4e-9]))


@pytest.mark.parametrize("P", [
    [3.9393613347655947, 2.0482158939133104, 3.8075586455543196, 4.4468041362270085,
     -1.0175460680226151e-08],
    [-0.6406537955007909, -0.1381441032599806, 3.659107670446547, -2.2071300018381513e-13,
     -1.5223293761379527e-08],
    [-2.2681786666295567, 2.6953371156845662, -3.9707662707140146, 2.9339034425717078e-08,
     -1.78932289504532e-08],
])
def test_orthonormal_complement_singular_gram_warns_nothing(P):
    # the Gram-Schmidt pass keeps a column whose Minkowski Gram eigenvalue
    # is 0; the basis comes from the SVD, without dividing by it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_orthonormal_complement(np.array(P))


@settings(max_examples=50, deadline=None)
@given(st.tuples(*(st.floats(-3.0, 3.0),) * 5), st.floats(1e-9, 1.0))
def test_orthonormal_complement_spacelike(P, shrink):
    # spacelike with |P[2]| > |P[0]| + 1, and nearly 3-dimensional for small shrink
    P = np.array(P)
    P[3:] *= shrink
    P[2] += np.copysign(np.linalg.norm(P) + 1.0, P[2])
    _assert_orthonormal_complement(P)
