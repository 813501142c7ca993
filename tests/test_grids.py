"""Grid combinatorics and discrete calculus."""

import numpy as np
import pytest

from isothermic.grids import (
    EdgeFunction,
    GridDomain,
    closedness_check,
    sweep_integrate,
    sweep_propagate,
)


def test_iterators_cover_edges_twice():
    dom = GridDomain(4, 4)
    undirected = {frozenset(e) for e in dom.edges()}
    assert len(list(dom.edges())) == len(undirected)
    from_faces = []
    for face in dom.faces():
        from_faces.extend(frozenset(e) for e in GridDomain.face_edges(face))
    # every interior undirected edge appears in exactly two faces, boundary in one
    counts = {e: from_faces.count(e) for e in set(from_faces)}
    assert set(counts) == undirected
    assert set(counts.values()) <= {1, 2}


def test_edge_function_symmetric_lookup():
    dom = GridDomain(3, 3)
    ef = EdgeFunction(dom, np.array([1.0, 2.0]), np.array([-3.0, -4.0]))
    assert ef.value(((0, 0), (1, 0))) == ef.value(((1, 0), (0, 0))) == 1.0
    assert ef.value(((1, 1), (1, 2))) == ef.value(((1, 2), (1, 1))) == -4.0
    # opposite edges of a face agree by construction
    for face in dom.faces():
        (i, j), (jk, k), (kl, l), _ = GridDomain.face_edges(face)
        assert ef.value((i, j)) == ef.value((l, k))
        assert ef.value((j, k)) == ef.value((i, l))
    with pytest.raises(KeyError):
        ef.value(((0, 0), (1, 1)))


def _differential(g):
    """A vertex array's differential on the two edge stacks."""
    return g[1:] - g[:-1], g[:, 1:] - g[:, :-1]


def test_closedness_of_differentials(rng):
    dom = GridDomain(4, 4)
    g = rng.normal(size=(4, 4, 5))
    report = closedness_check(*_differential(g), dom)
    assert report.ok
    assert report.max_residual < 1e-14


def test_closedness_constant_form():
    dom = GridDomain(4, 4)
    # e1 on every edge along +m, zero along +n
    wu = np.zeros((3, 4, 5))
    wu[..., 0] = 1.0
    assert closedness_check(wu, np.zeros((4, 3, 5)), dom).ok


def test_closedness_detects_perturbation(rng):
    dom = GridDomain(4, 4)
    g = rng.normal(size=(4, 4, 5))
    wu, wv = _differential(g)
    bad = ((1, 1), (2, 1))
    wu[1, 1, 0] += 0.01
    report = closedness_check(wu, wv, dom)
    assert not report.ok
    assert report.max_residual == pytest.approx(0.01, rel=1e-9)
    assert bad[0] in report.worst_face and bad[1] in report.worst_face
    # exactly the two faces adjacent to the perturbed edge fail
    total = wu[:, :-1] + wv[1:] - wu[:, 1:] - wv[:-1]
    failing = [face for face in dom.faces()
               if np.linalg.norm(total[face[0]]) > 1e-9]
    assert len(failing) == 2
    for face in failing:
        assert bad[0] in face and bad[1] in face


def test_sweep_integrate_inverts_differential(rng):
    g = rng.normal(size=(4, 5, 3))
    for base in ((0, 0), (2, 3), (3, 4)):
        G = sweep_integrate(*_differential(g), base)
        np.testing.assert_allclose(G, g - g[base], atol=1e-13)


def test_propagation_order():
    """The sweep sets every vertex exactly once, from any basepoint, in
    rows + cols - 2 steps, and leaves exactly the +m edges off the base
    column as cross edges."""
    rows, cols = 3, 4
    for base in np.ndindex(rows, cols):
        written = np.zeros((rows, cols), dtype=int)
        written[base] = 1
        calls = []

        def step(values, axis, index, forward):
            mi, ni = index
            near = (mi + (not forward) * (1 - axis), ni + (not forward) * axis)
            far = (mi + forward * (1 - axis), ni + forward * axis)
            assert written[near].all()
            np.add.at(written, far, 1)
            calls.append(axis)
            return values + 1

        dist, cross = sweep_propagate(0, base, (rows, cols), step)
        assert (written == 1).all()
        assert len(calls) == rows + cols - 2
        m, n = np.indices((rows, cols))
        np.testing.assert_array_equal(dist, abs(m - base[0]) + abs(n - base[1]))
        assert set(zip(*cross)) == {(mi, ni) for mi in range(rows - 1) for ni in range(cols)
                         if ni != base[1]}
