"""Grid combinatorics and discrete calculus."""

import numpy as np
import pytest

from isothermic.grids import (
    EdgeFunction,
    GridDomain,
    sweep_integrate,
    sweep_propagate,
)
from reference import faces


def test_edge_function_symmetric_lookup():
    dom = GridDomain(3, 3)
    ef = EdgeFunction(dom, np.array([1.0, 2.0]), np.array([-3.0, -4.0]))
    assert ef.value(((0, 0), (1, 0))) == ef.value(((1, 0), (0, 0))) == 1.0
    assert ef.value(((1, 1), (1, 2))) == ef.value(((1, 2), (1, 1))) == -4.0
    # opposite edges of a face agree by construction
    for i, j, k, l in faces(dom):
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
    _, worst, _ = sweep_integrate(dom, *_differential(g), (0, 0))
    assert worst < 1e-14


def test_closedness_constant_form():
    dom = GridDomain(4, 4)
    # e1 on every edge along +m, zero along +n
    wu = np.zeros((3, 4, 5))
    wu[..., 0] = 1.0
    for base in np.ndindex(dom.rows, dom.cols):
        _, worst, _ = sweep_integrate(dom, wu, np.zeros((4, 3, 5)), base)
        assert worst < 1e-14


def test_closedness_detects_perturbation(rng):
    dom = GridDomain(4, 4)
    g = rng.normal(size=(4, 4, 5))
    wu, wv = _differential(g)
    bad = ((1, 1), (2, 1))
    wu[1, 1, 0] += 0.01
    _, worst, edge = sweep_integrate(dom, wu, wv, (0, 0))
    assert worst == pytest.approx(0.01, rel=1e-9)
    assert edge == bad
    # from a base on the perturbed edge's column the sum runs along that
    # edge, and every other edge between rows 1 and 2 misses by 0.01
    _, worst, edge = sweep_integrate(dom, wu, wv, (0, 1))
    assert worst == pytest.approx(0.01, rel=1e-9)
    assert edge in {((1, n), (2, n)) for n in (0, 2, 3)}


def test_sweep_integrate_inverts_differential(rng):
    g = rng.normal(size=(4, 5, 3))
    dom = GridDomain(4, 5)
    for base in ((0, 0), (2, 3), (3, 4)):
        G, worst, _ = sweep_integrate(dom, *_differential(g), base)
        np.testing.assert_allclose(G, g - g[base], atol=1e-13)
        assert worst < 1e-13


def test_sweep_steps_along_a_tree_then_closes():
    """The sweep sets every vertex exactly once, from any basepoint, in
    rows + cols - 2 steps, then makes one more step forward over every +m
    edge and reports the worst of those off the base column.  Every index a
    step receives is a pair of slices with explicit starts, so indexing an
    edge stack with it gives a view, and the values it receives have the
    leading shape of that block."""
    rows, cols = 3, 4
    dom = GridDomain(rows, cols)
    stacks = (np.zeros((rows - 1, cols)), np.zeros((rows, cols - 1)))
    for base in np.ndindex(rows, cols):
        written = np.zeros((rows, cols), dtype=int)
        written[base] = 1
        calls = []

        def step(values, axis, index, forward):
            assert all(type(i) is slice and i.start is not None for i in index)
            block = stacks[axis][index]
            assert np.shares_memory(block, stacks[axis]) and values.shape[:2] == block.shape
            mi, ni = (k[index] for k in np.indices(stacks[axis].shape))
            near = (mi + (not forward) * (1 - axis), ni + (not forward) * axis)
            far = (mi + forward * (1 - axis), ni + forward * axis)
            assert written[near].all()
            calls.append((axis, set(zip(mi.flat, ni.flat)), forward))
            if len(calls) < rows + cols - 1:
                np.add.at(written, far, 1)
                return values + 1
            # the closing step: a miss on the base column must not count
            return values + 1 + 10 * (ni == base[1])

        dist, worst, edge = sweep_propagate(dom, 0, base, step)
        assert len(calls) == rows + cols - 1
        *tree, closing = calls
        assert closing == (0, set(np.ndindex(rows - 1, cols)), True)
        np.testing.assert_array_equal(written, np.ones((rows, cols), dtype=int))
        m, n = np.indices((rows, cols))
        np.testing.assert_array_equal(dist, abs(m - base[0]) + abs(n - base[1]))
        # stepping down an off-tree edge above the base row misses by 2
        assert worst == (2 if base[0] else 0)
        (mi, ni), far = edge
        assert far == (mi + 1, ni) and ni != base[1] and (mi < base[0] or not base[0])
