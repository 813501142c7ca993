"""Rectangular grid combinatorics and discrete calculus.

Vertices are integer pairs (m, n) with 0 <= m < rows, 0 <= n < cols, and
each is its own index into arrays of shape (rows, cols, ...).
Directed edges are vertex pairs one step apart; faces are quadruples
((m,n) (m+1,n) (m+1,n+1) (m,n+1)).  Edge weights that take equal values on
opposite edges of every face are stored as two one-variable arrays.
The arrays fix the grid: ``VertexField(data)`` reads (rows, cols) off
``data.shape[:2]`` and ``EdgeFunction(u, v)`` off the lengths rows - 1 and
cols - 1, and each builds its :class:`GridDomain` once, as ``.domain``.

Batched checks see a vertex array of shape (rows, cols, ...) through two
*edge stacks*, one entry per edge ((m,n) (m+1,n)) with shape
(rows-1, cols, ...) and one per edge ((m,n) (m,n+1)) with shape
(rows, cols-1, ...), and through the *face stack* of shape
(rows-1, cols-1, 4, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridDomain:
    """Rectangle of integer vertices (m, n), 0 <= m < rows, 0 <= n < cols;
    a vertex is its own array index."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("empty grid domain")

    def contains(self, v) -> bool:
        m, n = v
        return 0 <= m < self.rows and 0 <= n < self.cols

    def index(self, v):
        """Array index (row, col) of a vertex."""
        if not self.contains(v):
            raise KeyError(f"vertex {v} outside domain")
        return v[0], v[1]

    def vertex_at(self, index):
        """The vertex at array index (mi, ni), as a pair of ints."""
        return int(index[0]), int(index[1])

    def stack_edge(self, axis: int, index):
        """The edge at array index (mi, ni) of the edge stack along +m
        (``axis`` 0) or +n (``axis`` 1), as a vertex pair."""
        i = self.vertex_at(index)
        return i, (i[0] + 1 - axis, i[1] + axis)

    def stack_face(self, index):
        """The face at array index (mi, ni) of the face stack, as its
        corners (i, j, k, l)."""
        m, n = self.vertex_at(index)
        return (m, n), (m + 1, n), (m + 1, n + 1), (m, n + 1)

    def worst_edge(self, resid, axis: int, index, forward: bool = True):
        """Largest entry of a per-edge residual, which may have trailing
        axes, over the block ``index`` (a pair of slices with explicit
        starts) of the edge stack along ``axis``, and its edge, directed
        backwards unless ``forward``; (0.0, None) when the block is empty."""
        if not resid.size:
            return 0.0, None
        w = np.unravel_index(int(np.argmax(resid)), resid.shape)
        edge = self.stack_edge(axis, (index[0].start + w[0], index[1].start + w[1]))
        return float(resid[w]), edge if forward else edge[::-1]

    def center(self):
        return ((self.rows - 1) // 2, (self.cols - 1) // 2)


def edge_stacks(data):
    """Endpoint pairs (i, j) of the two edge stacks of a vertex array:
    ``(data[:-1], data[1:])`` on the edges ((m,n) (m+1,n)) and
    ``(data[:, :-1], data[:, 1:])`` on the edges ((m,n) (m,n+1))."""
    data = np.asarray(data)
    return (data[:-1], data[1:]), (data[:, :-1], data[:, 1:])


def face_stack(data):
    """Corners (i, j, k, l) of every face of a vertex array, stacked on a
    new third axis: shape (rows-1, cols-1, 4, ...)."""
    data = np.asarray(data)
    return np.stack([data[:-1, :-1], data[1:, :-1], data[1:, 1:], data[:-1, 1:]], axis=2)


def _edge_pairs(data, axis: int, reverse: bool = False):
    """[data_i; data_j], or [data_j; data_i] when ``reverse``, on the edge stack
    along ``axis``: a window of shape (stack, 2, ...) over C-contiguous data."""
    data = np.ascontiguousarray(data)
    shape, step = [n - (k == axis) for k, n in enumerate(data.shape)], data.strides[axis]
    return np.ndarray(shape[:2] + [2] + shape[2:], data.dtype, data, step * reverse,
                      data.strides[:2] + ((-step if reverse else step),) + data.strides[2:])


class VertexField:
    """Dense per-vertex storage with leading axes (rows, cols); the grid
    is read off the shape of ``data``."""

    def __init__(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim < 2:
            raise ValueError(f"vertex data of shape {data.shape} has no (rows, cols) axes")
        self.domain = GridDomain(*data.shape[:2])
        self.data = data

    def __getitem__(self, v):
        """Entry at vertex ``v`` (the library indexes ``data``)."""
        mi, ni = self.domain.index(v)
        return self.data[mi, ni]


class EdgeFunction:
    """Symmetric edge weights with equal values on opposite face edges.

    Stored as two one-variable arrays: ``u[mi]`` on all edges
    ((m,n) (m+1,n)) and ``v[ni]`` on all edges ((m,n) (m,n+1)), so the grid
    has len(u) + 1 rows and len(v) + 1 columns.
    """

    def __init__(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.ndim != 1 or v.ndim != 1:
            raise ValueError(f"edge weights u {u.shape}, v {v.shape} are not one-variable arrays")
        self.domain = GridDomain(len(u) + 1, len(v) + 1)
        self.u = u
        self.v = v

    def value(self, edge) -> float:
        """Weight of a grid edge (the library reads ``u`` and ``v``)."""
        (mi, ni), (mj, nj) = edge
        dm, dn = mj - mi, nj - ni
        if abs(dm) + abs(dn) != 1:
            raise KeyError(f"{edge} is not a grid edge")
        if not (self.domain.contains(edge[0]) and self.domain.contains(edge[1])):
            raise KeyError(f"{edge} outside domain")
        if dn == 0:
            return float(self.u[min(mi, mj)])
        return float(self.v[min(ni, nj)])

    def stacks(self):
        """The weights on the two edge stacks, shaped (rows-1, 1) and
        (1, cols-1) to broadcast against them."""
        return self.u[:, None], self.v[None, :]

    def max_abs(self) -> float:
        return float(max(np.abs(self.u).max(initial=0.0), np.abs(self.v).max(initial=0.0)))


def net_domain(points: VertexField, width: int, weights: EdgeFunction) -> GridDomain:
    """The grid of a net: that of ``points``, whose entries must be
    ``width``-vectors, and whose weights must have lengths rows - 1 and
    cols - 1.  Raises ValueError naming the shapes otherwise."""
    shape = points.data.shape
    if shape[2:] != (width,) or weights.domain != points.domain:
        raise ValueError(f"vertex array {shape} and weights u {weights.u.shape}, "
                         f"v {weights.v.shape} do not make a net: need (rows, cols, {width}) "
                         "with u (rows - 1,), v (cols - 1,)")
    return points.domain


def _sum_outward(w, k0):
    """Values g along axis 0 with g[k0] = 0 and g[k+1] - g[k] = w[k], summed
    outward from k0 in both directions."""
    g = np.zeros((w.shape[0] + 1,) + w.shape[1:])
    g[k0 + 1:] = np.cumsum(w[k0:], axis=0)
    g[:k0] = -np.cumsum(w[:k0][::-1], axis=0)[::-1]
    return g


def sweep_integrate(domain: GridDomain, wu, wv, base):
    """Integrate an additive edge form from zero at the vertex ``base``: sum
    ``wu`` along the base column, then ``wv`` along every row outward from
    that column.  Returns the values g, shape (rows, cols, ...), the largest
    entry of |g_(m+1,n) - g_(m,n) - wu| on the edges ((m,n) (m+1,n)) off the
    base column, which the sum does not use, and its edge; (0.0, None) when
    there is no such edge.  That residual is the form's sum around the faces
    between the edge and the base column: it vanishes iff the form is closed."""
    m0, n0 = domain.index(base)
    column = _sum_outward(wu[:, n0], m0)
    rows = np.swapaxes(_sum_outward(np.swapaxes(wv, 0, 1), n0), 0, 1)
    g = column[:, None] + rows
    if domain.rows == 1 or domain.cols == 1:
        return g, 0.0, None
    resid = np.abs(g[1:] - g[:-1] - wu)
    resid[:, n0] = -np.inf  # the tree's own edges
    worst, edge = domain.worst_edge(resid, 0, (slice(0, domain.rows - 1), slice(0, domain.cols)))
    return g, worst, edge


def sweep_propagate(domain: GridDomain, start, base, step):
    """Propagate a value over the grid from the vertex ``base``, where it is
    ``start``: along the base column one vertex at a time, then outward
    column by column with all rows in one step, in rows + cols - 2 calls of

        step(values, axis, index, forward) -> values at the far ends.

    ``index`` is a pair of slices with explicit starts, the block of the
    edge stack along +m (``axis`` 0) or +n (``axis`` 1) that the step
    crosses, so indexing a stack with it gives a view; ``values`` holds
    the values at the near ends of those edges, with the same two leading
    axes, and ``forward`` tells whether the step runs along +m/+n or
    against it.  The spanning tree is the one :func:`sweep_integrate` sums
    along.  One more call steps forward over all edges ((m,n) (m+1,n)) and
    closes the sweep on those off the base column, which the tree skips.

    Returns the values, shape (rows, cols) + start.shape, the largest
    entry of |stepped - stored| at the far ends of those edges, and its
    edge; (0.0, None) when there is no such edge.
    """
    rows, cols = domain.rows, domain.cols
    m0, n0 = domain.index(base)
    out = np.empty((rows, cols) + np.shape(start))
    out[m0, n0] = start
    col = slice(n0, n0 + 1)
    for m in range(m0, rows - 1):
        out[m + 1:m + 2, col] = step(out[m:m + 1, col], 0, (slice(m, m + 1), col), True)
    for m in range(m0 - 1, -1, -1):
        out[m:m + 1, col] = step(out[m + 1:m + 2, col], 0, (slice(m, m + 1), col), False)
    for n in range(n0, cols - 1):
        out[:, n + 1:n + 2] = step(out[:, n:n + 1], 1, (slice(0, rows), slice(n, n + 1)), True)
    for n in range(n0 - 1, -1, -1):
        out[:, n:n + 1] = step(out[:, n + 1:n + 2], 1, (slice(0, rows), slice(n, n + 1)), False)
    if rows == 1 or cols == 1:
        return out, 0.0, None
    index = (slice(0, rows - 1), slice(0, cols))
    resid = np.abs(out[1:] - step(out[:-1], 0, index, True))
    resid[:, n0] = -np.inf  # the tree's own edges
    worst, edge = domain.worst_edge(resid, 0, index)
    return out, worst, edge
