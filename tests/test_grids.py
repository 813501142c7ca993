"""Grid combinatorics and discrete calculus, and the arrays as the one
source of a grid's size."""

import ast
import pathlib

import numpy as np
import pytest

from isothermic import catalog, nets, transforms
from isothermic.euclidean import EuclideanNet
from isothermic.grids import (
    EdgeFunction,
    GridDomain,
    VertexField,
    sweep_integrate,
    sweep_propagate,
)
from isothermic.minkowski import euclidean_lift
from isothermic.nets import IsothermicNet
from reference import faces

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "isothermic"
GRID_CLASSES = {"VertexField", "EdgeFunction", "IsothermicNet", "EuclideanNet"}


def test_edge_function_symmetric_lookup():
    dom = GridDomain(3, 3)
    ef = EdgeFunction(np.array([1.0, 2.0]), np.array([-3.0, -4.0]))
    assert ef.value(((0, 0), (1, 0))) == ef.value(((1, 0), (0, 0))) == 1.0
    assert ef.value(((1, 1), (1, 2))) == ef.value(((1, 2), (1, 1))) == -4.0
    # opposite edges of a face agree by construction
    for i, j, k, l in faces(dom):
        assert ef.value((i, j)) == ef.value((l, k))
        assert ef.value((j, k)) == ef.value((i, l))
    with pytest.raises(KeyError):
        ef.value(((0, 0), (1, 1)))


def test_the_grid_is_read_off_the_arrays():
    field = VertexField(np.zeros((3, 4, 5)))
    weights = EdgeFunction(np.zeros(2), np.zeros(3))
    assert field.domain == weights.domain == GridDomain(3, 4)
    net = IsothermicNet(field, weights)
    assert net.domain is field.domain
    assert EuclideanNet.from_isothermic(catalog.cylinder_net(3, 4, 0.3, 0.7)).domain == net.domain
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        VertexField(np.zeros(3))
    with pytest.raises(ValueError, match=r"u \(2, 2\)"):
        EdgeFunction(np.zeros((2, 2)), np.zeros(3))


def test_one_size_check_names_both_shapes():
    net = catalog.cylinder_net(4, 4, 0.3, 0.7)
    with pytest.raises(ValueError, match=r"\(4, 4, 5\) and weights u \(4,\), v \(3,\)"):
        IsothermicNet(net.lifts, EdgeFunction(np.ones(4), net.weights.v))
    points = EuclideanNet.from_isothermic(net).points
    with pytest.raises(ValueError, match=r"\(4, 4, 3\) and weights u \(4,\), v \(4,\)"):
        EuclideanNet(points, catalog.cylinder_net(5, 5, 0.3, 0.7).weights)
    with pytest.raises(ValueError, match=r"\(4, 4, 3\).*need \(rows, cols, 5\)"):
        IsothermicNet(points, net.weights)
    with pytest.raises(ValueError, match=r"\(4, 4, 5\).*need \(rows, cols, 3\)"):
        EuclideanNet(net.lifts, net.weights)


def test_lookups_outside_the_grid_raise_key_error():
    field = VertexField(np.zeros((3, 4, 5)))
    weights = EdgeFunction(np.zeros(2), np.zeros(3))
    for v in ((-1, 0), (3, 0), (0, 4), (0, -1)):
        with pytest.raises(KeyError):
            field[v]
    for edge in (((2, 0), (3, 0)), ((-1, 1), (0, 1)), ((0, 3), (0, 4)), ((3, 0), (3, 1))):
        with pytest.raises(KeyError):
            weights.value(edge)


def constructor_parameters(cls: ast.ClassDef) -> set:
    """The names a class's constructor takes: the arguments of its
    ``__init__``, or else its annotated (dataclass) fields."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            args = node.args
            return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    return {node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}


def test_grid_domains_are_built_only_from_arrays():
    """No source file but grids.py calls GridDomain(...), and no constructor
    of a field, weight function or net takes a ``domain``."""
    calls, params = [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and path.name != "grids.py":
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "GridDomain":
                    calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ClassDef) and node.name in GRID_CLASSES:
                params[node.name] = constructor_parameters(node)
    assert calls == []
    assert set(params) == GRID_CLASSES
    assert {name: p for name, p in params.items() if "domain" in p} == {}


#: Reductions over a trailing axis that stay, (file, function, method) -> why.
TRAILING_REDUCTIONS_KEPT = {
    ("minkowski.py", "require_finite", "all"): "runs only on the error path, to name the first "
                                               "non-finite lift",
    ("minkowski.py", "_inner", "sum"): "under _COLUMNS_FROM vectors one numpy call is faster "
                                       "than one per column, and adds in the same order",
    ("minkowski.py", "_dot", "sum"): "under _COLUMNS_FROM vectors one numpy call is faster "
                                     "than one per column, and adds in the same order",
}


def is_minus_one(node) -> bool:
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and (
        isinstance(node.operand, ast.Constant) and node.operand.value == 1)


def trailing_reductions(node, function=None):
    """(function, method, line) of every call under ``node`` to sum, max, min,
    all or any with axis -1, and to np.linalg.norm with an axis."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        method, axis = node.func.attr, [k.value for k in node.keywords if k.arg == "axis"]
        if method in {"sum", "max", "min", "all", "any"}:
            if any(is_minus_one(a) for a in node.args + axis):
                yield function, method, node.lineno
        elif method == "norm" and (axis or len(node.args) > 2):
            yield function, method, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from trailing_reductions(child, function)


def test_trailing_axis_products_and_norms_go_through_the_column_sums():
    """No source file reduces over a trailing vector axis with numpy, which
    on grid arrays runs such reductions several times slower than
    ``minkowski._inner`` and ``minkowski._dot`` add the columns, to the same
    bits; the exceptions are listed with their reasons."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for function, method, line in trailing_reductions(ast.parse(path.read_text(), str(path))):
            found.setdefault((path.name, function, method), []).append(line)
    assert set(found) == set(TRAILING_REDUCTIONS_KEPT), found


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


def test_an_exact_form_names_an_edge_the_sum_did_not_use():
    """sweep_integrate finds its worst closing edge through
    GridDomain.worst_edge, as sweep_propagate does, so even an exactly
    closed form, the planar grid's Christoffel form (-e1 along +m, e2 along
    +n), names an edge off the base column, never one of the tree's."""
    dom = GridDomain(4, 4)
    wu = np.broadcast_to([-1.0, 0.0, 0.0], (3, 4, 3))
    wv = np.broadcast_to([0.0, 1.0, 0.0], (4, 3, 3))
    for base in np.ndindex(dom.rows, dom.cols):
        _, worst, ((mi, ni), far) = sweep_integrate(dom, wu, wv, base)
        assert worst == 0.0 and far == (mi + 1, ni) and ni != base[1]


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


def per_edge_closing(domain, out, base, step):
    """The closing (worst, edge) of a sweep, reduced first to the largest
    entry on each edge and then over the edges."""
    rows, cols = domain.rows, domain.cols
    index = (slice(0, rows - 1), slice(0, cols))
    resid = np.abs(out[1:] - step(out[:-1], 0, index, True)).reshape(rows - 1, cols, -1).max(-1)
    resid[:, domain.index(base)[1]] = -np.inf
    return domain.worst_edge(resid, 0, index)


@pytest.mark.parametrize("module, transform, start_shape", [
    (transforms, lambda net: transforms.darboux_propagate(
        net, 0.4, euclidean_lift(np.array([3.0, 0.5, 0.2])), (2, 3)), (5, 1)),
    (nets, lambda net: nets.calapso(net, 0.2, (2, 3)), (5, 5)),
])
def test_sweep_closing_is_the_worst_edge_of_its_largest_entries(monkeypatch, module, transform,
                                                                start_shape):
    """One argmax over the whole closing residual names the edge and value
    that the largest entry per edge, reduced over the edges, names."""
    seen = []

    def recording(domain, start, base, step):
        out, worst, edge = sweep_propagate(domain, start, base, step)
        seen.append((np.shape(start), (worst, edge), per_edge_closing(domain, out, base, step)))
        return out, worst, edge

    monkeypatch.setattr(module, "sweep_propagate", recording)
    transform(catalog.cylinder_net(5, 7, 0.4, 0.7))
    [(shape, closing, reference)] = seen
    assert shape == start_shape and closing[1] is not None
    assert closing == reference


def test_sweep_closing_names_the_first_of_two_tied_edges():
    """Two edges miss by the same largest amount, the later edge in an
    earlier trailing entry: the sweep names the earlier edge."""
    dom, base = GridDomain(3, 4), (0, 1)
    miss = np.zeros((2, 4, 2))
    miss[0, 2, 1] = miss[1, 0, 0] = 3.0
    miss[1, 3, 0] = 1.0

    def step(values, axis, index, forward):
        return values + miss[index] if axis == 0 else values

    out, worst, edge = sweep_propagate(dom, np.zeros(2), base, step)
    assert (worst, edge) == (3.0, ((0, 2), (1, 2)))
    assert (worst, edge) == per_edge_closing(dom, out, base, step)
