"""Each output check accepts a correct output and rejects the same output
with one vertex moved by 1e-3."""

import json
import os

import numpy as np
import pytest

import checks
import layers
import run
import workloads
from isothermic import catalog, euclidean, minkowski, nets, transforms
from isothermic.objexport import export_obj

MOVE = 1e-3 * np.array([0.6, -0.48, 0.64])  # length 1e-3
V = (2, 3)  # the moved vertex


@pytest.fixture(scope="module")
def cylinder():
    net = catalog.cylinder_net(6, 7, 0.3, 2.0 * np.pi / 7)
    return net, catalog.cylinder_quantity(net)


def moved_lifts(lifts):
    pts = checks.euclidean_points(lifts)
    pts[V] += MOVE
    return minkowski.euclidean_lift(pts)


def parts(net):
    return net.lifts.data, net.weights.u, net.weights.v


@pytest.mark.parametrize("check", [checks.concircular, checks.face_cross_ratios,
                                   checks.real_cross_ratios])
def test_face_checks(cylinder, check):
    L, u, v = parts(cylinder[0])
    args = (L,) if check is checks.concircular else (L, u, v)
    assert check(*args) <= 1.0
    bad = (moved_lifts(L),) + args[1:]
    assert check(*bad) > 1.0


def test_isotropy(cylinder):
    L = cylinder[0].lifts.data
    assert checks.isotropy(L) <= 1.0
    bad = L.copy()
    bad[V] += np.concatenate([MOVE, [0.0, 0.0]])
    assert checks.isotropy(bad) > 1.0


def test_quantity_edges_and_curvature(cylinder):
    net, cq = cylinder
    L, u, v = parts(net)
    assert checks.quantity_edges(L, u, v, cq.coeffs) <= 1.0
    assert checks.curvature(cq.coeffs, 0.5, 0.0, minkowski.Q_EUCLIDEAN) <= 1.0
    bad = cq.coeffs.copy()
    bad[V][1, 1:4] += MOVE
    assert checks.quantity_edges(L, u, v, bad) > 1.0
    assert checks.curvature(bad, 0.5, 0.0, minkowski.Q_EUCLIDEAN) > 1.0
    bad = cq.coeffs.copy()
    bad[V][0, 1:4] += MOVE
    assert checks.curvature(bad, 0.5, 0.0) > 1.0


def test_calapso_weights_and_curvature(cylinder):
    net, cq = cylinder
    frame, shifted = nets.calapso(net, 0.2)
    sq = transforms.calapso_pcq(cq, frame)
    L, u, v = parts(shifted)
    H, kappa = checks.calapso_curvature(0.5, 0.0, 0.2)
    assert checks.weights_shifted(u, v, net.weights.u, net.weights.v, 0.2) <= 1.0
    assert checks.curvature(sq.coeffs, H, kappa) <= 1.0
    assert checks.weights_shifted(u * (1 + 1e-3), v, net.weights.u, net.weights.v, 0.2) > 1.0
    assert checks.curvature(sq.coeffs, 0.5, 0.0) > 1.0


def test_darboux_edges(cylinder):
    net, cq = cylinder
    t = transforms.darboux_propagate(net, 0.4, minkowski.euclidean_lift([3.0, 0.5, 0.2]))
    L, u, v = parts(net)
    D = t.lifts.data
    assert checks.darboux_edges(L, D, u, v, 0.4) <= 1.0
    assert checks.net(D, u, v)["real cross ratios"] <= 1.0
    assert checks.darboux_edges(L, moved_lifts(D), u, v, 0.4) > 1.0


def test_christoffel_twice(cylinder):
    net = cylinder[0]
    dual = euclidean.christoffel(euclidean.EuclideanNet.from_isothermic(net))
    pts = checks.euclidean_points(net.lifts.data)
    L, u, v = parts(net)
    assert checks.christoffel_twice(pts, dual.points.data, u, v) <= 1.0
    bad = dual.points.data.copy()
    bad[V] += MOVE
    assert checks.christoffel_twice(pts, bad, u, v) > 1.0


def test_obj_mesh(cylinder, tmp_path):
    net = cylinder[0]
    path = tmp_path / "net.obj"
    export_obj(net, minkowski.Q_EUCLIDEAN, "euclidean", path)
    text = path.read_text()
    report = (tmp_path / "net.obj.report.txt").read_text()
    L, u, v = parts(net)
    scores = checks.obj_mesh(text, report, 6, 7, u, v)
    assert max(scores.values()) <= 1.0
    verts, _ = checks.read_obj(text)
    verts[V[0] * 7 + V[1]] += MOVE
    moved = "\n".join("v " + " ".join(repr(float(x)) for x in row) for row in verts)
    moved += "\n" + "\n".join(line for line in text.splitlines() if line.startswith("f"))
    assert checks.obj_mesh(moved, report, 6, 7, u, v)["obj cross ratios"] > 1.0
    assert checks.obj_mesh(text, report, 6, 8, u, v)["obj layout"] > 1.0


def test_ill_conditioned_data_is_not_certified():
    # A Lorentz boost keeps every inner product but makes the lifts ~1e4
    # times longer, so a face's condition number grows to ~1e8 and
    # REL * cond would excuse a 5 % cross-ratio error; MAX_REL does not.
    t = 9.0
    boost = np.eye(5)
    boost[:2, :2] = [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]]
    L = catalog.planar_grid_net(2, 2).lifts.data @ boost.T
    u, v = np.array([1.0]), np.array([-1.0])
    assert checks.face_cross_ratios(L, u, v) <= 1.0
    assert checks.face_cross_ratios(L, u, v * 1.05) > 1.0


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    units = layers.metric_units(workloads.OPS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
