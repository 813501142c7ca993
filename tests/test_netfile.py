"""Net file round-trips and OBJ export."""

import numpy as np
import pytest

from isothermic import catalog
from isothermic.errors import DimensionMismatch, ModelMismatch, ParseError
from isothermic.minkowski import embed_lorentz3, hyperbolic_point
from isothermic.netfile import load_net, save_net
from isothermic.nets import verify_isothermic
from isothermic.objexport import export_obj
from isothermic.revolution import RotationProfile, build_revolution_cmc

ETA, PHI = 0.3, np.pi / 4


def test_save_load_roundtrip(tmp_path):
    net = catalog.cylinder_net(4, 4, ETA, PHI)
    cq = catalog.cylinder_quantity(net)
    path = tmp_path / "net.json"
    save_net(path, net, [cq], {"H": 0.5, "kappa": 0.0, "label": "cylinder"})
    first = path.read_bytes()
    net2, quantities, metadata = load_net(path)
    assert metadata["label"] == "cylinder"
    np.testing.assert_array_equal(net2.lifts.data, net.lifts.data)
    np.testing.assert_array_equal(net2.weights.u, net.weights.u)
    np.testing.assert_array_equal(quantities[0].coeffs, cq.coeffs)
    save_net(path, net2, quantities, metadata)
    assert path.read_bytes() == first  # byte-stable canonical rendering
    assert verify_isothermic(net2.lifts).ok


def test_load_truncated_file(tmp_path):
    net = catalog.cylinder_net(3, 3, ETA, PHI)
    path = tmp_path / "net.json"
    save_net(path, net)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError):
        load_net(path)


def test_load_reports_field_errors(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"format": "isothermic-net", "version": 1, "rows": 2}\n')
    with pytest.raises(ParseError, match="cols"):
        load_net(path)
    path.write_text('{"format": "other"}\n')
    with pytest.raises(ParseError, match="not an"):
        load_net(path)


def test_load_dimension_mismatch(tmp_path):
    net = catalog.cylinder_net(3, 3, ETA, PHI)
    path = tmp_path / "net.json"
    save_net(path, net)
    doc = path.read_text().replace('"rows": 3', '"rows": 4')
    path.write_text(doc)
    with pytest.raises(DimensionMismatch):
        load_net(path)


def test_export_euclidean(tmp_path):
    net = catalog.cylinder_net(4, 5, ETA, PHI)
    path = tmp_path / "mesh.obj"
    report = export_obj(net, np.array([1.0, 0, 0, 0, -1.0]), "euclidean", path)
    assert report.vertex_count == 20
    assert report.face_count == 12
    assert not report.flagged
    lines = path.read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 20 and len(fs) == 12
    # vertex coordinates reproduce the cylinder points
    first = np.array([float(x) for x in vs[0].split()[1:]])
    np.testing.assert_allclose(first, [0.0, 1.0, 0.0], atol=1e-12)
    assert (tmp_path / "mesh.obj.report.txt").exists()
    # determinism: identical inputs give identical bytes
    data = path.read_bytes()
    export_obj(net, np.array([1.0, 0, 0, 0, -1.0]), "euclidean", path)
    assert path.read_bytes() == data


@pytest.mark.filterwarnings("ignore:meridian crossed")
def test_export_poincare(tmp_path):
    net, cq = build_revolution_cmc(np.array([0.0, 0.0, 1.0]), 0.0,
                                   hyperbolic_point(0.1, 0.7),
                                   hyperbolic_point(0.35, 0.8), 3,
                                   RotationProfile.uniform(7, 0.8))
    path = tmp_path / "catenoid.obj"
    report = export_obj(net, cq.constant, "poincare", path)
    coords = np.array([[float(x) for x in line.split()[1:]]
                       for line in path.read_text().splitlines()
                       if line.startswith("v ")])
    flagged_ids = {v[0] * net.domain.cols + v[1] for v, _ in report.flagged}
    inside = [i for i in range(len(coords)) if i not in flagged_ids]
    assert np.all(np.linalg.norm(coords[inside], axis=1) < 1.0)


def test_export_stereographic(tmp_path):
    net, cq = build_revolution_cmc(np.array([1.0, 0.0, 0.0]), 0.3,
                                   hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 3,
                                   RotationProfile.uniform(6, 0.9))
    path = tmp_path / "torus.obj"
    report = export_obj(net, cq.constant, "stereographic", path)
    coords = np.array([[float(x) for x in line.split()[1:]]
                       for line in path.read_text().splitlines()
                       if line.startswith("v ")])
    assert not report.flagged
    assert np.all(np.isfinite(coords))
    assert np.abs(coords).max() < 1e6


def test_export_model_mismatch():
    net = catalog.cylinder_net(3, 3, ETA, PHI)
    Q0 = np.array([1.0, 0, 0, 0, -1.0])
    with pytest.raises(ModelMismatch):
        export_obj(net, Q0, "poincare", "/tmp/unused.obj")
    with pytest.raises(ModelMismatch):
        export_obj(net, embed_lorentz3(np.array([0.0, 0, 1.0])), "euclidean",
                   "/tmp/unused.obj")
    with pytest.raises(ModelMismatch):
        export_obj(net, Q0, "stereographic", "/tmp/unused.obj")


def test_export_flags_infinity_boundary(tmp_path):
    # a net with a vertex on the flat infinity boundary gets clamped + listed
    from isothermic.grids import VertexField

    net = catalog.cylinder_net(3, 3, ETA, PHI)
    lifts = net.lifts.data.copy()
    lifts[1, 1] = np.array([1.0, 1.0, 0.0, 0.0, -1.0])  # <F, Q0> = 0
    bad = net.with_lifts(VertexField(net.domain, lifts))
    path = tmp_path / "clamped.obj"
    report = export_obj(bad, np.array([1.0, 0, 0, 0, -1.0]), "euclidean", path,
                        clamp=1e4)
    assert [v for v, _ in report.flagged] == [(1, 1)]
    sidecar = (tmp_path / "clamped.obj.report.txt").read_text()
    assert "flagged: 1" in sidecar
    coords = np.array([[float(x) for x in line.split()[1:]]
                       for line in path.read_text().splitlines()
                       if line.startswith("v ")])
    assert np.abs(coords[4]).max() <= 1e4 + 1e-9
