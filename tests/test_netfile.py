"""Net file round-trips and OBJ export."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from isothermic import catalog
from isothermic.errors import DimensionMismatch, ModelMismatch, ParseError
from isothermic.grids import VertexField, face_stack
from isothermic.minkowski import embed_lorentz3, hyperbolic_point
from isothermic.netfile import (
    canonical_json,
    format_float,
    load_net,
    net_to_document,
    save_net,
)
from isothermic.nets import verify_isothermic
from isothermic.objexport import export_obj
from isothermic.revolution import (
    RotationProfile,
    build_revolution_cmc,
    default_space_form,
    find_seed_edge,
)

ETA, PHI = 0.3, np.pi / 4


# --- reference renderer, one Python call per value -----------------------------


def ref_render(obj, out: list, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        out.append("{\n")
        for idx, (key, value) in enumerate(obj.items()):
            out.append(pad + "  " + json.dumps(key) + ": ")
            ref_render(value, out, indent + 1)
            out.append(",\n" if idx < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if _is_number_vector(seq):
            out.append("[" + ", ".join(_fmt_number(x) for x in seq) + "]")
        else:
            out.append("[\n")
            for idx, value in enumerate(seq):
                out.append(pad + "  ")
                ref_render(value, out, indent + 1)
                out.append(",\n" if idx < len(seq) - 1 else "\n")
            out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _is_number_vector(seq) -> bool:
    return all(isinstance(x, (int, float, np.integer, np.floating))
               and not isinstance(x, bool) for x in seq) and len(seq) > 0


def _fmt_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format_float(float(x))


def ref_canonical_json(obj) -> str:
    out: list[str] = []
    ref_render(obj, out, 0)
    out.append("\n")
    return "".join(out)


# --- documents shaped like net_to_document and the CLI's metadata --------------

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e300,
                     1e-300, -1e-300, 1.7976931348623157e308]),
    st.integers(-10 ** 6, 10 ** 6).map(float))


def float_array(shape):
    return arrays(np.float64, shape, elements=FLOATS)


SCALARS = st.one_of(st.booleans(), st.integers(-10 ** 20, 10 ** 20), FLOATS,
                    st.text(max_size=8), st.none())
NUMBER_LISTS = st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), FLOATS), max_size=4)
METADATA = st.recursive(
    st.one_of(SCALARS, NUMBER_LISTS, float_array(st.sampled_from([(0,), (1,), (3,)]))),
    lambda inner: st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=12)


@st.composite
def documents(draw):
    rows, cols, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    doc = {"format": "isothermic-net", "version": 1, "rows": rows, "cols": cols,
           "lifts": draw(float_array((rows, cols, 5))),
           "a_u": draw(float_array(rows - 1)), "a_v": draw(float_array(cols - 1))}
    if draw(st.booleans()):
        doc["conserved_quantities"] = [
            {"degree": k - 1, "coeffs": draw(float_array((rows, cols, k, 5)))}]
    doc["metadata"] = draw(st.dictionaries(st.text(max_size=6), METADATA, max_size=5))
    return doc


@settings(max_examples=200, deadline=None)
@given(documents())
def test_canonical_json_matches_reference(doc):
    assert canonical_json(doc) == ref_canonical_json(doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["lifts", "a_u", "coeffs", "seed_M0"])
def test_non_finite_array_entries_raise(bad, field):
    net = catalog.cylinder_net(3, 4, ETA, PHI)
    doc = net_to_document(net, [catalog.cylinder_quantity(net)], {"seed_M0": np.ones(3)})
    holder = {"coeffs": doc["conserved_quantities"][0], "seed_M0": doc["metadata"]}.get(field, doc)
    clean = holder[field]
    for pos in (0, clean.size // 2, clean.size - 1):
        holder[field] = clean.copy()
        holder[field].reshape(-1)[pos] = bad
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(doc)


def test_obj_matches_per_float_rendering(tmp_path):
    # this chart gives some coordinates -0.0, which must be written "0"
    Q3 = default_space_form(0.0)
    M0, M1, branch = find_seed_edge(Q3, 0.5)
    net, cq = build_revolution_cmc(Q3, 0.5, M0, M1, 2, RotationProfile.uniform(4, np.pi / 2),
                                   branch=branch)
    path = tmp_path / "mesh.obj"
    export_obj(net, cq.constant, "euclidean", path)
    text = path.read_text()
    # 17 significant digits round-trip, so the coordinates read back are the
    # ones written, and the per-float rendering of them must give the same bytes
    xyz = [[float(x) for x in line.split()[1:]] for line in text.splitlines()
           if line.startswith("v ")]
    assert any(c == 0.0 for row in xyz for c in row)
    ids = face_stack(1 + np.arange(len(xyz)).reshape(net.domain.rows, net.domain.cols))
    ids = ids.reshape(-1, 4)
    lines = ["v " + " ".join(format_float(c) for c in row) for row in xyz]
    lines += ["f " + " ".join(map(str, quad)) for quad in ids]
    assert text == "\n".join(lines) + "\n"


def test_obj_non_finite_coordinates_raise(tmp_path):
    net = catalog.cylinder_net(3, 3, ETA, PHI)
    lifts = net.lifts.data.copy()
    lifts[1, 1] = np.array([1.0, 1.0, 0.0, 0.0, -1.0])  # on the infinity boundary
    bad = net.with_lifts(VertexField(net.domain, lifts))
    # an infinite clamp sends the vertex to inf (and 0 * inf to nan)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        export_obj(bad, np.array([1.0, 0, 0, 0, -1.0]), "euclidean", tmp_path / "m.obj",
                   clamp=np.inf)


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
    # documents that are not net objects
    for text, message in (("5", "not an object"), ('["format"]', "not an object"),
                          ('{"format": "isothermic-net", "version": 1, "rows": "x", "cols": 2}',
                           "grid size is not an integer"),
                          ('{"format": "isothermic-net", "version": 1, "rows": 2, "cols": 2,'
                           ' "lifts": [[[1, 0, 0, 0, 1], [1, 0, 0, 0, 1]],'
                           ' [[1, 0, 0, 0, 1], [1, 0, 0, 0, 1]]], "a_u": [1], "a_v": [1],'
                           ' "conserved_quantities": [5]}',
                           "conserved_quantities\\[0\\] needs an integer")):
        path.write_text(text + "\n")
        with pytest.raises(ParseError, match=message):
            load_net(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("field", ["lifts", "a_u", "conserved_quantities[0]"])
def test_load_refuses_non_finite_numbers(tmp_path, field, literal):
    # Python's json reads NaN and Infinity; a NaN weight once verified as ok
    net = catalog.cylinder_net(3, 4, ETA, PHI)
    path = tmp_path / "net.json"
    save_net(path, net, [catalog.cylinder_quantity(net)])
    doc = json.loads(path.read_text())
    target = {"lifts": doc["lifts"][1][2], "a_u": doc["a_u"],
              "conserved_quantities[0]": doc["conserved_quantities"][0]["coeffs"][2][1][1]}[field]
    target[1] = "@"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    with pytest.raises(ParseError, match=re.escape(f"field '{field}' holds a non-finite number")):
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
    assert report.path == str(path) and not report.flagged
    lines = path.read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 20 and len(fs) == 12
    # vertex coordinates reproduce the cylinder points
    first = np.array([float(x) for x in vs[0].split()[1:]])
    np.testing.assert_allclose(first, [0.0, 1.0, 0.0], atol=1e-12)
    assert (tmp_path / "mesh.obj.report.txt").read_text().startswith(
        "model: euclidean\nvertices: 20\nfaces: 12\nflagged: 0\n")
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
