"""Net file round-trips and OBJ export."""

import json
import re
import subprocess
import sys
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from isothermic import catalog, netfile, objexport
from isothermic.errors import DimensionMismatch, ModelMismatch, ParseError
from isothermic.grids import EdgeFunction, VertexField, face_stack
from isothermic.minkowski import embed_lorentz3, hyperbolic_point, minkowski_inner, norm2
from isothermic.netfile import load_net, net_to_document, save_net
from isothermic.nets import IsothermicNet, verify_isothermic
from isothermic.objexport import export_obj
from isothermic.revolution import (
    RotationProfile,
    build_revolution_cmc,
    default_space_form,
    find_seed_edge,
)

ETA, PHI = 0.3, np.pi / 4


# --- reference renderers, one Python call per value ----------------------------


def format_float(x: float) -> str:
    """A float as version 1 writes it: 17 significant digits, -0.0 as "0"."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value cannot be serialized")
    if x == 0.0:
        return "0"
    return format(float(x), ".17g")


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
    """The version-1 text of a document."""
    out: list[str] = []
    ref_render(obj, out, 0)
    out.append("\n")
    return "".join(out)


def shortest_float(x: float) -> str:
    """A float as version 2 writes it, in orjson's form of the shortest
    digits that read back to x (the digits of repr): a plain decimal from
    1e-5 up to below 1e16, else d.ddde<n>; -0.0 as "0.0"."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value cannot be serialized")
    if x == 0.0:
        return "0.0"
    sign, digits, exp = Decimal(repr(float(x))).as_tuple()
    text = "".join(map(str, digits))
    digits = text.rstrip("0")
    exp += len(text) - len(digits)
    kk = len(digits) + exp  # 10**(kk - 1) <= |x| < 10**kk
    if exp >= 0 and kk <= 16:
        text = digits + "0" * exp + ".0"
    elif 0 < kk <= 16:
        text = digits[:kk] + "." + digits[kk:]
    elif -5 < kk <= 0:
        text = "0." + "0" * -kk + digits
    else:
        text = digits[0] + ("." + digits[1:] if len(digits) > 1 else "") + f"e{kk - 1}"
    return "-" * sign + text


def ref_v2_render(obj) -> str:
    """The version-2 text of a document value: an object one item per line,
    a list of lists one item per line, any other list on one line."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return "{" + ",\n".join(json.dumps(key) + ": " + ref_v2_render(value)
                                for key, value in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        rows = all(isinstance(value, (list, tuple)) for value in obj)
        return "[" + (",\n" if rows else ",").join(map(ref_v2_render, obj)) + "]"
    if isinstance(obj, (float, np.floating)):
        return shortest_float(float(obj))
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, (bool, int, str)) or obj is None:
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def v2_text(doc) -> str:
    """The text save_net writes for a document, as version 2."""
    return netfile._encode({**doc, "version": 2}).decode("ascii") + "\n"


# --- documents shaped like net_to_document and the CLI's metadata --------------

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e300,
                     1e-300, -1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
                     1e16, 1e-5, 1e-6, 1e15 + 0.5]),
    st.integers(-10 ** 6, 10 ** 6).map(float))


def float_array(shape):
    return arrays(np.float64, shape, elements=FLOATS)


# strings with non-ASCII text, and with the "],[" that joins two rows of an array
SCALARS = st.one_of(st.booleans(), st.integers(-10 ** 20, 10 ** 20), FLOATS,
                    st.text(max_size=8), st.sampled_from(['"],["', "],\n[", "/tmp/caf\u00e9",
                                                          "\U0001d11e]", "\\u00e9"]),
                    st.none())
NUMBER_LISTS = st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), FLOATS), max_size=4)
METADATA = st.recursive(
    st.one_of(SCALARS, NUMBER_LISTS, float_array(st.sampled_from([(0,), (1,), (3,), (2, 3), (2, 0), (1, 2, 2)]))),
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
def test_canonical_json_matches_reference(tmp_path_factory, doc):
    """save_net writes the reference's version-2 text, value by value, and
    saving what it loads gives the same bytes (twice over)."""
    text = v2_text(doc)
    assert text == ref_v2_render({**doc, "version": 2}) + "\n"
    path = tmp_path_factory.getbasetemp() / "canonical.json"
    path.write_text(text)
    for _ in range(2):
        save_net(path, *load_net(path))
        # save_net leaves out an empty metadata object
        assert path.read_text() == (text if doc["metadata"] else
                                    v2_text({k: v for k, v in doc.items() if k != "metadata"}))


def plain(value, number):
    """The value as JSON reads it back, with each float x as number(x)."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: plain(item, number) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item, number) for item in value]
    if isinstance(value, float):
        return number(value + 0.0)
    return value


@settings(max_examples=200, deadline=None)
@given(documents())
def test_version_2_loads_as_version_1(tmp_path_factory, doc):
    """A document's version-2 and version-1 files load to its arrays, bit for
    bit (-0.0 read as 0.0), and to its metadata by repr; version 1 wrote an
    integral float as an integer literal, which reads back as an int."""
    base = tmp_path_factory.getbasetemp()
    (base / "v1.json").write_text(ref_canonical_json({**doc, "version": 1}))
    (base / "v2.json").write_text(v2_text(doc))
    for name, number in (("v1", lambda x: json.loads(format_float(x))), ("v2", float)):
        net, quantities, metadata = load_net(base / f"{name}.json")
        saved = [doc["lifts"], doc["a_u"], doc["a_v"]] + [
            item["coeffs"] for item in doc.get("conserved_quantities", [])]
        loaded = [net.lifts.data, net.weights.u, net.weights.v] + [
            cq.coeffs for cq in quantities]
        assert [a.tobytes() for a in loaded] == [(a + 0.0).tobytes() for a in saved]
        assert repr(metadata) == repr(plain(doc["metadata"], number))


def test_writer_takes_any_float_array_layout():
    """orjson refuses arrays that are not C-contiguous; transposed, strided,
    Fortran-ordered and float32 arrays are written as their values are."""
    base = np.arange(-6.0, 6.0).reshape(3, 4) / 7
    for arr in (base.T, base[:, ::2], np.asfortranarray(base), base.astype(np.float32),
                -0.0 * base, base[:0], np.float64(-0.0), np.array(2.5)):
        assert netfile._encode(arr).decode("ascii") == ref_v2_render(arr)


def test_saved_files_are_ascii_and_load_back(tmp_path):
    """Non-ASCII text is escaped, a string holding "],[" keeps its one line,
    and integers beyond 64 bits, -0.0 and the extreme doubles load back."""
    net = catalog.cylinder_net(3, 4, ETA, PHI)
    metadata = {"derived_from": "/tmp/caf\u00e9/net.json", "label": 'a"],["b',
                "wide": -2 ** 70, "mu": -0.0,
                "seed": np.array([-0.0, 5e-324, -1.7976931348623157e308, 1e16])}
    path = tmp_path / "net.json"
    save_net(path, net, [catalog.cylinder_quantity(net)], metadata)
    text = path.read_bytes().decode("ascii")
    assert '"label": "a\\"],[\\"b",\n' in text and "\\u00e9" in text
    got = load_net(path)[2]
    assert repr(got) == repr({**metadata, "mu": 0.0,
                              "seed": [0.0, 5e-324, -1.7976931348623157e308, 1e16]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["lifts", "a_u", "coeffs", "seed_M0", "H", "gaps"])
def test_non_finite_array_entries_raise(tmp_path, bad, field):
    # orjson would write NaN and inf as null without an error
    net = catalog.cylinder_net(3, 4, ETA, PHI)
    quantity = catalog.cylinder_quantity(net)
    metadata = {"seed_M0": np.ones(3), "H": 0.5, "gaps": [0.5, [1.0, 2.0]]}
    path = tmp_path / "net.json"
    if field in ("H", "gaps"):
        metadata[field] = bad if field == "H" else [0.5, [1.0, bad]]
        with pytest.raises(ValueError, match="non-finite value cannot be serialized"):
            save_net(path, net, [quantity], metadata)
        assert not path.exists()
        return
    doc = net_to_document(net, [quantity], metadata)
    holder = {"coeffs": doc["conserved_quantities"][0], "seed_M0": doc["metadata"]}.get(field, doc)
    clean = holder[field]
    for pos in (0, clean.size // 2, clean.size - 1):
        holder[field] = clean.copy()
        holder[field].reshape(-1)[pos] = bad
        with pytest.raises(ValueError, match="non-finite value cannot be serialized"):
            netfile._encode(doc)


@pytest.mark.parametrize("metadata, key", [({1: 2.0}, 1), ({"outer": {(0, 1): "x"}}, (0, 1)),
                                           ({"runs": [{"ok": 1, None: 2}]}, None)])
def test_non_string_metadata_keys_raise_before_writing(tmp_path, metadata, key):
    # a key that is not a string was written as a bare token, `{1: 2.0}`, in
    # a file that load_net then refused
    path = tmp_path / "net.json"
    with pytest.raises(TypeError, match=re.escape(f"object key {key!r} is not a string")):
        save_net(path, catalog.cylinder_net(3, 3, 0.3, 0.7), metadata=metadata)
    assert not path.exists()


def obj_reference(xyz, rows, cols) -> str:
    """The OBJ text of (rows * cols, 3) coordinates, one Python call per
    value: shortest round-trip floats, then the grid quads."""
    ids = face_stack(1 + np.arange(rows * cols).reshape(rows, cols)).reshape(-1, 4)
    lines = ["v " + " ".join(shortest_float(float(c)) for c in row) for row in xyz]
    lines += ["f " + " ".join(map(str, quad)) for quad in ids.tolist()]
    return "".join(line + "\n" for line in lines)


def obj_values(text: str) -> np.ndarray:
    """The bits of the v coordinates of an OBJ text, parsed back."""
    return np.array([[float(x) for x in line.split()[1:]] for line in text.splitlines()
                     if line.startswith("v ")], dtype=float).reshape(-1, 3).view(np.uint64)


def test_obj_matches_shortest_float_rendering(tmp_path):
    # this chart gives some coordinates -0.0, which must be written "0.0"
    Q3 = default_space_form(0.0)
    M0, M1, branch = find_seed_edge(Q3, 0.5)
    net, cq = build_revolution_cmc(Q3, 0.5, M0, M1, 2, RotationProfile.uniform(4, np.pi / 2),
                                   branch=branch)
    coords, good = objexport._euclidean_chart(cq.constant, net.lifts.data)
    assert good.all() and np.any(np.signbit(coords) & (coords == 0.0))
    path = tmp_path / "mesh.obj"
    assert export_obj(net, cq.constant, "euclidean", path) == []
    text = path.read_text()
    rows, cols = net.domain.rows, net.domain.cols
    xyz = coords.reshape(-1, 3) + 0.0
    assert text == obj_reference(xyz, rows, cols)
    assert np.array_equal(obj_values(text), xyz.view(np.uint64))
    # the face lines are the %d rendering of the grid quads
    ids = face_stack(1 + np.arange(rows * cols).reshape(rows, cols)).reshape(-1, 4)
    assert [line for line in text.splitlines() if line.startswith("f ")] == [
        "f %d %d %d %d" % tuple(quad) for quad in ids.tolist()]


#: Coordinates on both sides of orjson's switches between plain decimals and
#: exponents (1e-5 and 1e16), subnormals and -0.0.
COORDS = st.one_of(FLOATS, st.sampled_from([
    -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-5, -1e-5, 9.999999999999999e-06,
    1.0000000000000002e-05, 1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16,
    0.00001234, 1.234e-5, 123456789012345.67, 1.2345678901234567e16]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_obj_coordinates_read_back_bitwise(tmp_path_factory, rows, cols, data):
    """Whatever the chart gives, every written token reads back to its
    coordinate bitwise (-0.0 as 0.0), and the text is the reference's."""
    xyz = data.draw(arrays(np.float64, (rows, cols, 3), elements=COORDS))
    net = IsothermicNet(VertexField(np.zeros((rows, cols, 5))),
                        EdgeFunction(np.ones(rows - 1), np.ones(cols - 1)))
    path = tmp_path_factory.getbasetemp() / "drawn.obj"
    with mock.patch.object(objexport, "_euclidean_chart",
                           return_value=(xyz, np.ones((rows, cols), dtype=bool))), \
            np.errstate(over="ignore"):  # the clamp direction of coordinates near 1e308
        export_obj(net, np.array([1.0, 0, 0, 0, -1.0]), "euclidean", path)
    text = path.read_text()
    assert text == obj_reference(xyz.reshape(-1, 3), rows, cols)
    assert np.array_equal(obj_values(text), (xyz.reshape(-1, 3) + 0.0).view(np.uint64))


def test_obj_non_finite_coordinates_raise(tmp_path):
    net = catalog.cylinder_net(3, 3, ETA, PHI)
    lifts = net.lifts.data.copy()
    lifts[1, 1] = np.array([1.0, 1.0, 0.0, 0.0, -1.0])  # on the infinity boundary
    bad = IsothermicNet(VertexField(lifts), net.weights)
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
                          ('{"format": "isothermic-net", "version": 3}', "unsupported version 3"),
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


# --- the loader against a json-only one ------------------------------------------


def json_only_load(path):
    """load_net with every text decoded by json.loads alone."""
    with mock.patch.object(netfile, "_decode", json.loads):
        return load_net(path)


def outcome(load, path):
    """The bytes of the arrays load(path) returns, with the repr of its
    metadata (which tells ints from floats and -0.0 from 0), or the type and
    text of what it raises."""
    try:
        net, quantities, metadata = load(path)
    except Exception as exc:  # every refusal is compared, typed or not
        return type(exc), str(exc)
    return (net.lifts.data.tobytes(), net.weights.u.tobytes(), net.weights.v.tobytes(),
            [(cq.degree, cq.coeffs.tobytes()) for cq in quantities], repr(metadata))


#: Literals that orjson refuses or reads otherwise than json: non-finite,
#: out of range, and integers beyond 64 bits.
ODD_LITERALS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e400", "18446744073709551616",
                "-9223372036854775809", "123456789012345678901234567890", "1" + "0" * 400]
NUMBER = re.compile(r"-?\d[\d.eE+-]*")


@st.composite
def net_texts(draw):
    """A net document, with an integer beyond 64 bits in its metadata or not,
    in the canonical layout of version 1 or 2 or re-laid out by json.dumps, intact or with one
    mutation: truncated, a character inserted or deleted, a non-ASCII byte,
    or a number token replaced by an odd literal."""
    doc = draw(documents())
    if draw(st.booleans()):
        doc["metadata"]["wide"] = draw(st.one_of(st.integers(2 ** 63, 10 ** 30),
                                                 st.integers(-10 ** 30, -2 ** 63 - 1)))
    text = draw(st.sampled_from([ref_canonical_json, v2_text]))(doc)
    layout = draw(st.sampled_from([None, 0, 1]))
    if layout is not None:
        text = json.dumps(json.loads(text), indent=layout or None) + "\n"
    data = text.encode()
    where = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(3 * ["intact"] + ["truncate", "insert", "delete", "byte",
                                                  "literal", "literal"]))
    if kind == "truncate":
        return data[:where]
    if kind == "insert":
        return data[:where] + bytes([draw(st.sampled_from(b'[]{}",:-.e0 \\'))]) + data[where:]
    if kind == "delete":
        return data[:where] + data[where + 1:]
    if kind == "byte":
        return data[:where] + bytes([draw(st.integers(0x80, 0xFF))]) + data[where:]
    if kind == "literal":
        token = draw(st.sampled_from(list(NUMBER.finditer(text))))
        return (text[:token.start()] + draw(st.sampled_from(ODD_LITERALS))
                + text[token.end():]).encode()
    return data


@settings(max_examples=200, deadline=None)
@given(net_texts())
def test_loader_matches_json_only_loader(tmp_path_factory, data):
    """orjson with its json fallback loads every net text to the bits that
    json.loads + np.asarray give (random doubles with subnormals, -0.0 and
    +-1.797e308, integers beyond 64 bits in the metadata), and refuses
    malformed and non-finite texts with the same error and text."""
    path = tmp_path_factory.getbasetemp() / "differential.json"
    path.write_bytes(data)
    assert outcome(load_net, path) == outcome(json_only_load, path)


@pytest.mark.parametrize("literal", ["18446744073709551616", "-9223372036854775809",
                                     "123456789012345678901234567890"])
@pytest.mark.parametrize("field", ["version", "rows", "degree", "item", "metadata"])
def test_wide_integers_read_as_json_reads_them(tmp_path, field, literal):
    """orjson reads these integer literals as floats; the loader gives the
    ints, in the error text and in the metadata, that json gives."""
    net = catalog.cylinder_net(3, 4, ETA, PHI)
    doc = net_to_document(net, [catalog.cylinder_quantity(net)], {"label": "@"})
    for version, text, item in ((1, ref_canonical_json({**doc, "version": 1}),
                                 '{\n      "degree"'),
                                (2, v2_text(doc), '{"degree"')):
        target = {"version": f'"version": {version}', "rows": '"rows": 3',
                  "degree": '"degree": 1', "item": item, "metadata": '"label": "@"'}[field]
        assert target in text
        replace = {"item": literal + ", " + item, "metadata": '"label": ' + literal}.get(
            field, target.split(":")[0] + ": " + literal)
        path = tmp_path / "net.json"
        path.write_text(text.replace(target, replace))
        assert outcome(load_net, path) == outcome(json_only_load, path)
        if field == "metadata":
            assert load_net(path)[2]["label"] == int(literal)


def test_canonical_files_are_decoded_without_json(tmp_path):
    """A canonical file takes the orjson path: json.loads is not called."""
    net = catalog.cylinder_net(4, 5, ETA, PHI)
    path = tmp_path / "net.json"
    metadata = {"H": 0.5, "label": "[cyl\u00e9] \\\"]"}  # written with escapes
    save_net(path, net, [catalog.cylinder_quantity(net)], metadata)
    with mock.patch.object(netfile.json, "loads", side_effect=AssertionError("json decoded")):
        net2, _, metadata2 = load_net(path)
    np.testing.assert_array_equal(net2.lifts.data, net.lifts.data)
    assert metadata2 == metadata


def test_library_calls_without_files_leave_orjson_unimported(tmp_path):
    """orjson is imported on the first save, load or OBJ export: imported with
    the package, it slowed operations on nets in memory by about 5 %.
    Building, verifying and transforming a net without writing it, and
    importing objexport, must not import it; save_net and export_obj each
    must."""
    script = (f"import sys; sys.path[:0] = {sys.path!r}\n"
              "import numpy as np\n"
              "from isothermic import (RotationProfile, build_revolution_cmc, calapso,\n"
              "    darboux_propagate, euclidean_lift, export_obj, pcq_verify, save_net,\n"
              "    verify_isothermic)\n"
              "from isothermic.revolution import default_space_form, find_seed_edge\n"
              "Q3 = default_space_form(0.0)\n"
              "M0, M1, branch = find_seed_edge(Q3, 0.5)\n"
              "net, cq = build_revolution_cmc(Q3, 0.5, M0, M1, 3,\n"
              "                               RotationProfile.uniform(8, np.pi / 4), branch=branch)\n"
              "assert verify_isothermic(net.lifts).ok and pcq_verify(net, cq).ok\n"
              "calapso(net, -0.5)\n"
              "darboux_propagate(net, 0.4, euclidean_lift(np.array([3.0, 0.5, 0.2]))).net()\n"
              "import isothermic.objexport\n"
              "assert 'orjson' not in sys.modules, 'orjson imported without a file'\n")
    for first_file in (f"save_net({str(tmp_path / 'net.json')!r}, net, [cq])",
                       f"export_obj(net, cq.constant, 'euclidean', {str(tmp_path / 'm.obj')!r})"):
        child = subprocess.run([sys.executable, "-c", script + first_file + "\n"
                                "assert 'orjson' in sys.modules\n"],
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr[-2000:]


def nesting(value) -> int:
    if isinstance(value, dict):
        return 1 + max(map(nesting, value.values()), default=0)
    if isinstance(value, list):
        return 1 + max(map(nesting, value), default=0)
    return 0


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.integers(), st.text(alphabet='[]{}"\\ab\u00e9', max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(alphabet='[]{}"\\a', max_size=3), inner,
                                            max_size=3)),
    max_leaves=20)


@given(JSON_VALUES)
def test_depth_counts_nesting_outside_strings(value):
    """The depth that decides between orjson and json is the nesting depth of
    the text, with brackets, escaped quotes and backslashes in its strings."""
    assert netfile._depth(json.dumps(value)) == nesting(value)


@pytest.mark.parametrize("depth", [600, 300_000])
def test_deep_documents_are_left_to_json(tmp_path, depth):
    """orjson 3.8 recurses without a limit and kills the interpreter on
    200000 nested arrays; the loader hands deep texts to json, so it fails as
    json does (or loads), in a child process that must exit cleanly."""
    path = tmp_path / "deep.json"
    path.write_text('{"format": "isothermic-net", "version": 1, "rows": 1, "cols": 1, '
                    '"lifts": [[[1, 0, 0, 0, 1]]], "a_u": [], "a_v": [], "metadata": {"x": '
                    + "[" * depth + "]" * depth + "}}\n")
    script = (f"import sys; sys.path[:0] = {sys.path!r}\n"
              "import test_netfile as t\n"
              f"a, b = (t.outcome(f, {str(path)!r}) for f in (t.load_net, t.json_only_load))\n"
              "assert a == b, (a, b)\n")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]


@pytest.mark.parametrize("field", ["lifts", "a_u", "conserved_quantities[0]"])
def test_load_refuses_integers_beyond_doubles(tmp_path, field):
    """json reads an integer literal of 401 digits as an int that no double
    holds; it is refused like 1e999, not with numpy's OverflowError."""
    net = catalog.cylinder_net(3, 4, ETA, PHI)
    path = tmp_path / "net.json"
    save_net(path, net, [catalog.cylinder_quantity(net)])
    doc = json.loads(path.read_text())
    target = {"lifts": doc["lifts"][1][2], "a_u": doc["a_u"],
              "conserved_quantities[0]": doc["conserved_quantities"][0]["coeffs"][2][1][1]}[field]
    target[1] = 10 ** 400
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(f"field '{field}' holds a non-finite number")):
        load_net(path)


def test_load_refuses_deep_nesting(tmp_path):
    """A document nested deeper than json recurses is a ParseError, not a
    RecursionError."""
    net = catalog.cylinder_net(3, 3, ETA, PHI)
    path = tmp_path / "net.json"
    save_net(path, net, metadata={"deep": "@"})
    path.write_text(path.read_text().replace('"@"', "[" * 5000 + "]" * 5000))
    with pytest.raises(ParseError, match="nested too deep"):
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
    assert export_obj(net, np.array([1.0, 0, 0, 0, -1.0]), "euclidean", path) == []
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
    flagged = export_obj(net, cq.constant, "poincare", path)
    coords = np.array([[float(x) for x in line.split()[1:]]
                       for line in path.read_text().splitlines()
                       if line.startswith("v ")])
    flagged_ids = {v[0] * net.domain.cols + v[1] for v, _ in flagged}
    inside = [i for i in range(len(coords)) if i not in flagged_ids]
    assert np.all(np.linalg.norm(coords[inside], axis=1) < 1.0)


@pytest.mark.filterwarnings("ignore:meridian crossed")
def test_export_poincare_picks_the_majority_sheet(tmp_path):
    """Reflecting the lifts in Q, F -> F - 2<F, Q>/<Q, Q> Q, negates <F, Q>
    and so every chart coordinate, which swaps the sheets of the hyperboloid:
    exactly one of the two exports flips to the majority sheet, and both
    write the same file and flag the same vertices.  The net is that of
    ``generate revolution --H 0.3 --kappa -1 --steps 10 --angles 24``."""
    Q3 = default_space_form(-1.0)
    M0, M1, branch = find_seed_edge(Q3, 0.3)
    net, cq = build_revolution_cmc(Q3, 0.3, M0, M1, 10,
                                   RotationProfile.uniform(24, 2.0 * np.pi / 24), branch)
    Q, F = cq.constant, net.lifts.data
    reflected = IsothermicNet(
        VertexField(F - (2.0 * minkowski_inner(F, Q) / norm2(Q))[..., None] * Q), net.weights)
    flagged = export_obj(net, Q, "poincare", tmp_path / "a.obj")
    assert export_obj(reflected, Q, "poincare", tmp_path / "b.obj") == flagged
    assert len(flagged) == 240
    assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()


def test_export_stereographic(tmp_path):
    net, cq = build_revolution_cmc(np.array([1.0, 0.0, 0.0]), 0.3,
                                   hyperbolic_point(0.1, 0.9),
                                   hyperbolic_point(0.4, 1.0), 3,
                                   RotationProfile.uniform(6, 0.9))
    path = tmp_path / "torus.obj"
    flagged = export_obj(net, cq.constant, "stereographic", path)
    coords = np.array([[float(x) for x in line.split()[1:]]
                       for line in path.read_text().splitlines()
                       if line.startswith("v ")])
    assert flagged == []
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
    bad = IsothermicNet(VertexField(lifts), net.weights)
    path = tmp_path / "clamped.obj"
    flagged = export_obj(bad, np.array([1.0, 0, 0, 0, -1.0]), "euclidean", path,
                        clamp=1e4)
    assert [v for v, _ in flagged] == [(1, 1)]
    sidecar = (tmp_path / "clamped.obj.report.txt").read_text()
    assert "flagged: 1" in sidecar
    coords = np.array([[float(x) for x in line.split()[1:]]
                       for line in path.read_text().splitlines()
                       if line.startswith("v ")])
    assert np.abs(coords[4]).max() <= 1e4 + 1e-9
