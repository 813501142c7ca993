"""Net file format: canonical JSON with deterministic float rendering.

Lifts (not derived 3-space points) are the source of truth.  Floats are
rendered with 17 significant digits, which round-trips doubles exactly, so
loading a canonical file and saving it again is byte-stable.
"""

from __future__ import annotations

import json

import numpy as np

from .conserved import ConservedQuantity
from .errors import DimensionMismatch, ParseError
from .grids import EdgeFunction, GridDomain, VertexField
from .nets import IsothermicNet

FORMAT_NAME = "isothermic-net"
FORMAT_VERSION = 1


def format_float(x: float) -> str:
    """Canonical 17-significant-digit decimal rendering (round-trips doubles)."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value cannot be serialized")
    if x == 0.0:  # canonicalize -0.0
        return "0"
    return format(float(x), ".17g")


def _block(items, indent: int, brackets: str = "[]") -> str:
    """Rendered items one per line, two spaces deeper than the brackets."""
    pad = "  " * indent
    body = pad + "  " + (",\n" + pad + "  ").join(items) + "\n" if items else ""
    return brackets[0] + "\n" + body + pad + brackets[1]


def _array_template(shape, indent: int) -> str:
    """The %-template of a float array of this shape: one ``%.17g`` slot per
    entry, laid out as :func:`_render` lays out the nested lists."""
    if not shape:
        return "%.17g"
    if len(shape) == 1 and shape[0]:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    return _block([_array_template(shape[1:], indent + 1)] * shape[0], indent)


def _render(obj, indent: int) -> str:
    if isinstance(obj, dict):
        return _block([json.dumps(key) + ": " + _render(value, indent + 1)
                       for key, value in obj.items()], indent, "{}")
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        if not np.isfinite(obj).all():
            raise ValueError("non-finite value cannot be serialized")
        # + 0.0 turns -0.0 into 0.0, which renders as "0"
        return _array_template(obj.shape, indent) % tuple((obj + 0.0).ravel().tolist())
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        items = [_render(value, indent + 1) for value in seq]
        if seq and all(isinstance(x, (int, float, np.integer, np.floating))
                       and not isinstance(x, bool) for x in seq):
            return "[" + ", ".join(items) + "]"
        return _block(items, indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    return _render(obj, 0) + "\n"


def net_to_document(net: IsothermicNet, quantities=(), metadata=None) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "rows": net.domain.rows,
        "cols": net.domain.cols,
        "lifts": net.lifts.data,
        "a_u": net.weights.u,
        "a_v": net.weights.v,
    }
    if quantities:
        doc["conserved_quantities"] = [
            {"degree": cq.degree, "coeffs": cq.coeffs} for cq in quantities
        ]
    if metadata:
        doc["metadata"] = metadata
    return doc


def save_net(path, net: IsothermicNet, quantities=(), metadata=None) -> None:
    text = canonical_json(net_to_document(net, quantities, metadata))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _require(doc, key, path):
    if key not in doc:
        raise ParseError(f"{path}: missing field '{key}'")
    return doc[key]


def load_net(path):
    """Load (net, quantities, metadata) from a net file.

    Raises
    ------
    OSError
        When the file cannot be read.
    ParseError
        On a non-ASCII byte, malformed JSON (with line diagnostics), a
        document that is not an object, missing fields, sizes and
        quantities of the wrong type, or a non-finite number in an array
        (Python's json reads NaN and Infinity).
    DimensionMismatch
        When array shapes disagree with the declared grid size.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not ASCII") from exc

    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not an {FORMAT_NAME} file (the document is not an object)")
    if _require(doc, "format", path) != FORMAT_NAME:
        raise ParseError(f"{path}: not an {FORMAT_NAME} file")
    if _require(doc, "version", path) != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported version {doc['version']}")
    try:
        rows, cols = (int(_require(doc, key, path)) for key in ("rows", "cols"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: grid size is not an integer ({exc})") from exc
    if rows < 1 or cols < 1:
        raise ParseError(f"{path}: grid size must be positive")
    domain = GridDomain(rows, cols)

    def array_field(key, shape, raw=None):
        raw = _require(doc, key, path) if raw is None else raw
        try:
            arr = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: field '{key}' is not numeric") from exc
        if arr.shape != shape:
            raise DimensionMismatch(
                f"{path}: field '{key}' has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ParseError(f"{path}: field '{key}' holds a non-finite number")
        return arr

    lifts = array_field("lifts", (rows, cols, 5))
    a_u = array_field("a_u", (rows - 1,))
    a_v = array_field("a_v", (cols - 1,))
    net = IsothermicNet(domain, VertexField(domain, lifts),
                        EdgeFunction(domain, a_u, a_v))

    quantities, items = [], doc.get("conserved_quantities", [])
    if not isinstance(items, list):
        raise ParseError(f"{path}: conserved_quantities must be a list")
    for idx, item in enumerate(items):
        try:
            degree, raw = int(item["degree"]), item["coeffs"]
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: conserved_quantities[{idx}] needs an integer "
                             f"'degree' and 'coeffs' ({exc!r})") from exc
        coeffs = array_field(f"conserved_quantities[{idx}]", (rows, cols, degree + 1, 5), raw)
        quantities.append(ConservedQuantity(net, coeffs, check=False))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{path}: metadata must be an object")
    return net, quantities, metadata
