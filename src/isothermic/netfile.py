"""Net file format: canonical JSON with deterministic float rendering.

Lifts (not derived 3-space points) are the source of truth.  Floats are
rendered with 17 significant digits, which round-trips doubles exactly, so
loading a canonical file and saving it again is byte-stable.

Files are decoded with ``orjson``, to the values ``json`` gives: the 310 KB
file of a 34x32 net decodes in about 1 ms against 8 ms with ``json.loads``
(Intel Xeon, Python 3.11).  Three kinds of document go to ``json``: those
orjson refuses (``NaN``, ``Infinity``, out-of-range literals, malformed
text), those where it reads an integer literal beyond 64 bits as a float,
and those nested deeper than it recurses safely.  So every file
reads, or is refused, as ``json`` reads it.
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


def _holds_wide_float(values) -> bool:
    """Whether the values hold, at any depth, a float of size 2**63 or more:
    orjson makes one of an integer literal outside [-2**63, 2**64), which
    json keeps as an int."""
    stack = list(values)
    while stack:
        obj = stack.pop()
        if isinstance(obj, (dict, list)):
            stack.extend(obj.values() if isinstance(obj, dict) else obj)
        elif isinstance(obj, float) and abs(obj) >= 2.0 ** 63:
            return True
    return False


def _scalar_values(doc: dict) -> list:
    """The values of a net document other than its float arrays, which
    :func:`load_net` reads as they are.  An array turns an int and the float
    orjson makes of it into the same double."""
    values = [v for k, v in doc.items()
              if k not in ("lifts", "a_u", "a_v", "conserved_quantities")]
    items = doc.get("conserved_quantities")
    for item in items if isinstance(items, list) else [items]:
        values += ([v for k, v in item.items() if k != "coeffs"]
                   if isinstance(item, dict) else [item])
    return values


#: orjson 3.8 decodes nested arrays and objects by native recursion with no
#: depth limit: 2000 levels overflowed a 256 KiB thread stack and 200000 the
#: 8 MiB main one, killing the interpreter.  Deeper documents go to json.
_ORJSON_DEPTH = 512
#: The nesting step of each byte: +1 for [ and {, -1 for ] and }.
_STEP = np.zeros(256, dtype=np.int64)
_STEP[[91, 123]], _STEP[[93, 125]] = 1, -1


def _depth(text: str) -> int:
    """How deep the ASCII JSON text nests arrays and objects, counted outside
    its strings; exact up to its first invalid escape, where decoders stop."""
    if "\\" in text:  # without escaped backslashes and quotes, quotes bound strings
        text = text.replace("\\\\", "").replace('\\"', "")
    a = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # under the mask 0xd9, [ ] { } (and Y _ y DEL) read 0x59; 34 is the quote
    marks = np.compress(((a & 0xD9) == 0x59) | (a == 34), a)
    outside = np.cumsum(marks == 34) % 2 == 0
    return int(np.cumsum(_STEP[marks] * outside).max(initial=0))


def _decode(text: str):
    """The value json.loads(text) gives, decoded by orjson where it agrees."""
    if _depth(text) <= _ORJSON_DEPTH:
        # imported here: a process that reads no net file neither waits the
        # 6-8 ms of this import nor carries the 0.5 MB it adds
        import orjson

        try:
            doc = orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
        else:
            if not (isinstance(doc, dict) and _holds_wide_float(_scalar_values(doc))):
                return doc
    return json.loads(text)


def load_net(path):
    """Load (net, quantities, metadata) from a net file.

    The text is decoded by orjson, and by json where orjson refuses it,
    reads an integer literal beyond 64 bits as a float or would recurse
    deeper than is safe, so the values and the refusals are those of json.

    Raises
    ------
    OSError
        When the file cannot be read.
    ParseError
        On a non-ASCII byte, malformed JSON (with line diagnostics), arrays
        or objects nested too deep for json, a document that is not an
        object, missing fields, sizes and quantities of the wrong type, or
        a non-finite number in an array (Python's json reads NaN, Infinity
        and integers beyond the doubles).
    DimensionMismatch
        When array shapes disagree with the declared grid size.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = _decode(fh.read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not ASCII") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: arrays or objects nested too deep") from exc

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
        except OverflowError as exc:  # an integer literal beyond the doubles
            raise ParseError(f"{path}: field '{key}' holds a non-finite number") from exc
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
