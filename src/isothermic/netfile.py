"""Net file format: JSON with shortest round-trip floats (version 2).

Lifts (not derived 3-space points) are the source of truth.  Floats are
written by ``orjson`` as the shortest decimal that reads back to the same
double, a float array one innermost row per line; strings and integers are
written by ``json``, which escapes non-ASCII text.  So a file is ASCII,
loads back to bitwise-equal values, and saving what was loaded is
byte-stable.  Version 1 files (``%.17g`` floats) hold the same values and
still load.

A file is read as bytes, checked to be ASCII and decoded from those bytes
by ``orjson``, to the values ``json`` gives: the 246 KB file of a 34x32 net
decodes in about 0.9 ms against 3.5 ms with ``json.loads`` (Intel Xeon,
Python 3.11).  Three kinds of document go to ``json``: those orjson refuses
(``NaN``, ``Infinity``, out-of-range literals, malformed text), those where
it reads an integer literal beyond 64 bits as a float, and those nested
deeper than it recurses safely.  ``json`` reads the text with universal
newlines, as a file opened in text mode reads, so its line and column are
those of the text.  So every file reads, or is refused, as ``json`` reads
it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .conserved import ConservedQuantity
from .errors import DimensionMismatch, ParseError
from .grids import EdgeFunction, VertexField
from .nets import IsothermicNet

FORMAT_NAME = "isothermic-net"
FORMAT_VERSION = 2
#: The versions load_net reads: version 1 differs only in how floats are written.
READ_VERSIONS = (1, 2)

NON_FINITE = "non-finite value cannot be serialized"


def _encode(obj) -> bytes:
    """The version-2 text of a document value.  Floats, float arrays and
    lists are written as orjson writes them, with a line break between the
    items of a list of lists, so that an array and the list it loads back as
    give the same text; each item of an object takes its own line; other
    values are written by ``json.dumps`` (ASCII, integers of any size).
    Raises ValueError on a NaN or infinite float, and TypeError on an object
    key that is not a string."""
    # imported here: a top-level import slowed grid-ops, which writes no
    # file, by about 5 % (see _decode)
    import orjson

    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            # a new C-contiguous float64 array, as orjson requires (+ 0.0
            # alone keeps a transposed layout), with -0.0 turned into 0.0
            arr = np.ascontiguousarray(obj, dtype=float) + 0.0
            if not np.isfinite(arr).all():
                raise ValueError(NON_FINITE)
            # the text of an array holds no strings: every "],[" joins two rows;
            # in one expression, orjson's text is freed before the join
            return b"],\n[".join(
                orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY).split(b"],["))
        obj = obj.tolist()
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"object key {key!r} is not a string")
        return b"{" + b",\n".join(json.dumps(key).encode() + b": " + _encode(value)
                                  for key, value in obj.items()) + b"}"
    if isinstance(obj, (list, tuple)):
        items = [_encode(value) for value in obj]
        rows = all(item.startswith(b"[") for item in items)
        return b"[" + (b",\n" if rows else b",").join(items) + b"]"
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(NON_FINITE)
        return orjson.dumps(float(obj) + 0.0)
    return json.dumps(int(obj) if isinstance(obj, np.integer) else obj).encode()


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
    """Write the net, its quantities and metadata as a version-2 net file.

    Raises ValueError ("non-finite value cannot be serialized") on a NaN or
    infinite float anywhere in the document, and TypeError on a metadata
    value JSON has no form for or a metadata key that is not a string.
    """
    data = _encode(net_to_document(net, quantities, metadata)) + b"\n"
    with open(path, "wb") as fh:
        fh.write(data)


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
#: Every byte but the five that nest or bound strings: [ ] { } and the quote.
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def _depth(data: bytes) -> int:
    """How deep the ASCII JSON text nests arrays and objects, counted outside
    its strings; exact up to its first invalid escape, where decoders stop."""
    if b"\\" in data:  # without escaped backslashes and quotes, quotes bound strings
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = np.frombuffer(data.translate(None, _NOT_MARKS), dtype=np.uint8)
    outside = np.cumsum(marks == 34) % 2 == 0
    return int(np.cumsum(_STEP[marks] * outside).max(initial=0))


def _decode(data: bytes):
    """The value json.loads gives for the ASCII file bytes read as text,
    decoded by orjson where it agrees."""
    if _depth(data) <= _ORJSON_DEPTH:
        # imported here: a process that reads no net file neither waits the
        # 6-8 ms of this import nor carries the 0.5 MB it adds
        import orjson

        try:
            doc = orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
        else:
            if not (isinstance(doc, dict) and _holds_wide_float(_scalar_values(doc))):
                return doc
    # universal newlines, as a file opened in text mode reads: json counts
    # lines at "\n" alone
    return json.loads(data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n"))


def _ascii(data: bytes) -> bytes:
    """The bytes, if they are ASCII; raises UnicodeDecodeError, naming the
    offset of the first byte that is not."""
    if not data.isascii():
        data.decode("ascii")
    return data


def load_net(path):
    """Load (net, quantities, metadata) from a net file of format version
    1 or 2.

    The bytes are decoded by orjson, and by json where orjson refuses them,
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
        with open(path, "rb") as fh:
            doc = _decode(_ascii(fh.read()))
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
    if _require(doc, "version", path) not in READ_VERSIONS:
        raise ParseError(f"{path}: unsupported version {doc['version']}")
    try:
        rows, cols = (int(_require(doc, key, path)) for key in ("rows", "cols"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: grid size is not an integer ({exc})") from exc
    if rows < 1 or cols < 1:
        raise ParseError(f"{path}: grid size must be positive")

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
    net = IsothermicNet(VertexField(lifts), EdgeFunction(a_u, a_v))

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
