"""On-disk formats: the network document schema and result exports.

Networks are stored as a versioned JSON document::

    {"schema_version": 1,
     "input_shape": [2],
     "layers": [{"type": "dense", "weights": [[...], ...], "bias": [...]},
                {"type": "relu"},
                {"type": "conv2d", "kernel": [[[[...]]]], "bias": [...],
                 "stride": [1, 1], "padding": [0, 0]},
                {"type": "maxpool", "window": [2, 2], "stride": [2, 2]},
                {"type": "normalize", "mean": [...], "std": [...]},
                {"type": "flatten"}]}

``schema_version`` is the JSON integer 1.  A layer record is a JSON
object holding its ``type`` tag (a string) and exactly the fields of that
layer's dataclass in ``network``.  ``stride``, ``padding`` and ``window``
are lists of two integers; every other field is a nested list of finite
numbers (booleans, strings and nulls are not numbers), and dense weights
are row-major (one inner list per output unit).  A literal that
overflows float64, such as ``1e400``, is a schema error naming its layer
and field.  Unknown layer tags are rejected, and so is a key repeated
within one JSON object.  Exports are either structured (self-describing
JSON) or tabular (CSV with a header row); a report's keys and columns are
its dataclass fields.  Tabular floats are printed with 17 significant
digits so every value re-parses to the identical 64-bit float.  Every
JSON document written is strict JSON: a non-finite float (NaN or an
infinity) is written as ``null``.

Files are read and written as UTF-8, whatever the locale.  Documents are
handled one array at a time: the writer streams the encoder's chunks to
the file and turns an array into nested lists only when the encoder
reaches it, and the reader turns each layer's lists into arrays as soon
as the parser closes that layer's record.  The writer never holds the
document's text, the reader holds it once (and its bytes while decoding
them), and neither keeps more than one array's Python lists alive, so
their memory beyond the file and the arrays does not grow with the
number of layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import ClassSegment, DensityReport
from .attributions import AttributionReport, SampleSearchResult
from .errors import ParseError, SchemaError
from .exactline import PartitionedLine
from .network import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    Network,
    Normalize,
    ReLU,
)

SCHEMA_VERSION = 1

_LAYER_TYPES = {
    "dense": Dense,
    "conv2d": Conv2D,
    "maxpool": MaxPool,
    "normalize": Normalize,
    "relu": ReLU,
    "flatten": Flatten,
}
_INT_PAIRS = {"stride", "padding", "window"}  # every other layer field is a float array


def _read_text(path) -> str:
    """The file at `path` decoded as UTF-8, whatever the locale's encoding."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None


def _reject_nonfinite(token):
    raise SchemaError(f"non-finite numeric literal {token!r} in document")


def _check_fields(record, k: int) -> str:
    if not isinstance(record, dict):
        raise SchemaError(f"layer {k}: record must be an object")
    if "type" not in record:
        raise SchemaError(f"layer {k}: missing field 'type'")
    tag = record["type"]
    if not isinstance(tag, str):
        raise SchemaError(f"layer {k}: field 'type' must be a string")
    if tag not in _LAYER_TYPES:
        raise SchemaError(f"layer {k}: unknown layer type {tag!r}")
    expected = {f.name for f in fields(_LAYER_TYPES[tag])}
    have = set(record) - {"type"}
    if have != expected:
        missing = expected - have
        extra = have - expected
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unexpected {sorted(extra)}")
        raise SchemaError(f"layer {k} ({tag}): " + ", ".join(parts))
    return tag


def _int_tuple(value, where: str, length: int | None = None) -> tuple[int, ...]:
    """`value`, which must be a JSON list of integers, as a tuple."""
    if not isinstance(value, list) or any(
        type(v) is not int for v in value  # bool is an int subclass; reject it
    ):
        raise SchemaError(f"{where} must be a list of integers")
    if length is not None and len(value) != length:
        raise SchemaError(f"{where} must have {length} entries, got {len(value)}")
    return tuple(value)


def _float_array(value, where: str) -> np.ndarray:
    """`value`, which must be a JSON number or nested lists of finite numbers."""
    if isinstance(value, np.ndarray):  # converted by _document_object
        return value
    level = [value]
    while True:  # one pass per nesting depth, over every item at that depth
        types = set(map(type, level))
        if not types <= {list, int, float}:  # bool is not an int here
            raise SchemaError(f"{where} must be a nested list of numbers")
        if types != {list}:  # leaves, or mixed depths that np.array rejects
            break
        level = list(chain.from_iterable(level))
    arr = np.array(value, dtype=np.float64)
    if not np.isfinite(arr).all():  # a literal such as 1e400 parses to inf
        raise SchemaError(f"{where} holds a non-finite number (float64 overflow)")
    return arr


def _document_object(pairs: list) -> dict:
    """`json.loads` object pairs hook: a layer record's payloads as arrays.

    A key repeated within one object is a schema error; a plain dict would
    keep its last value.  The parser calls the hook as it closes each
    object, so a layer's nested lists of Python floats are freed before
    the next layer is parsed.  A payload that does not convert is left as
    parsed, for `_build_layer` to report with the layer's index.
    """
    record = dict(pairs)
    tag = record.get("type")
    is_layer = isinstance(tag, str) and tag in _LAYER_TYPES
    if len(record) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for k in keys if keys.count(k) > 1)
        where = f"a {tag} layer record" if is_layer else "a document object"
        raise SchemaError(f"repeated key {key!r} in {where}")
    if is_layer:
        for f in fields(_LAYER_TYPES[tag]):
            if f.name in record and f.name not in _INT_PAIRS:
                try:
                    record[f.name] = _float_array(record[f.name], f.name)
                except (SchemaError, ValueError, OverflowError):
                    pass
    return record


def _build_layer(record, k: int):
    tag = _check_fields(record, k)
    cls = _LAYER_TYPES[tag]

    def value(name):
        where = f"layer {k} ({tag}): field {name!r}"
        if name in _INT_PAIRS:
            return _int_tuple(record[name], where, 2)
        return _float_array(record[name], where)

    try:  # converted inside the try, so a ragged float payload is a SchemaError
        return cls(**{f.name: value(f.name) for f in fields(cls)})
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"layer {k} ({tag}): malformed payload: {exc}") from None


def load_network(path) -> Network:
    """Load and validate a network document; its layers are kept as written."""
    text = _read_text(path)
    try:
        doc = json.loads(
            text, parse_constant=_reject_nonfinite, object_pairs_hook=_document_object
        )
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    for field in ("schema_version", "input_shape", "layers"):
        if field not in doc:
            raise SchemaError(f"missing field {field!r}")
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1 in Python
        raise SchemaError(
            f"schema_version {json.dumps(version)} unsupported (expected {SCHEMA_VERSION})"
        )
    if not isinstance(doc["layers"], list):
        raise SchemaError("field 'layers' must be a list")
    layers = tuple(_build_layer(rec, k) for k, rec in enumerate(doc["layers"]))
    return Network(_int_tuple(doc["input_shape"], "field 'input_shape'"), layers)


def _layer_record(layer) -> dict:
    record = {"type": next(t for t, cls in _LAYER_TYPES.items() if isinstance(layer, cls))}
    return record | {f.name: getattr(layer, f.name) for f in fields(layer)}


def save_network(net: Network, path) -> None:
    """Write `net` as a network document."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input_shape": net.input_shape,
        "layers": [_layer_record(l) for l in net.layers],
    }
    _write_json(doc, path)


# ---------------------------------------------------------------------------
# Result exports


def _f17(v: float) -> str:
    return format(v, ".17g")  # NaN prints as "nan", whatever its sign


def _cell(v) -> str:
    """One tabular report cell: a float with 17 digits, None as empty."""
    if v is None:
        return ""
    return _f17(v) if isinstance(v, float) else str(v)


_REPORT_KINDS = {
    AttributionReport: "attribution_report",
    DensityReport: "density_report",
    SampleSearchResult: "sample_search",
}


def _is_segments(obj) -> bool:
    return (
        isinstance(obj, list) and bool(obj) and all(isinstance(s, ClassSegment) for s in obj)
    )


def _strict(v):
    """`v` with tuples as lists and every non-finite float as None (null),
    as JSON.stringify writes it, so the document is strict JSON.  Arrays are
    left for `_strict_array`."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    return v


def _strict_array(v):
    """JSON encoder hook: an array as its strict nested list, built only
    when the encoder reaches it, so one array's list is alive at a time."""
    if not isinstance(v, np.ndarray):
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    return v.tolist() if np.isfinite(v).all() else _strict(v.tolist())


def _write_json(doc, target) -> None:
    encoder = json.JSONEncoder(
        sort_keys=True, indent=1, allow_nan=False, default=_strict_array
    )
    _write_chunks(chain(encoder.iterencode(_strict(doc)), ["\n"]), target)


def _write_text(lines, target) -> None:
    _write_chunks((line + "\n" for line in lines), target)


def _write_chunks(chunks, target) -> None:
    """Write the strings `chunks` to `target`, an open text file or a path.
    A path is written as UTF-8; a write that fails part way removes it."""
    if hasattr(target, "write"):
        target.writelines(chunks)
        return
    with open(target, "w", encoding="utf-8") as f:
        try:
            f.writelines(chunks)
        except BaseException:
            f.close()
            Path(target).unlink()
            raise


def _structured_doc(obj) -> dict:
    if isinstance(obj, PartitionedLine):
        n = obj.n_endpoints
        return {
            "kind": "partitioned_line",
            "query": {"from": obj.query.start.reshape(-1), "to": obj.query.end.reshape(-1)},
            "alphas": obj.alphas,
            "preimages": obj.preimages.reshape(n, -1),
            "postimages": obj.postimages.reshape(n, -1),
            "origin_layers": obj.origin_layers,
        }
    if _is_segments(obj):
        return {
            "kind": "class_segments",
            "segments": [
                {"alpha_lo": s.alpha_lo, "alpha_hi": s.alpha_hi, "class": s.class_index}
                for s in obj
            ],
        }
    if type(obj) not in _REPORT_KINDS:
        raise TypeError(f"cannot export object of type {type(obj).__name__}")
    doc = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {"kind": _REPORT_KINDS[type(obj)], **doc}


def _tabular_lines(obj) -> list[str]:
    if isinstance(obj, PartitionedLine):
        n = obj.n_endpoints
        pre = obj.preimages.reshape(n, -1)
        post = obj.postimages.reshape(n, -1)
        header = (
            ["alpha"]
            + [f"preimage_{i}" for i in range(pre.shape[1])]
            + [f"postimage_{i}" for i in range(post.shape[1])]
        )
        rows = zip(obj.alphas, pre, post)
        return [",".join(header)] + [",".join(map(_f17, (a, *p, *q))) for a, p, q in rows]
    if _is_segments(obj):
        rows = [f"{_f17(s.alpha_lo)},{_f17(s.alpha_hi)},{s.class_index}" for s in obj]
        return ["alpha_lo,alpha_hi,class"] + rows
    if isinstance(obj, AttributionReport):
        return ["dimension,value"] + [f"{i},{_f17(v)}" for i, v in enumerate(obj.values)]
    if type(obj) not in _REPORT_KINDS:
        raise TypeError(f"cannot export object of type {type(obj).__name__}")
    names = [f.name for f in fields(obj)]
    return [",".join(names), ",".join(_cell(getattr(obj, n)) for n in names)]


def export_partitions(obj, target, format: str = "structured") -> None:
    """Write a partition, segment list, or report to `target`.

    `target` is a path or open text file; `format` selects the
    self-describing JSON document or the comma-separated table.
    """
    if format == "structured":
        _write_json(_structured_doc(obj), target)
    elif format == "tabular":
        _write_text(_tabular_lines(obj), target)
    else:
        raise ValueError(f"unknown export format {format!r}")
