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

Dense weights are row-major (one inner list per output unit).  Unknown
layer tags are rejected, and so are float payloads that are not nested
lists of finite numbers (booleans, strings and nulls are not numbers)
and ``input_shape``, ``stride``, ``padding`` and ``window`` values that
are not lists of integers (each layer tuple has two).  Exports are
either structured (self-describing JSON) or tabular (CSV with a header
row); tabular floats are printed with 17 significant digits so every
value re-parses to the identical 64-bit float.
"""

from __future__ import annotations

import json
import math
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
    validate_network,
)

SCHEMA_VERSION = 1

_LAYER_FIELDS = {
    "dense": {"weights", "bias"},
    "conv2d": {"kernel", "bias", "stride", "padding"},
    "maxpool": {"window", "stride"},
    "normalize": {"mean", "std"},
    "relu": set(),
    "flatten": set(),
}


def _reject_nonfinite(token):
    raise SchemaError(f"non-finite numeric literal {token!r} in document")


def _check_fields(record: dict, k: int) -> str:
    if "type" not in record:
        raise SchemaError(f"layer {k}: missing field 'type'")
    tag = record["type"]
    if tag not in _LAYER_FIELDS:
        raise SchemaError(f"layer {k}: unknown layer type {tag!r}")
    expected = _LAYER_FIELDS[tag]
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
    """`value`, which must be a JSON number or nested lists of numbers."""
    level = [value]
    while True:  # one pass per nesting depth, over every item at that depth
        types = set(map(type, level))
        if not types <= {list, int, float}:  # bool is not an int here
            raise SchemaError(f"{where} must be a nested list of numbers")
        if types != {list}:  # leaves, or mixed depths that np.array rejects
            return np.array(value, dtype=np.float64)
        level = list(chain.from_iterable(level))


def _build_layer(record: dict, k: int):
    tag = _check_fields(record, k)

    def where(field):
        return f"layer {k} ({tag}): field {field!r}"

    def pair(field):
        return _int_tuple(record[field], where(field), 2)

    def floats(field):
        return _float_array(record[field], where(field))

    try:
        if tag == "dense":
            return Dense(floats("weights"), floats("bias"))
        if tag == "conv2d":
            return Conv2D(floats("kernel"), floats("bias"), pair("stride"), pair("padding"))
        if tag == "maxpool":
            return MaxPool(pair("window"), pair("stride"))
        if tag == "normalize":
            return Normalize(floats("mean"), floats("std"))
        if tag == "relu":
            return ReLU()
        return Flatten()
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"layer {k} ({tag}): malformed payload: {exc}") from None


def load_network(path) -> Network:
    """Load and validate a network document; its layers are kept as written."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text, parse_constant=_reject_nonfinite)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    for field in ("schema_version", "input_shape", "layers"):
        if field not in doc:
            raise SchemaError(f"missing field {field!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"schema_version {doc['schema_version']!r} unsupported (expected "
            f"{SCHEMA_VERSION})"
        )
    if not isinstance(doc["layers"], list):
        raise SchemaError("field 'layers' must be a list")
    layers = tuple(_build_layer(rec, k) for k, rec in enumerate(doc["layers"]))
    net = Network(_int_tuple(doc["input_shape"], "field 'input_shape'"), layers)
    validate_network(net)
    return net


def _layer_record(layer) -> dict:
    if isinstance(layer, Dense):
        return {
            "type": "dense",
            "weights": layer.weights.tolist(),
            "bias": layer.bias.tolist(),
        }
    if isinstance(layer, Conv2D):
        return {
            "type": "conv2d",
            "kernel": layer.kernel.tolist(),
            "bias": layer.bias.tolist(),
            "stride": list(layer.stride),
            "padding": list(layer.padding),
        }
    if isinstance(layer, MaxPool):
        return {
            "type": "maxpool",
            "window": list(layer.window),
            "stride": list(layer.stride),
        }
    if isinstance(layer, Normalize):
        return {"type": "normalize", "mean": layer.mean.tolist(), "std": layer.std.tolist()}
    if isinstance(layer, ReLU):
        return {"type": "relu"}
    return {"type": "flatten"}


def save_network(net: Network, path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input_shape": list(net.input_shape),
        "layers": [_layer_record(l) for l in net.layers],
    }
    _write_json(doc, path)


# ---------------------------------------------------------------------------
# Result exports


def _f17(v: float) -> str:
    if math.isnan(v):
        return "nan"
    return format(v, ".17g")


def _nan_to_none(v: float):
    return None if math.isnan(v) else v


def _write_json(doc, target) -> None:
    _write_text([json.dumps(doc, sort_keys=True, indent=1)], target)


def _write_text(lines, target) -> None:
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)


def _structured_doc(obj) -> dict:
    if isinstance(obj, PartitionedLine):
        n = obj.n_endpoints
        return {
            "kind": "partitioned_line",
            "query": {
                "from": obj.query.start.reshape(-1).tolist(),
                "to": obj.query.end.reshape(-1).tolist(),
            },
            "alphas": obj.alphas.tolist(),
            "preimages": obj.preimages.reshape(n, -1).tolist(),
            "postimages": obj.postimages.reshape(n, -1).tolist(),
            "origin_layers": obj.origin_layers.tolist(),
        }
    if isinstance(obj, list) and all(isinstance(s, ClassSegment) for s in obj) and obj:
        return {
            "kind": "class_segments",
            "segments": [
                {"alpha_lo": s.alpha_lo, "alpha_hi": s.alpha_hi, "class": s.class_index}
                for s in obj
            ],
        }
    if isinstance(obj, AttributionReport):
        return {
            "kind": "attribution_report",
            "method": obj.method,
            "samples": obj.samples,
            "partitions_used": obj.partitions_used,
            "values": obj.values.tolist(),
            "completeness_gap_abs": obj.completeness_gap_abs,
            "completeness_gap_rel": _nan_to_none(obj.completeness_gap_rel),
        }
    if isinstance(obj, DensityReport):
        return {
            "kind": "density_report",
            "partition_count": obj.partition_count,
            "length": obj.length,
            "density": obj.density,
            "gradient_deviation": obj.gradient_deviation,
        }
    if isinstance(obj, SampleSearchResult):
        return {
            "kind": "sample_search",
            "m": obj.m,
            "tolerance": obj.tolerance,
            "stability_window": obj.stability_window,
            "cap": obj.cap,
        }
    raise TypeError(f"cannot export object of type {type(obj).__name__}")


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
        lines = [",".join(header)]
        for i in range(n):
            row = [obj.alphas[i], *pre[i], *post[i]]
            lines.append(",".join(_f17(v) for v in row))
        return lines
    if isinstance(obj, list) and all(isinstance(s, ClassSegment) for s in obj) and obj:
        lines = ["alpha_lo,alpha_hi,class"]
        for s in obj:
            lines.append(f"{_f17(s.alpha_lo)},{_f17(s.alpha_hi)},{s.class_index}")
        return lines
    if isinstance(obj, AttributionReport):
        lines = ["dimension,value"]
        for i, v in enumerate(obj.values):
            lines.append(f"{i},{_f17(v)}")
        return lines
    if isinstance(obj, DensityReport):
        dev = "" if obj.gradient_deviation is None else _f17(obj.gradient_deviation)
        return [
            "partition_count,length,density,gradient_deviation",
            f"{obj.partition_count},{_f17(obj.length)},{_f17(obj.density)},{dev}",
        ]
    if isinstance(obj, SampleSearchResult):
        m = "" if obj.m is None else str(obj.m)
        return [
            "m,tolerance,stability_window,cap",
            f"{m},{_f17(obj.tolerance)},{obj.stability_window},{obj.cap}",
        ]
    raise TypeError(f"cannot export object of type {type(obj).__name__}")


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
