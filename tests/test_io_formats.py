import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from linrestrict import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    Network,
    Normalize,
    ParseError,
    ReLU,
    SchemaError,
    ShapeError,
    exactline_network,
    export_partitions,
    load_network,
    save_network,
)
from linrestrict.analysis import ClassSegment, DensityReport
from linrestrict.attributions import AttributionReport, SampleSearchResult
from oracle_utils import loan_network, loan_query

LOAN_DOC = {
    "schema_version": 1,
    "input_shape": [2],
    "layers": [
        {"type": "dense", "weights": [[-1.7, 1.0], [2.0, -1.3]], "bias": [3, 3]},
        {"type": "relu"},
    ],
}


def _write(tmp_path, doc, name="net.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


CONV_LAYER = {
    "type": "conv2d",
    "kernel": [[[[1.0]]]],
    "bias": [0.0],
    "stride": [1, 1],
    "padding": [0, 0],
}
POOL_LAYER = {"type": "maxpool", "window": [2, 2], "stride": [1, 1]}


def _image_doc(layer):
    return {"schema_version": 1, "input_shape": [1, 4, 4], "layers": [layer]}


POOL_WHERE = r"layer 0 \(maxpool\): field "

MALFORMED_INT_TUPLES = [
    pytest.param(dict(LOAN_DOC, input_shape="12"), "'input_shape'", id="shape-string"),
    pytest.param(dict(LOAN_DOC, input_shape=[2.7]), "'input_shape'", id="shape-float"),
    pytest.param(
        _image_doc(dict(POOL_LAYER, window="22", stride=[1.9, 1])),
        POOL_WHERE + "'window'",
        id="window-string",
    ),
    pytest.param(
        _image_doc(dict(POOL_LAYER, stride=[2, 2, 7])), POOL_WHERE + "'stride'", id="stride-3"
    ),
    pytest.param(
        _image_doc(dict(POOL_LAYER, window=[True, 2])), POOL_WHERE + "'window'", id="window-bool"
    ),
    pytest.param(
        _image_doc(dict(CONV_LAYER, stride=[1])),
        r"layer 0 \(conv2d\): field 'stride'",
        id="conv-stride-1",
    ),
]


def _dense_doc(**fields):
    layer = dict({"type": "dense", "weights": [[1.0, 1.0]], "bias": [0.0]}, **fields)
    return {"schema_version": 1, "input_shape": [2], "layers": [layer]}


def _not_numbers(doc, tag, field, id):
    where = rf"layer 0 \({tag}\): field '{field}' must be a nested list of numbers"
    return pytest.param(doc, SchemaError, where, id=id)


NORMALIZE_DOC = {
    "schema_version": 1,
    "input_shape": [2],
    "layers": [{"type": "normalize", "mean": [0.0, 0.0], "std": [True, True]}],
}

MALFORMED_FLOAT_PAYLOADS = [
    _not_numbers(_dense_doc(weights=[[True, 1.0]]), "dense", "weights", "weights-bool"),
    _not_numbers(_dense_doc(weights=[["1", 1.0]]), "dense", "weights", "weights-str-entry"),
    _not_numbers(_dense_doc(bias=[False]), "dense", "bias", "bias-bool"),
    _not_numbers(_dense_doc(weights="12"), "dense", "weights", "weights-str"),
    _not_numbers(_dense_doc(weights=[[None, 1.0]]), "dense", "weights", "weights-null"),
    _not_numbers(NORMALIZE_DOC, "normalize", "std", "std-bool"),
    _not_numbers(
        _image_doc(dict(CONV_LAYER, kernel=[[[["1.0"]]]])), "conv2d", "kernel", "kernel-str"
    ),
    pytest.param(
        _dense_doc(weights=[[10**400, 1.0]]), SchemaError, "malformed", id="weights-overflow"
    ),
    # ragged lists and wrong dimensions keep their own errors
    pytest.param(
        _dense_doc(weights=[[1.0], [2.0, 3.0]]), SchemaError, "malformed", id="weights-ragged"
    ),
    pytest.param(_dense_doc(weights=[1.0, 1.0]), ShapeError, "2-D weight", id="weights-1d"),
]


def _not_a_record(value, id, k=0):
    doc = dict(LOAN_DOC, layers=[{"type": "relu"}] * k + [value])
    return pytest.param(doc, f"layer {k}: record must be an object", id=id)


MALFORMED_RECORDS = [
    _not_a_record(5, "record-number"),
    _not_a_record(None, "record-null"),
    _not_a_record("relu", "record-string"),  # not a record missing its 'type'
    _not_a_record([{"type": "relu"}], "second-record-list", k=1),
    pytest.param(
        dict(LOAN_DOC, layers=[{"type": ["dense"]}]),
        "layer 0: field 'type' must be a string",
        id="type-list",
    ),
    pytest.param(
        dict(LOAN_DOC, layers=[{"type": None}]),
        "layer 0: field 'type' must be a string",
        id="type-null",
    ),
    pytest.param(
        dict(LOAN_DOC, schema_version=True), "schema_version true unsupported", id="version-true"
    ),
    pytest.param(
        dict(LOAN_DOC, schema_version=1.0), "schema_version 1.0 unsupported", id="version-float"
    ),
    pytest.param(
        dict(LOAN_DOC, schema_version="1"), 'schema_version "1" unsupported', id="version-str"
    ),
]

SIX_LAYER_DOC = """\
{
 "input_shape": [
  1,
  2,
  2
 ],
 "layers": [
  {
   "mean": [
    0.5
   ],
   "std": [
    2.0
   ],
   "type": "normalize"
  },
  {
   "bias": [
    0.0
   ],
   "kernel": [
    [
     [
      [
       2.0
      ]
     ]
    ]
   ],
   "padding": [
    0,
    0
   ],
   "stride": [
    1,
    1
   ],
   "type": "conv2d"
  },
  {
   "type": "relu"
  },
  {
   "stride": [
    1,
    1
   ],
   "type": "maxpool",
   "window": [
    2,
    2
   ]
  },
  {
   "type": "flatten"
  },
  {
   "bias": [
    0.0,
    1.0
   ],
   "type": "dense",
   "weights": [
    [
     1.5
    ],
    [
     -0.25
    ]
   ]
  }
 ],
 "schema_version": 1
}
"""


# json.dumps cannot repeat a key, so these documents are written as text
REPEATED_KEYS = [
    (
        '{"schema_version": 1, "input_shape": [2], "layers": [{"type": "dense", '
        '"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0, 0], '
        '"weights": [[2.0, 0.0], [0.0, 2.0]]}]}',
        "repeated key 'weights' in a dense layer record",
    ),
    (
        '{"schema_version": 1, "input_shape": [2], "layers": [{"type": "relu"}], '
        '"layers": [{"type": "flatten"}]}',
        "repeated key 'layers' in a document object",
    ),
]


class TestLoadNetwork:
    @pytest.mark.parametrize("doc,error,match", MALFORMED_FLOAT_PAYLOADS)
    def test_malformed_float_payload(self, tmp_path, doc, error, match):
        with pytest.raises(error, match=match):
            load_network(_write(tmp_path, doc))

    @pytest.mark.parametrize("doc,message", MALFORMED_RECORDS)
    def test_malformed_record_is_schema_error(self, tmp_path, doc, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_network(_write(tmp_path, doc))

    @pytest.mark.parametrize("doc,where", MALFORMED_INT_TUPLES)
    def test_malformed_int_tuple_is_schema_error(self, tmp_path, doc, where):
        with pytest.raises(SchemaError, match=where):
            load_network(_write(tmp_path, doc))

    def test_loan_document(self, tmp_path):
        net = load_network(_write(tmp_path, LOAN_DOC))
        assert len(net.layers) == 2
        assert isinstance(net.layers[0], Dense)
        assert isinstance(net.layers[1], ReLU)
        assert np.array_equal(net.layers[0].weights, [[-1.7, 1.0], [2.0, -1.3]])

    def test_unknown_layer_tag(self, tmp_path):
        doc = dict(LOAN_DOC, layers=[{"type": "gelu"}])
        with pytest.raises(SchemaError, match="gelu"):
            load_network(_write(tmp_path, doc))

    def test_bias_length_mismatch_is_shape_error(self, tmp_path):
        doc = dict(
            LOAN_DOC,
            layers=[{"type": "dense", "weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [1, 2, 3]}],
        )
        with pytest.raises(ShapeError):
            load_network(_write(tmp_path, doc))

    def test_parse_error_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"schema_version": 1,\n  "input_shape": [2,]\n}')
        with pytest.raises(ParseError, match="line 2"):
            load_network(p)

    @pytest.mark.parametrize(
        "literal,message",
        [
            ("NaN", "non-finite numeric literal 'NaN'"),
            ("1e400", "layer 0 (dense): field 'weights' holds a non-finite number"),
            ("-1e999", "layer 0 (dense): field 'weights' holds a non-finite number"),
        ],
        ids=["NaN", "1e400", "-1e999"],
    )
    def test_nonfinite_payload_rejected(self, tmp_path, literal, message):
        p = tmp_path / "nan.json"
        p.write_text(
            '{"schema_version": 1, "input_shape": [1], '
            f'"layers": [{{"type": "dense", "weights": [[{literal}]], "bias": [0]}}]}}'
        )
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_network(p)

    def test_undecodable_file_is_parse_error(self, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe" + json.dumps(LOAN_DOC).encode("utf-16-le"))
        with pytest.raises(ParseError, match=re.escape(f"{p}: not UTF-8 text")):
            load_network(p)

    @pytest.mark.parametrize("text,message", REPEATED_KEYS, ids=["layer-field", "root-layers"])
    def test_repeated_key_is_schema_error(self, tmp_path, text, message):
        p = tmp_path / "repeated.json"
        p.write_text(text)
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_network(p)

    def test_wrong_schema_version(self, tmp_path):
        with pytest.raises(SchemaError, match="schema_version"):
            load_network(_write(tmp_path, dict(LOAN_DOC, schema_version=2)))

    def test_missing_field_named(self, tmp_path):
        doc = dict(LOAN_DOC, layers=[{"type": "dense", "weights": [[1.0]]}])
        with pytest.raises(SchemaError, match="bias"):
            load_network(_write(tmp_path, doc))

    def test_unexpected_field_named(self, tmp_path):
        doc = dict(LOAN_DOC, layers=[{"type": "relu", "slope": 0.1}])
        with pytest.raises(SchemaError, match="slope"):
            load_network(_write(tmp_path, doc))

    def test_save_network_text(self, tmp_path):
        net = Network(
            (1, 2, 2),
            (
                Normalize([0.5], [2.0]),
                Conv2D([[[[2.0]]]], [0.0], (1, 1), (0, 0)),
                ReLU(),
                MaxPool((2, 2), (1, 1)),
                Flatten(),
                Dense([[1.5], [-0.25]], [0.0, 1.0]),
            ),
        )
        p = tmp_path / "six.json"
        save_network(net, p)
        assert p.read_text() == SIX_LAYER_DOC

    def test_save_unknown_layer_is_shape_error(self, tmp_path):
        class Scaled:
            pass

        p = tmp_path / "net.json"
        with pytest.raises(ShapeError, match="layer 1: unknown layer type Scaled"):
            net = Network((2,), (Dense(np.eye(2), np.zeros(2)), Scaled()))
            save_network(net, p)
        assert not p.exists()

    def test_network_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        net = Network(
            (2, 4, 4),
            (
                Normalize(rng.normal(0, 1, 2), rng.uniform(0.5, 2, 2)),
                Conv2D(rng.normal(0, 1, (3, 2, 2, 2)), rng.normal(0, 1, 3), (1, 1), (1, 1)),
                ReLU(),
                MaxPool((2, 2), (2, 2)),
                Flatten(),
                Dense(rng.normal(0, 1, (4, 12)), rng.normal(0, 1, 4)),
            ),
        )
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_network(net, p1)
        loaded = load_network(p1)
        save_network(loaded, p2)
        assert p1.read_text() == p2.read_text()
        for a, b in zip(net.layers, loaded.layers):
            for field in ("weights", "bias", "kernel", "mean", "std"):
                if hasattr(a, field):
                    assert np.array_equal(getattr(a, field), getattr(b, field))


def _traced(fn, *args):
    """`fn(*args)` and the peak of the memory traced while it ran, above
    what was traced when it started."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


LAYER_COUNTS = (2, 8)


@pytest.fixture(scope="module")
def saved_dense_nets(tmp_path_factory):
    """Networks of 2 and 8 dense 256x256 layers, saved under tracemalloc:
    {layer count: (path, peak bytes of save_network)}."""
    rng = np.random.default_rng(0)
    out = {}
    for n in LAYER_COUNTS:
        layers = tuple(
            Dense(rng.normal(size=(256, 256)), rng.normal(size=256)) for _ in range(n)
        )
        path = tmp_path_factory.mktemp("nets") / f"dense{n}.json"
        out[n] = (path, _traced(save_network, Network((256,), layers), path)[1])
    return out


class TestDocumentMemory:
    def test_save_peak_does_not_grow_with_layers(self, saved_dense_nets):
        peak = {n: saved_dense_nets[n][1] for n in LAYER_COUNTS}
        assert peak[8] <= 1.25 * peak[2], peak

    def test_load_peak_does_not_grow_with_layers(self, saved_dense_nets):
        # the file is held twice while it is decoded (bytes, then text);
        # beyond that and the returned arrays, nothing may grow with depth
        rest = {}
        for n in LAYER_COUNTS:
            path = saved_dense_nets[n][0]
            net, peak = _traced(load_network, path)
            arrays = sum(l.weights.nbytes + l.bias.nbytes for l in net.layers)
            rest[n] = peak - 2 * os.path.getsize(path) - arrays
        one_layer = 256 * 257 * 8
        assert rest[8] <= rest[2] + one_layer, rest


REPORT_EXPORTS = [
    (
        AttributionReport("exact", np.array([0.1, -0.2]), 1e-12, float("nan"), None, 3),
        '{\n "completeness_gap_abs": 1e-12,\n "completeness_gap_rel": null,\n'
        ' "kind": "attribution_report",\n "method": "exact",\n "partitions_used": 3,\n'
        ' "samples": null,\n "values": [\n  0.1,\n  -0.2\n ]\n}\n',
        "dimension,value\n0,0.10000000000000001\n1,-0.20000000000000001\n",
    ),
    (
        AttributionReport("trapezoid", np.array([1.0 / 3.0]), 0.25, 0.5, 8, None),
        '{\n "completeness_gap_abs": 0.25,\n "completeness_gap_rel": 0.5,\n'
        ' "kind": "attribution_report",\n "method": "trapezoid",\n'
        ' "partitions_used": null,\n "samples": 8,\n'
        ' "values": [\n  0.3333333333333333\n ]\n}\n',
        "dimension,value\n0,0.33333333333333331\n",
    ),
    (
        DensityReport(3, 2.0, 1.5, None),
        '{\n "density": 1.5,\n "gradient_deviation": null,\n "kind": "density_report",\n'
        ' "length": 2.0,\n "partition_count": 3\n}\n',
        "partition_count,length,density,gradient_deviation\n3,2,1.5,\n",
    ),
    (
        DensityReport(4, 0.1, 40.0, 0.7),
        '{\n "density": 40.0,\n "gradient_deviation": 0.7,\n "kind": "density_report",\n'
        ' "length": 0.1,\n "partition_count": 4\n}\n',
        "partition_count,length,density,gradient_deviation\n"
        "4,0.10000000000000001,40,0.69999999999999996\n",
    ),
    (
        SampleSearchResult(None, 0.05, 5, 1000),
        '{\n "cap": 1000,\n "kind": "sample_search",\n "m": null,\n'
        ' "stability_window": 5,\n "tolerance": 0.05\n}\n',
        "m,tolerance,stability_window,cap\n,0.050000000000000003,5,1000\n",
    ),
    (
        SampleSearchResult(21, 0.05, 5, 1000),
        '{\n "cap": 1000,\n "kind": "sample_search",\n "m": 21,\n'
        ' "stability_window": 5,\n "tolerance": 0.05\n}\n',
        "m,tolerance,stability_window,cap\n21,0.050000000000000003,5,1000\n",
    ),
]


class TestExports:
    def test_loan_tabular_has_four_rows(self, tmp_path):
        part = exactline_network(loan_network(), loan_query())
        out = tmp_path / "parts.csv"
        export_partitions(part, out, "tabular")
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha,preimage_0,preimage_1,postimage_0,postimage_1"
        assert len(lines) == 5

    def test_tabular_floats_reparse_identically(self, tmp_path):
        part = exactline_network(loan_network(), loan_query())
        out = tmp_path / "parts.csv"
        export_partitions(part, out, "tabular")
        rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
        alphas = np.array([float(r[0]) for r in rows])
        post = np.array([[float(v) for v in r[3:5]] for r in rows])
        assert np.array_equal(alphas, part.alphas)
        assert np.array_equal(post, part.postimages)

    def test_structured_roundtrip_bit_exact(self, tmp_path):
        part = exactline_network(loan_network(), loan_query())
        out = tmp_path / "parts.json"
        export_partitions(part, out, "structured")
        doc = json.loads(out.read_text())
        assert doc["kind"] == "partitioned_line"
        assert np.array_equal(np.array(doc["alphas"]), part.alphas)
        assert np.array_equal(np.array(doc["postimages"]), part.postimages)
        assert np.array_equal(np.array(doc["preimages"]), part.preimages)

    def test_class_segments_tabular(self, tmp_path):
        segs = [ClassSegment(0.0, 0.5, 1), ClassSegment(0.5, 1.0, 0)]
        out = tmp_path / "segs.csv"
        export_partitions(segs, out, "tabular")
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha_lo,alpha_hi,class"
        assert len(lines) == 3
        assert lines[1].endswith(",1")

    def test_reports_roundtrip(self, tmp_path):
        for obj, structured, tabular in REPORT_EXPORTS:
            p = tmp_path / "report.json"
            export_partitions(obj, p, "structured")
            assert p.read_text() == structured
            p2 = tmp_path / "report.csv"
            export_partitions(obj, p2, "tabular")
            assert p2.read_text() == tabular

    def test_structured_nonfinite_is_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        # what exact_ig returned on an overflowing net before it raised NumericError
        overflowed = AttributionReport("exact", np.array([np.inf]), np.nan, np.nan, None, 1)
        nan_array = AttributionReport(
            "left", np.array([np.nan, 1e300, -np.inf]), np.inf, np.nan, 5, None
        )
        p = tmp_path / "report.json"
        export_partitions(overflowed, p)
        doc = json.loads(p.read_text(), parse_constant=reject)
        assert doc["values"] == [None]
        assert doc["completeness_gap_abs"] is None and doc["partitions_used"] == 1
        export_partitions(nan_array, p)
        doc = json.loads(p.read_text(), parse_constant=reject)
        assert doc["values"] == [None, 1e300, None]
        assert doc["completeness_gap_abs"] is None and doc["completeness_gap_rel"] is None

    def test_failed_export_leaves_no_file(self, tmp_path):
        p = tmp_path / "report.json"
        unencodable = DensityReport(3, 2.0, 1.5, object())
        with pytest.raises(TypeError, match="not JSON serializable"):
            export_partitions(unencodable, p)
        assert not p.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_partitions(
                exactline_network(loan_network(), loan_query()),
                tmp_path / "x",
                "yaml",
            )
