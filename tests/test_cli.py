import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linrestrict
from linrestrict.cli import main

LOAN_JSON = json.dumps(
    {
        "schema_version": 1,
        "input_shape": [2],
        "layers": [
            {"type": "dense", "weights": [[-1.7, 1.0], [2.0, -1.3]], "bias": [3, 3]},
            {"type": "relu"},
        ],
    }
)


@pytest.fixture
def loan_path(tmp_path):
    p = tmp_path / "loan.net.json"
    p.write_text(LOAN_JSON)
    return str(p)


def _identity_net(tmp_path):
    p = tmp_path / "identity.net.json"
    p.write_text(json.dumps({
        "schema_version": 1,
        "input_shape": [1],
        "layers": [{"type": "dense", "weights": [[1.0]], "bias": [0.0]}],
    }))
    return str(p)


def _one_error_line(capsys, code):
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"{code}: ")
    return err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["exactline", "--from", "1,2,3", "--to", "30,50"],
        ["density", "--from", "20,30", "--to", "3"],
        ["ig", "--baseline", "0,0,0", "--input", "20,30", "--output-index", "1"],
        ["ig-samples", "--baseline", "0,0", "--input", "2", "--output-index", "1"],
        ["fgsm", "--input", "1,2,3", "--epsilon", "0.1", "--label", "1"],
    ],
)
def test_wrong_point_size_is_shape_error(loan_path, capsys, argv):
    code = main(argv[:1] + ["--network", loan_path] + argv[1:])
    assert code == 2
    msg = _one_error_line(capsys, "shape-error")
    assert "network input (2,)" in msg


UTF16 = b"\xff\xfe" + "0, 1".encode("utf-16-le")


@pytest.mark.parametrize(
    "argv",
    [
        ["exactline", "--network", "{bad}", "--from", "0", "--to", "1"],
        ["exactline", "--network", "{net}", "--from-file", "{bad}", "--to", "1,1"],
        ["sweep", "--network", "{net}", "--lines", "{bad}"],
    ],
    ids=["network", "point-file", "lines-file"],
)
def test_undecodable_file_is_one_parse_error_line(loan_path, tmp_path, capsys, argv):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(UTF16)
    code = main([a.format(bad=bad, net=loan_path) for a in argv])
    assert code == 2
    msg = _one_error_line(capsys, "parse-error")
    assert f"{bad}: not UTF-8 text: byte 0xff at offset 0" in msg


@pytest.mark.parametrize("point", ["1,,2", "1,2,", ",1,2", "1, ,2", ""])
def test_empty_field_in_point_is_usage_error(loan_path, capsys, point):
    code = main(["exactline", "--network", loan_path, f"--from={point}", "--to", "3,4"])
    assert code == 1
    assert "--from: empty field" in _one_error_line(capsys, "usage-error")


@pytest.mark.parametrize("text", ["1,,2\n", "1,2,\n", "1, 2,\n", ",1 2"])
def test_empty_field_in_point_file_names_the_file(loan_path, tmp_path, capsys, text):
    f = tmp_path / "from.txt"
    f.write_text(text)
    argv = ["exactline", "--network", loan_path, "--from-file", str(f), "--to", "3,4"]
    assert main(argv) == 2
    assert f"{f}: empty field" in _one_error_line(capsys, "error")


@pytest.mark.parametrize(
    "argv",
    [
        ["ig", "--method", "exact"],
        ["ig", "--method", "left", "--samples", "4"],
        ["ig-samples"],
        ["ig-samples", "--completeness"],
        ["density"],
    ],
    ids=["ig-exact", "ig-left", "ig-samples", "ig-samples-completeness", "density"],
)
@pytest.mark.parametrize("k", [5, -1])
def test_output_index_out_of_range_is_one_message(loan_path, capsys, argv, k):
    points = ["--from", "20,30", "--to", "30,50"] if argv[0] == "density" else [
        "--baseline", "20,30", "--input", "30,50"]
    code = main(argv[:1] + ["--network", loan_path, *points,
                            f"--output-index={k}", *argv[1:]])
    assert code == 2
    line = _one_error_line(capsys, "index-error")
    assert line == f"index-error: output index {k} out of range [0, 2)"


class TestExactline:
    def test_tabular_output(self, loan_path, tmp_path, capsys):
        out = tmp_path / "parts.csv"
        code = main(
            [
                "exactline",
                "--network", loan_path,
                "--from", "20,30",
                "--to", "30,50",
                "--canonical",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 4 endpoints
        alphas = [float(l.split(",")[0]) for l in lines[1:]]
        assert np.allclose(alphas, [0, 1 / 3, 2 / 3, 1], atol=1e-12)

    def test_negative_first_coordinate_needs_equals(self, loan_path, tmp_path, capsys):
        out = tmp_path / "neg.csv"
        argv = ["exactline", "--network", loan_path, "--out", str(out)]
        assert main(argv + ["--from=-1,0", "--to=1,1"]) == 0
        rows = out.read_text().strip().split("\n")
        assert [float(v) for v in rows[1].split(",")[1:3]] == [-1.0, 0.0]
        assert main(argv + ["--from", "-1,0", "--to", "1,1"]) == 1
        assert "expected one argument" in _one_error_line(capsys, "usage-error")

    def test_degenerate_query_is_usage_error(self, loan_path, capsys):
        code = main(
            ["exactline", "--network", loan_path, "--from", "20,30", "--to", "20,30"]
        )
        assert code == 1
        assert "query-error" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, loan_path, capsys):
        code = main(["exactline", "--network", loan_path, "--from", "20,30"])
        assert code == 1
        assert "usage-error" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(
            ["exactline", "--network", str(tmp_path / "nope.json"),
             "--from", "0,0", "--to", "1,1"]
        )
        assert code == 2
        assert "io-error" in capsys.readouterr().err

    def test_bad_schema_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"schema_version": 1, "input_shape": [1], "layers": [{"type": "gelu"}]}')
        code = main(["exactline", "--network", str(p), "--from", "0", "--to", "1"])
        assert code == 2
        assert "schema-error" in capsys.readouterr().err

    def test_malformed_pool_stride_is_one_schema_error_line(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"schema_version": 1, "input_shape": [1, 4, 4], "layers": '
            '[{"type": "maxpool", "window": [2, 2], "stride": [2, 2, 7]}]}'
        )
        code = main(["exactline", "--network", str(p), "--from", "0", "--to", "1"])
        assert code == 2
        assert "'stride'" in _one_error_line(capsys, "schema-error")

    def test_non_object_layer_record_is_one_schema_error_line(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"schema_version": 1, "input_shape": [1], "layers": [5]}')
        code = main(["exactline", "--network", str(p), "--from", "0", "--to", "1"])
        assert code == 2
        assert "layer 0: record must be an object" in _one_error_line(capsys, "schema-error")

    @pytest.mark.parametrize(
        "layers,key",
        [
            ('[{"type": "dense", "weights": [[1.0]], "bias": [0.0], "weights": [[2.0]]}]',
             "weights"),
            ('[{"type": "relu"}], "layers": [{"type": "flatten"}]', "layers"),
        ],
        ids=["layer-field", "root-layers"],
    )
    def test_repeated_key_is_one_schema_error_line(self, tmp_path, capsys, layers, key):
        # json.dumps cannot repeat a key, so the document is written as text
        p = tmp_path / "repeated.json"
        p.write_text(f'{{"schema_version": 1, "input_shape": [1], "layers": {layers}}}')
        code = main(["exactline", "--network", str(p), "--from", "0", "--to", "1"])
        assert code == 2
        assert f"repeated key {key!r}" in _one_error_line(capsys, "schema-error")

    def test_byte_identical_reruns(self, loan_path, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(
                ["exactline", "--network", loan_path, "--from", "20,30",
                 "--to", "30,50", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_point_files(self, loan_path, tmp_path):
        f1 = tmp_path / "q.txt"
        f2 = tmp_path / "r.txt"
        f1.write_text("20, 30\n")
        f2.write_text("30 50\n")
        out = tmp_path / "o.csv"
        code = main(
            ["exactline", "--network", loan_path, "--from-file", str(f1),
             "--to-file", str(f2), "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 5


class TestIG:
    def test_exact_completeness(self, loan_path, tmp_path):
        out = tmp_path / "ig.json"
        code = main(
            ["ig", "--network", loan_path, "--baseline", "20,30", "--input", "30,50",
             "--output-index", "1", "--method", "exact", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["completeness_gap_abs"] <= 1e-9
        assert abs(sum(doc["values"]) - (-4.0)) <= 1e-9

    def test_sampled_requires_samples_flag(self, loan_path, capsys):
        code = main(
            ["ig", "--network", loan_path, "--baseline", "20,30", "--input", "30,50",
             "--output-index", "1", "--method", "left"]
        )
        assert code == 1

    def test_exact_method_rejects_samples(self, loan_path, capsys):
        code = main(
            ["ig", "--network", loan_path, "--baseline", "20,30", "--input", "30,50",
             "--output-index", "1", "--method", "exact", "--samples", "100"]
        )
        assert code == 1
        assert "--samples" in _one_error_line(capsys, "usage-error")

    def test_sampled_method(self, loan_path, tmp_path):
        out = tmp_path / "ig.json"
        code = main(
            ["ig", "--network", loan_path, "--baseline", "20,30", "--input", "30,50",
             "--output-index", "1", "--method", "trapezoid", "--samples", "100",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["samples"] == 100

    def test_bad_output_index_is_computation_error(self, loan_path, capsys):
        code = main(
            ["ig", "--network", loan_path, "--baseline", "20,30", "--input", "30,50",
             "--output-index", "7", "--method", "exact"]
        )
        assert code == 2
        assert "index-error" in capsys.readouterr().err

    def test_failed_allocation_is_one_memory_error_line(self, loan_path, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(linrestrict.attributions, "riemann_ig", too_large)
        code = main(
            ["ig", "--network", loan_path, "--baseline", "20,30", "--input", "30,50",
             "--output-index", "1", "--method", "left", "--samples", "100000000000"]
        )
        assert code == 2
        assert "745. GiB" in _one_error_line(capsys, "memory-error")


class TestIGSamples:
    def test_error_search(self, loan_path, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["ig-samples", "--network", loan_path, "--baseline", "20,30",
             "--input", "30,50", "--output-index", "1", "--method", "trapezoid",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["m"] >= 1
        assert doc["cap"] == 1000

    def test_completeness_search(self, loan_path, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["ig-samples", "--network", loan_path, "--baseline", "20,30",
             "--input", "30,50", "--output-index", "1", "--completeness",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["m"] >= 1

    def test_negative_stability_is_count_error(self, loan_path, capsys):
        code = main(
            ["ig-samples", "--network", loan_path, "--baseline", "20,30",
             "--input", "30,50", "--output-index", "1", "--stability", "-1"]
        )
        assert code == 2
        assert "stability" in _one_error_line(capsys, "count-error")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
    @pytest.mark.parametrize("extra", [[], ["--completeness"]], ids=["error", "completeness"])
    def test_bad_tolerance_is_count_error(self, loan_path, capsys, tol, extra):
        code = main(
            ["ig-samples", "--network", loan_path, "--baseline", "20,30",
             "--input", "30,50", "--output-index", "1", f"--tolerance={tol}", *extra]
        )
        assert code == 2
        assert "tolerance" in _one_error_line(capsys, "count-error")

    @pytest.mark.parametrize("extra", [[], ["--completeness"]], ids=["error", "completeness"])
    def test_identical_endpoints_are_query_error(self, loan_path, capsys, extra):
        code = main(
            ["ig-samples", "--network", loan_path, "--baseline", "20,30",
             "--input", "20,30", "--output-index", "1", *extra]
        )
        assert code == 1
        _one_error_line(capsys, "query-error")

    @pytest.mark.parametrize(
        "extra",
        [["--method", "trapezoid"], ["--method", "right"], ["--stability", "50"],
         ["--stability", "5"]],
    )
    def test_completeness_rejects_error_search_flags(self, loan_path, capsys, extra):
        code = main(
            ["ig-samples", "--network", loan_path, "--baseline", "20,30",
             "--input", "30,50", "--output-index", "1", "--completeness", *extra]
        )
        assert code == 1
        assert "--completeness" in _one_error_line(capsys, "usage-error")

    def test_completeness_takes_left_method(self, loan_path, capsys):
        code = main(
            ["ig-samples", "--network", loan_path, "--baseline", "20,30",
             "--input", "30,50", "--output-index", "1", "--completeness",
             "--method", "left"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["stability_window"] == 0

    def test_error_search_defaults(self, loan_path, capsys):
        argv = ["ig-samples", "--network", loan_path, "--baseline", "20,30",
                "--input", "30,50", "--output-index", "1"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stability_window"] == 5
        assert main(argv + ["--method", "left", "--stability", "5"]) == 0
        assert json.loads(capsys.readouterr().out) == doc

class TestDensity:
    def test_density_with_deviation(self, loan_path, tmp_path):
        out = tmp_path / "d.json"
        code = main(
            ["density", "--network", loan_path, "--from", "20,30", "--to", "30,50",
             "--output-index", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["partition_count"] == 3
        assert abs(doc["density"] - 3 / np.sqrt(500)) <= 1e-12
        assert abs(doc["gradient_deviation"] - 1 / 3) <= 1e-12

    @pytest.mark.parametrize("to", ["1e-200", "1e160"])
    def test_density_at_extreme_scales(self, tmp_path, capsys, to):
        net = tmp_path / "identity.net.json"
        net.write_text(json.dumps({
            "schema_version": 1,
            "input_shape": [1],
            "layers": [{"type": "dense", "weights": [[1.0]], "bias": [0.0]}],
        }))
        code = main(["density", "--network", str(net), "--from=0", f"--to={to}"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["length"] == float(to)
        assert doc["density"] == 1.0 / float(to)

    def test_density_without_index_has_no_deviation(self, loan_path, tmp_path):
        out = tmp_path / "d.json"
        main(["density", "--network", loan_path, "--from", "20,30", "--to", "30,50",
              "--out", str(out)])
        assert json.loads(out.read_text())["gradient_deviation"] is None


class TestSweep:
    def test_ordered_output(self, loan_path, tmp_path):
        lines = tmp_path / "lines.txt"
        lines.write_text("20,30; 30,50\n# comment\n0,0; 10,0\n")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--network", loan_path, "--lines", str(lines),
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "line,alpha_lo,alpha_hi,class"
        idx = [int(r.split(",")[0]) for r in rows[1:]]
        assert idx == sorted(idx)
        assert set(idx) == {0, 1}

    @pytest.mark.parametrize(
        "bad, code, status",
        [
            ("1,2 ; 3,x", "error", 2),
            ("1,2 3,4", "error", 2),
            ("1,2,3 ; 3,4,5", "shape-error", 2),
            ("1,2 ; 1,2", "query-error", 1),
        ],
    )
    def test_bad_line_names_file_and_line(
        self, loan_path, tmp_path, capsys, bad, code, status
    ):
        lines = tmp_path / "lines.txt"
        lines.write_text(f"20,30; 30,50\n{bad}\n")
        assert main(["sweep", "--network", loan_path, "--lines", str(lines)]) == status
        assert f"{lines}:2: " in _one_error_line(capsys, code)


class TestFgsm:
    def test_point_output(self, loan_path, tmp_path):
        out = tmp_path / "f.json"
        code = main(
            ["fgsm", "--network", loan_path, "--input", "20,30", "--epsilon", "0.1",
             "--label", "1", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert np.allclose(doc["fgsm_point"], [19.9, 30.1])

    def test_compare_requires_seed(self, loan_path, capsys):
        code = main(
            ["fgsm", "--network", loan_path, "--input", "20,30", "--epsilon", "0.1",
             "--label", "1", "--compare-random"]
        )
        assert code == 1
        assert "usage-error" in capsys.readouterr().err

    def test_seed_without_compare_is_usage_error(self, loan_path, capsys):
        code = main(
            ["fgsm", "--network", loan_path, "--input", "20,30", "--epsilon", "0.1",
             "--label", "1", "--seed", "7"]
        )
        assert code == 1
        assert "--compare-random" in _one_error_line(capsys, "usage-error")

    def test_negative_seed_is_usage_error(self, loan_path, capsys):
        code = main(
            ["fgsm", "--network", loan_path, "--input", "1,2", "--epsilon", "0.1",
             "--label", "0", "--seed", "-1", "--compare-random"]
        )
        assert code == 1
        assert "--seed must be >= 0" in _one_error_line(capsys, "usage-error")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--epsilon", "nan"],
            ["--epsilon=-inf"],
            ["--epsilon", "inf", "--seed", "1", "--compare-random"],
        ],
        ids=["nan", "minus-inf", "inf-compare-random"],
    )
    def test_nonfinite_epsilon_is_query_error(self, loan_path, capsys, extra):
        argv = ["fgsm", "--network", loan_path, "--input", "20,30", "--label", "1"]
        assert main(argv + extra) == 1
        assert "must be finite" in _one_error_line(capsys, "query-error")

    def test_compare_random_reproducible(self, loan_path, tmp_path):
        docs = []
        for name in ("x.json", "y.json"):
            out = tmp_path / name
            code = main(
                ["fgsm", "--network", loan_path, "--input", "20,30",
                 "--epsilon", "0.5", "--label", "1", "--seed", "7",
                 "--compare-random", "--out", str(out)]
            )
            assert code == 0
            docs.append(out.read_text())
        assert docs[0] == docs[1]
        doc = json.loads(docs[0])
        assert "density_ratio" in doc
        assert doc["fgsm_density"]["kind"] == "density_report"


def _run_cli(argv):
    """Run the CLI in a child process, so its stderr holds what a user sees,
    warnings included."""
    # the child must import the same package as this process, installed or not
    src = str(Path(linrestrict.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "linrestrict.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point(loan_path):
    proc = _run_cli(
        ["exactline", "--network", loan_path, "--from", "20,30", "--to", "30,50"]
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["exactline", "--from=0", "--to=1e200"],
        ["ig", "--baseline=0", "--input=1e200", "--output-index", "0"],
        ["ig", "--baseline=0", "--input=1e200", "--output-index", "0",
         "--method", "left", "--samples", "4"],
        ["density", "--from=0", "--to=1e200"],
        ["density", "--from=0", "--to=5e-324"],
        ["fgsm", "--input=-1.7e308", "--epsilon", "1e308", "--label", "0"],
    ],
    ids=["exactline", "ig-exact", "ig-left", "density", "density-quotient", "fgsm"],
)
def test_overflow_is_one_numeric_error_line(tmp_path, argv):
    net = tmp_path / "overflow.net.json"
    net.write_text(json.dumps({
        "schema_version": 1,
        "input_shape": [1],
        "layers": [{"type": "dense", "weights": [[1e200]], "bias": [0.0]}],
    }))
    proc = _run_cli(argv[:1] + ["--network", str(net)] + argv[1:])
    assert proc.returncode == 2
    err = proc.stderr.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("numeric-error: non-finite ")


@pytest.mark.parametrize(
    "argv",
    [
        ["ig", "--baseline=-1e308", "--input=1e308", "--output-index", "0"],
        ["exactline", "--from=-1e308", "--to=1e308"],
        ["density", "--from=1e308", "--to=-1e308"],
    ],
    ids=["ig", "exactline", "density"],
)
def test_overflowing_direction_is_one_query_error_line(tmp_path, argv):
    proc = _run_cli(argv[:1] + ["--network", _identity_net(tmp_path)] + argv[1:])
    assert proc.returncode == 1
    err = proc.stderr.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("query-error: ")
    assert "overflows" in err[0]
