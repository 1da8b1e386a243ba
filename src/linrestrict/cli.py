"""Command-line interface over network files and line queries.

Exit codes: 0 success, 1 usage error (bad flags or a degenerate query),
2 computation error (file, schema, shape, or metric failures).  Every
failure prints a single ``code: message`` line to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analysis, attributions, io_formats
from .errors import LinRestrictError, QueryError, ShapeError
from .exactline import LineQuery, canonicalize, exactline_network
from .network import _check_output_index


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _floats(text: str) -> np.ndarray:
    """The floats of `text`, separated by commas, whitespace or both.  An empty
    field (a comma must stand between two values) or a non-float is a ValueError."""
    fields = [t.split() for t in text.split(",")]
    if not all(fields):
        raise ValueError("empty field: a comma must stand between two values")
    return np.array([float(t) for words in fields for t in words])


def _shaped(x: np.ndarray, net, where: str) -> np.ndarray:
    size = math.prod(net.input_shape)
    if x.size != size:
        raise ShapeError(
            f"{where}: {x.size} values, network input {net.input_shape} needs {size}"
        )
    return x.reshape(net.input_shape)


def _point(args, flag: str, net) -> np.ndarray:
    """The floats (see `_floats`) of --<flag> or of the file --<flag>-file,
    shaped as the network input."""
    attr = flag.replace("-", "_")
    inline, path = getattr(args, attr), getattr(args, f"{attr}_file")
    if (inline is None) == (path is None):
        raise _UsageError(f"exactly one of --{flag} or --{flag}-file is required")
    try:
        x = _floats(inline if path is None else io_formats._read_text(path))
    except ValueError as exc:
        if path is None:
            raise _UsageError(f"--{flag}: {exc}") from None
        raise LinRestrictError(f"{path}: {exc}") from None
    return _shaped(x, net, f"--{flag}")


def _out(args):
    return sys.stdout if args.out is None else args.out


def _emit(obj, args):
    io_formats.export_partitions(obj, _out(args), args.format)


def _query(args, net):
    return LineQuery(_point(args, "from", net), _point(args, "to", net))


def _cmd_exactline(args, net) -> int:
    part = exactline_network(net, _query(args, net))
    if args.canonical:
        part = canonicalize(part)
    _emit(part, args)
    return 0


def _cmd_ig(args, net) -> int:
    if args.method == "exact" and args.samples is not None:
        raise _UsageError("--method exact takes no --samples")
    if args.method != "exact" and args.samples is None:
        raise _UsageError("--samples is required for sampling methods")
    baseline = _point(args, "baseline", net)
    x = _point(args, "input", net)
    if args.method == "exact":
        rep = attributions.exact_ig(net, baseline, x, args.output_index)
    else:
        rep = attributions.riemann_ig(
            net, baseline, x, args.output_index, args.samples, args.method
        )
    _emit(rep, args)
    return 0


def _cmd_ig_samples(args, net) -> int:
    if args.completeness and (
        args.method not in (None, "left") or args.stability is not None
    ):
        raise _UsageError(
            "--completeness searches the left sum: it takes no --stability "
            "and no --method other than left"
        )
    baseline = _point(args, "baseline", net)
    x = _point(args, "input", net)
    if args.completeness:
        res = attributions.find_m_tilde(
            net, baseline, x, args.output_index, tol=args.tolerance, cap=args.cap
        )
    else:
        res = attributions.samples_to_tolerance(
            net,
            baseline,
            x,
            args.output_index,
            scheme=args.method or "left",
            tol=args.tolerance,
            stability=5 if args.stability is None else args.stability,
            cap=args.cap,
        )
    _emit(res, args)
    return 0


def _cmd_density(args, net) -> int:
    query = _query(args, net)
    if args.output_index is not None:  # before anything is evaluated
        _check_output_index(net, args.output_index)
    rep = analysis.partition_density(net, query)
    if args.output_index is not None:
        rep.gradient_deviation = analysis.gradient_deviation(
            net, query, args.output_index
        )
    _emit(rep, args)
    return 0


def _parse_lines_file(path, net):
    queries = []
    for ln, raw in enumerate(io_formats._read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{ln}"
        try:
            left, right = line.split(";", 1)
            q, r = _floats(left), _floats(right)
        except ValueError:
            raise LinRestrictError(f"{where}: expected 'q1,q2,... ; r1,r2,...'") from None
        q, r = _shaped(q, net, where), _shaped(r, net, where)
        try:
            queries.append(LineQuery(q, r))
        except QueryError as exc:
            raise QueryError(f"{where}: {exc}") from None
    if not queries:
        raise LinRestrictError(f"{path}: no line queries found")
    return queries


def _cmd_sweep(args, net) -> int:
    queries = _parse_lines_file(args.lines, net)
    lines = ["line,alpha_lo,alpha_hi,class"]
    for i, q in enumerate(queries):
        segs = analysis.decision_segments(net, q)
        lines.extend(f"{i},{row}" for row in io_formats._tabular_lines(segs)[1:])
    io_formats._write_text(lines, _out(args))
    return 0


def _cmd_fgsm(args, net) -> int:
    if args.compare_random and args.seed is None:
        raise _UsageError("--seed is required with --compare-random")
    if args.seed is not None and not args.compare_random:
        raise _UsageError("--seed is taken only with --compare-random")
    if args.seed is not None and args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    x = _point(args, "input", net)
    adv = analysis.fgsm_direction(net, x, args.epsilon, args.label)
    doc = {
        "kind": "fgsm",
        "epsilon": args.epsilon,
        "label": args.label,
        "input": x.reshape(-1).tolist(),
        "fgsm_point": adv.reshape(-1).tolist(),
    }
    if args.compare_random:
        rnd = analysis.random_direction(x, args.epsilon, args.seed)
        fgsm_density = analysis.partition_density(net, LineQuery(x, adv))
        rnd_density = analysis.partition_density(net, LineQuery(x, rnd))
        doc["seed"] = args.seed
        doc["random_point"] = rnd.reshape(-1).tolist()
        doc["fgsm_density"] = io_formats._structured_doc(fgsm_density)
        doc["random_density"] = io_formats._structured_doc(rnd_density)
        doc["density_ratio"] = fgsm_density.density / rnd_density.density
    io_formats._write_json(doc, _out(args))
    return 0


def _add_point_flags(p, names):
    for name in names:
        p.add_argument(
            f"--{name}",
            default=None,
            help=f"{name} point, comma-separated; a point with a negative first "
            f"coordinate is written --{name}=-1,0",
        )
        p.add_argument(f"--{name}-file", default=None, help=f"file with the {name} point")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linrestrict")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)  # the flags every command takes
    common.add_argument("--network", required=True)
    common.add_argument("--out", default=None)

    def command(name, help):
        return sub.add_parser(name, parents=[common], help=help)

    p = command("exactline", "partition a line into linear pieces")
    _add_point_flags(p, ["from", "to"])
    p.add_argument("--canonical", action="store_true", help="minimize the partition")
    p.add_argument("--format", choices=["structured", "tabular"], default="tabular")
    p.set_defaults(fn=_cmd_exactline)

    p = command("ig", "integrated-gradient attributions")
    _add_point_flags(p, ["baseline", "input"])
    p.add_argument("--output-index", type=int, required=True)
    p.add_argument(
        "--method", choices=["exact", "left", "right", "trapezoid"], default="exact"
    )
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--format", choices=["structured", "tabular"], default="structured")
    p.set_defaults(fn=_cmd_ig)

    p = command("ig-samples", "samples needed for accurate attributions")
    _add_point_flags(p, ["baseline", "input"])
    p.add_argument("--output-index", type=int, required=True)
    p.add_argument(
        "--method",
        choices=["left", "right", "trapezoid"],
        default=None,
        help="Riemann scheme of the error search (default left)",
    )
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument(
        "--stability",
        type=int,
        default=None,
        help="error-search stability window (default 5)",
    )
    p.add_argument("--cap", type=int, default=1000)
    p.add_argument(
        "--completeness",
        action="store_true",
        help="search by completeness gap (left sum) instead of error vs exact",
    )
    p.add_argument("--format", choices=["structured", "tabular"], default="structured")
    p.set_defaults(fn=_cmd_ig_samples)

    p = command("density", "linear-partition density along a line")
    _add_point_flags(p, ["from", "to"])
    p.add_argument(
        "--output-index",
        type=int,
        default=None,
        help="also report gradient deviation for this output",
    )
    p.add_argument("--format", choices=["structured", "tabular"], default="structured")
    p.set_defaults(fn=_cmd_density)

    p = command("sweep", "decision segments for many lines")
    p.add_argument("--lines", required=True, help="file of 'q1,... ; r1,...' queries")
    p.set_defaults(fn=_cmd_sweep)

    p = command("fgsm", "signed-gradient perturbation (and comparison)")
    _add_point_flags(p, ["input"])
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--label", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--compare-random", action="store_true")
    p.set_defaults(fn=_cmd_fgsm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, io_formats.load_network(args.network))
    except _UsageError as exc:
        print(f"usage-error: {exc}", file=sys.stderr)
        return 1
    except QueryError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except LinRestrictError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except IndexError as exc:
        print(f"index-error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"memory-error: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
