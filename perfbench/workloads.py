"""The four seeded workloads: networks, queries, query calls and checks.

Every workload is a fixed list of distinct queries over a few networks,
which make a save_network / load_network round trip before use.  The
networks are the model under test and are drawn from a fixed seed, the
same in every run: runs with different seeds are compared with each
other, and the cost of a query depends on the network's draw.  The run's
seed draws the lines, output indices and random directions.

Each workload cycles through an odd number of equally weighted kinds of
query (one network each), so its median and 90th-percentile latency fall
inside one kind rather than on the boundary between two, whatever order
the kinds' costs take.

Library entry points are always looked up through their module at call
time (``analysis.decision_segments(...)``), never bound by name here, so
that the tracer in ``layertrace.py`` sees every call it wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from linrestrict import analysis, attributions, exactline, io_formats
from linrestrict.network import Conv2D, Dense, Flatten, MaxPool, Network, ReLU

import checks


@dataclass(frozen=True)
class Query:
    net: int  # index into Workload.nets
    start: np.ndarray
    end: np.ndarray
    output_index: int
    noise_seed: int  # dense_lines only: random comparison direction


@dataclass
class Workload:
    name: str
    nets: list[Network]
    queries: list[Query]
    trace_queries: int  # prefix of `queries` that one traced pass runs
    run: Callable[[Network, Query], Any]
    check: Callable[[Network, Query, Any], list[str]]


# ---------------------------------------------------------------------------
# Network builders


def _dense(rng, sizes, bias_scale=0.1):
    layers = []
    for i in range(len(sizes) - 1):
        w = rng.normal(0.0, 1.0, (sizes[i + 1], sizes[i])) / np.sqrt(sizes[i])
        layers.append(Dense(w, rng.normal(0.0, bias_scale, sizes[i + 1])))
        if i < len(sizes) - 2:
            layers.append(ReLU())
    return layers


def _conv(rng, out_ch, in_ch, k=3, pad=1, stride=1):
    fan_in = in_ch * k * k
    kernel = rng.normal(0.0, 1.0, (out_ch, in_ch, k, k)) / np.sqrt(fan_in)
    return Conv2D(kernel, rng.normal(0.0, 0.1, out_ch), (stride, stride), (pad, pad))


def _dense_lines(depth, width, inputs=32):
    def build(rng):
        return Network((inputs,), tuple(_dense(rng, [inputs] + [width] * depth + [10])))

    return build


def _conv_relu(rng):
    # the acceptance criterion-9 net shrunk to a 2x10x10 input
    return Network(
        (2, 10, 10),
        (
            _conv(rng, 16, 2),
            ReLU(),
            _conv(rng, 12, 16),
            ReLU(),
            Flatten(),
            *_dense(rng, [12 * 10 * 10, 10]),
        ),
    )


def _conv_pool(window, stride, pools):
    """2x8x8 input, two 4-channel convs, each ReLU followed by `pools`
    max-pool layers in total (one after the last ReLU when pools == 1)."""

    def build(rng):
        layers = [_conv(rng, 4, 2), ReLU()]
        shape = 8
        if pools == 2:
            layers.append(MaxPool(window, stride))
            shape = (shape - window[0]) // stride[0] + 1
        layers += [_conv(rng, 4, 4), ReLU(), MaxPool(window, stride)]
        shape = (shape - window[0]) // stride[0] + 1
        layers += [Flatten(), *_dense(rng, [4 * shape * shape, 10])]
        return Network((2, 8, 8), tuple(layers))

    return build


def _ig_dense(rng):
    return Network((32,), tuple(_dense(rng, [32, 64, 64, 10])))


def _ig_conv(rng):
    # the second conv has stride 2: at stride 1 one query took about 0.5 s
    # and 100 queries did not fit in a run
    return Network(
        (1, 8, 8),
        (
            _conv(rng, 8, 1),
            ReLU(),
            _conv(rng, 8, 8, stride=2),
            ReLU(),
            Flatten(),
            *_dense(rng, [8 * 4 * 4, 10]),
        ),
    )


# ---------------------------------------------------------------------------
# Query calls


# short-line step for the FGSM-style and random comparison directions
FGSM_EPSILON = 0.5

# sample-search settings: tight enough that a minority of searches hit the cap
IG_TOL = 0.04
IG_STABILITY = 3
IG_CAP = 30


def _run_dense_lines(net, q):
    line = exactline.LineQuery(q.start, q.end)
    k = q.output_index
    adv = analysis.fgsm_direction(net, q.start, FGSM_EPSILON, k)
    rnd = analysis.random_direction(q.start, FGSM_EPSILON, q.noise_seed)
    return {
        "segments": analysis.decision_segments(net, line),
        "density": analysis.partition_density(net, line),
        "deviation": analysis.gradient_deviation(net, line, k),
        "ig": attributions.exact_ig(net, q.start, q.end, k),
        "fgsm_end": adv,
        "fgsm_density": analysis.partition_density(net, exactline.LineQuery(q.start, adv)),
        "random_end": rnd,
        "random_density": analysis.partition_density(
            net, exactline.LineQuery(q.start, rnd)
        ),
    }


def _run_partition(net, q):
    return exactline.exactline_network(net, exactline.LineQuery(q.start, q.end))


def _run_fused_and_unfused(net, q):
    line = exactline.LineQuery(q.start, q.end)
    return {
        "fused": exactline.exactline_network(net, line, fuse_relu_maxpool=True),
        "unfused": exactline.exactline_network(net, line, fuse_relu_maxpool=False),
    }


def _run_ig_audit(net, q):
    b, x, k = q.start, q.end, q.output_index
    return {
        "ig": attributions.exact_ig(net, b, x, k),
        "left": attributions.samples_to_tolerance(
            net, b, x, k, "left", IG_TOL, IG_STABILITY, IG_CAP
        ),
        "trapezoid": attributions.samples_to_tolerance(
            net, b, x, k, "trapezoid", IG_TOL, IG_STABILITY, IG_CAP
        ),
        "m_tilde": attributions.find_m_tilde(net, b, x, k, IG_TOL, IG_CAP),
    }


# ---------------------------------------------------------------------------
# Output checks (see checks.py)


def _check_dense_lines(net, q, out):
    line = exactline.LineQuery(q.start, q.end)
    part = exactline.exactline_network(net, line)
    canonical = exactline.canonicalize(part)
    deviation = out["deviation"]
    return (
        checks.check_partition(net, part)
        + checks.check_density(out["density"], q.start, q.end, canonical.n_partitions)
        + checks.check_segments(net, line, out["segments"])
        + checks.check_ig(net, q.start, q.end, q.output_index, out["ig"])
        + ([] if deviation >= 0.0 and np.isfinite(deviation) else ["bad gradient deviation"])
        + checks.check_density(out["fgsm_density"], q.start, out["fgsm_end"])
        + checks.check_density(out["random_density"], q.start, out["random_end"])
    )


def _check_partition(net, q, out):
    return checks.check_partition(net, out)


def _check_fused_and_unfused(net, q, out):
    return checks.check_partition(net, out["fused"]) + checks.check_partition(
        net, out["unfused"]
    )


def _check_ig_audit(net, q, out):
    b, x, k = q.start, q.end, q.output_index
    exact = out["ig"]
    search = (IG_TOL, IG_STABILITY, IG_CAP, exact)
    return (
        checks.check_ig(net, b, x, k, exact)
        + checks.check_search(net, b, x, k, "left", *search, out["left"])
        + checks.check_search(net, b, x, k, "trapezoid", *search, out["trapezoid"])
        + checks.check_m_tilde(net, b, x, k, IG_TOL, IG_CAP, out["m_tilde"])
    )


# ---------------------------------------------------------------------------
# Workload table


@dataclass(frozen=True)
class Spec:
    kinds: tuple  # network builders, one per kind of query
    run: Callable
    check: Callable
    queries: int  # distinct queries; at least 100 so p90 has ten beyond it
    trace_queries: int
    point_scale: float = 1.0
    zero_start: bool = False  # integrated gradients from the all-zero baseline


SPECS = {
    # depth 3-6 and width 64-256
    "dense_lines": Spec(
        (_dense_lines(4, 64), _dense_lines(6, 128), _dense_lines(3, 256)),
        _run_dense_lines, _check_dense_lines, 360, 24, point_scale=2.0,
    ),
    "conv_relu": Spec((_conv_relu,), _run_partition, _check_partition, 104, 16),
    # the 5x5 window has 25 elements: past the size where pairwise crossing
    # searches, quadratic in the window, stop paying off
    "conv_pool": Spec(
        (_conv_pool((2, 2), (2, 2), 2), _conv_pool((3, 3), (2, 2), 1),
         _conv_pool((5, 5), (3, 3), 1)),
        _run_fused_and_unfused, _check_fused_and_unfused, 126, 24,
    ),
    # two dense queries to one conv query: the median falls among the dense
    # queries and the 90th percentile among the conv ones, which take most
    # of the time
    "ig_audit": Spec(
        (_ig_dense, _ig_conv, _ig_dense),
        _run_ig_audit, _check_ig_audit, 216, 18, zero_start=True,
    ),
}


def _queries(spec: Spec, nets, rng) -> list[Query]:
    """Lines from a N(0, point_scale^2) start towards a second such point,
    stretched by a factor between 1/2 and 2: the spread of line lengths
    spreads the query costs, so a percentile moves smoothly, not in steps,
    when the machine slows down for part of a run."""
    out = []
    for i in range(spec.queries):
        net_idx = i % len(nets)
        shape = nets[net_idx].input_shape
        start = rng.normal(0.0, spec.point_scale, shape)
        if spec.zero_start:
            start = np.zeros(shape)
        other = rng.normal(0.0, spec.point_scale, shape)
        stretch = 2.0 ** rng.uniform(-1.0, 1.0)
        out.append(
            Query(
                net=net_idx,
                start=start,
                end=start + stretch * (other - start),
                output_index=int(rng.integers(10)),
                noise_seed=int(rng.integers(2**31)),
            )
        )
    return out


#: draws the networks; fixed so every run measures the same model
NETWORK_SEED = 20190819


def _rng(name: str, seed: int, stream: int):
    return np.random.default_rng([seed, sorted(SPECS).index(name), stream])


def _document(workdir: Path, name: str, i: int) -> Path:
    return workdir / f"{name}-{i}.json"


def write_documents(name: str, workdir: Path) -> None:
    """Draw the workload's networks and save their documents."""
    rng = _rng(name, NETWORK_SEED, 0)
    for i, build in enumerate(SPECS[name].kinds):
        io_formats.save_network(build(rng), _document(workdir, name, i))


def load(name: str, seed: int, workdir: Path) -> Workload:
    """Load the networks written by `write_documents` and generate the
    queries from `seed`; this is the set-up a user of the library pays."""
    spec = SPECS[name]
    nets = []
    while _document(workdir, name, len(nets)).is_file():
        nets.append(io_formats.load_network(_document(workdir, name, len(nets))))
    queries = _queries(spec, nets, _rng(name, seed, 1))
    return Workload(name, nets, queries, spec.trace_queries, spec.run, spec.check)
