"""Exact linear restrictions of piecewise-linear networks along input lines.

Partition an input segment so the network is affine on every piece, then
use the partition for exact decision-boundary segmentation, exact
integrated gradients with sampling audits, and linear-partition density
analysis.
"""

from .analysis import (
    ClassSegment,
    DensityReport,
    decision_segments,
    fgsm_direction,
    gradient_deviation,
    partition_density,
    random_direction,
)
from .attributions import (
    AttributionReport,
    SampleSearchResult,
    exact_ig,
    find_m_tilde,
    relative_error,
    riemann_ig,
    samples_to_tolerance,
)
from .errors import (
    CountError,
    DegenerateError,
    DimensionError,
    LinRestrictError,
    ParseError,
    QueryError,
    RangeError,
    SchemaError,
    ShapeError,
    UndefinedError,
)
from .exactline import (
    INPUT_ORIGIN,
    LineQuery,
    PartitionedLine,
    canonicalize,
    check_partitioned_line,
    exactline_maxpool,
    exactline_network,
    exactline_pwl_hyperplanes,
    exactline_relu_maxpool,
    interpolate_output,
)
from .io_formats import export_partitions, load_network, save_network
from .network import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    Network,
    Normalize,
    ReLU,
    batch_forward,
    batch_gradient,
    forward,
    gradient,
    validate_network,
)

__version__ = "0.1.0"

__all__ = [
    "AttributionReport",
    "ClassSegment",
    "Conv2D",
    "CountError",
    "DegenerateError",
    "Dense",
    "DensityReport",
    "DimensionError",
    "Flatten",
    "INPUT_ORIGIN",
    "LineQuery",
    "LinRestrictError",
    "MaxPool",
    "Network",
    "Normalize",
    "ParseError",
    "PartitionedLine",
    "QueryError",
    "RangeError",
    "ReLU",
    "SampleSearchResult",
    "SchemaError",
    "ShapeError",
    "UndefinedError",
    "batch_forward",
    "batch_gradient",
    "canonicalize",
    "check_partitioned_line",
    "decision_segments",
    "exact_ig",
    "exactline_maxpool",
    "exactline_network",
    "exactline_pwl_hyperplanes",
    "exactline_relu_maxpool",
    "export_partitions",
    "fgsm_direction",
    "find_m_tilde",
    "forward",
    "gradient",
    "gradient_deviation",
    "interpolate_output",
    "load_network",
    "partition_density",
    "random_direction",
    "relative_error",
    "riemann_ig",
    "samples_to_tolerance",
    "save_network",
    "validate_network",
]
