"""Exception types shared across the package.

Every error carries a stable one-word ``code`` so the CLI can print
uniform one-line diagnostics and map failures to exit codes.
"""


class LinRestrictError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ShapeError(LinRestrictError):
    """Tensor or layer shapes are inconsistent."""

    code = "shape-error"


class SchemaError(LinRestrictError):
    """A network document violates the on-disk schema."""

    code = "schema-error"


class ParseError(LinRestrictError):
    """A network document is not syntactically valid."""

    code = "parse-error"


class QueryError(LinRestrictError):
    """A line query is degenerate (identical endpoints) or malformed."""

    code = "query-error"


class RangeError(LinRestrictError):
    """A ratio argument lies outside [0, 1]."""

    code = "range-error"


class CountError(LinRestrictError):
    """A sample count, sample cap, stability window or tolerance is out of range."""

    code = "count-error"


class DimensionError(LinRestrictError):
    """The network output has too few dimensions for the analysis."""

    code = "dimension-error"


class UndefinedError(LinRestrictError):
    """A metric is undefined because its normalizer is zero."""

    code = "undefined-error"


class DegenerateError(LinRestrictError):
    """The endpoint outputs coincide, so the search target is degenerate."""

    code = "degenerate-error"


class NumericError(LinRestrictError):
    """A result holds an infinity or a NaN, as when a value overflows float64."""

    code = "numeric-error"
