"""Exception hierarchy shared by all cubeinterest modules."""


class CubeInterestError(Exception):
    """Base class for every error raised by this package."""


# --- dimension / hierarchy errors -------------------------------------------

class LevelNotInDimension(CubeInterestError):
    pass


class LevelBelowMember(CubeInterestError):
    """Requested an ancestor at a level finer than the member's own."""


class LevelAboveMember(CubeInterestError):
    """Requested descendants at a level coarser than the member's own."""


class UnknownMember(CubeInterestError):
    pass


class InconsistentRollup(CubeInterestError):
    """A member is mapped to two different parents in the input rows."""


class EmptyFile(CubeInterestError):
    pass


# --- cube / query errors ------------------------------------------------------

class UnknownMeasure(CubeInterestError):
    pass


class UnknownLevel(CubeInterestError):
    pass


class MalformedFactRow(CubeInterestError):
    """A CSV row is shorter than its header, or a fact or expectation row
    holds a measure or expected value that is not a finite number."""


class DuplicateCoordinates(CubeInterestError):
    """The fact table holds two rows with the same coordinate tuple."""


class DimensionMismatch(CubeInterestError):
    pass


class SchemaMismatch(CubeInterestError):
    """Two queries do not share the same base cube / dimension set."""


# --- parser errors ------------------------------------------------------------

class PositionedError(CubeInterestError):
    """Error anchored to a byte offset in the parsed text."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        suffix = f" at offset {position}"
        if self.expected:
            suffix += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(message + suffix)


class ParseError(PositionedError):
    """Malformed input text (grammar violation)."""


class UnknownIdentifier(PositionedError):
    """Well-formed text referencing an unknown level/member/measure."""


class DuplicateDimensionAtom(PositionedError):
    """A selection condition filters the same dimension twice."""


class ProbabilityOutOfRange(PositionedError):
    pass


class OverlappingIntervals(CubeInterestError):
    pass


class GapInCoverage(CubeInterestError):
    pass


# --- context errors -----------------------------------------------------------

class HistoryConsistencyError(CubeInterestError):
    """A cached result does not match the re-evaluated query."""


# --- metric errors --------------------------------------------------------------

class LevelMismatch(CubeInterestError):
    """Same-level treatment requested for queries at different levels."""


class EmptyCollection(CubeInterestError):
    pass


class EmptyResult(CubeInterestError):
    pass


class KOutOfRange(CubeInterestError):
    pass


class PairLimitExceeded(CubeInterestError):
    """A pairwise cell-distance computation would exceed the configured cap."""


class NoExpectedValues(CubeInterestError):
    """No measure of the cell has a registered expected value; the caller
    is expected to exclude the cell rather than fail."""


class UnlabeledValue(CubeInterestError):
    """A measure value falls outside every interval of its labeling scheme."""


class NominalLooseUnsupported(CubeInterestError):
    """Loose label surprise needs a label domain with a distance."""


class MetricComputationError(CubeInterestError):
    """Wraps a module error with the name of the metric being computed."""

    def __init__(self, metric, cause):
        self.metric = metric
        self.cause = cause
        super().__init__(f"{metric}: {cause}")
