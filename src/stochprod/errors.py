"""Exception types raised across the package."""


class StochprodError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(StochprodError):
    """Operands do not have compatible shapes."""


class NegativeEntry(StochprodError):
    """A matrix entry is negative where nonnegativity is required."""

    def __init__(self, row: int, col: int, value: float):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry ({row}, {col}) = {value} is negative")


class NonFiniteEntry(StochprodError):
    """A matrix entry is NaN or infinite."""

    def __init__(self, row: int, col: int, value: float):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry ({row}, {col}) = {value} is not finite")


class RowSumViolation(StochprodError):
    """A row of a stochastic matrix does not sum to one."""

    def __init__(self, row: int, total: float):
        self.row, self.total = row, total
        super().__init__(f"row {row} sums to {total}, expected 1 within 1e-12")


class EmptySequence(StochprodError):
    """A nonempty sequence of matrices was required."""


class InvalidDistribution(StochprodError):
    """A probability vector or transition matrix is malformed."""


class EnumerationTooLarge(StochprodError):
    """Exact enumeration would exceed the configured budget."""


class Reducible(StochprodError):
    """The transition matrix is reducible; no unique stationary distribution."""


class NoCertificate(StochprodError):
    """No contraction horizon up to the requested maximum certifies decay."""

    def __init__(self, horizon_max: int):
        self.horizon_max = horizon_max
        super().__init__(f"no contraction certificate up to horizon {horizon_max}")


class NoScramblingWindow(StochprodError):
    """The window product is scrambling with probability zero."""


class NoConnectedWindow(StochprodError):
    """The window composition is strongly connected with probability zero."""


class InsufficientData(StochprodError):
    """Too few usable points to fit a decay rate."""


class NotReachable(StochprodError):
    """A vertex is not reachable from the requested root."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is not reachable from the root")


class NoInNeighbor(StochprodError):
    """A vertex has no in-neighbor, so it has nothing to average."""


class InconsistentBlock(StochprodError):
    """An agent's local equations admit no solution."""


class InconsistentSystem(StochprodError):
    """The stacked linear system admits no solution."""


class MissingSelfArc(StochprodError):
    """Every candidate graph of a graph-sequence model must contain all
    self-arcs."""


class ConfigParse(StochprodError):
    """An experiment configuration file could not be parsed or is invalid."""
