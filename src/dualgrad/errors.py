"""Exception hierarchy shared across the package."""


class DualgradError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimension(DualgradError):
    """Shape or dimensionality constraint violated."""


class InvalidParameter(DualgradError):
    """A scalar parameter is outside its admissible range."""


class InvalidIndex(DualgradError):
    """A position or index set is out of range."""


class InvalidConfig(DualgradError):
    """An experiment or optimizer configuration is inconsistent."""


class InvalidDonor(DualgradError):
    """A perturbation donor violates the cross-path requirement."""


class NormalizationDegenerate(DualgradError):
    """The kernel attention normalization denominator vanished."""


class OverflowGuard(DualgradError):
    """Input norm too large for the exponential feature scaling."""


class EmptyCandidateSet(DualgradError):
    """Decoding was asked to choose from an empty candidate set."""


class DegenerateEmbedding(DualgradError):
    """A mean embedding has zero norm, so cosine similarity is undefined."""


class InsufficientHistory(DualgradError):
    """Collapse detection needs more iterations than are available."""


class ConstructionFailed(DualgradError):
    """Demonstration engineering could not satisfy its targets."""


class ParseError(DualgradError):
    """A config or CSV document is malformed."""


class EmptyData(DualgradError):
    """A plot was requested for a CSV with no data rows."""


class IoError(DualgradError):
    """A path could not be read or written."""
