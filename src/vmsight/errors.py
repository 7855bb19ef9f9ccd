"""Typed errors raised by the vmsight library.

Every domain failure maps to one subclass of VmsightError so callers (and
the CLI) can branch on the error name rather than parsing messages.
"""


class VmsightError(Exception):
    """Base class for all vmsight domain errors."""


# corpus I/O
class ParseError(VmsightError):
    pass


class EmptyCorpus(VmsightError):
    pass


class IoError(VmsightError):
    pass


# identification
class PeriodMismatch(VmsightError, ValueError):
    pass  # a ValueError too, so a DB file whose references mix periods is a ParseError


class TooShort(VmsightError):
    pass


class NoReferenceForMetric(VmsightError):
    pass


class NoUsableMetrics(VmsightError):
    pass


class InsufficientReferences(VmsightError):
    pass


# metric selection
class ConstantSeries(VmsightError):
    pass


class LengthMismatch(VmsightError):
    pass


class InsufficientData(VmsightError):
    pass


# neural regression
class Diverged(VmsightError):
    pass


class DimensionMismatch(VmsightError):
    pass


class NonFiniteInput(VmsightError):
    pass


# degradation pipeline
class UnknownApplication(VmsightError):
    pass


class MissingModel(VmsightError):
    pass


class MissingProfile(VmsightError):
    pass


# simulation / experiments
class ConfigInvalid(VmsightError):
    pass


class UnknownTemplate(VmsightError):
    pass
