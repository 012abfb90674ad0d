"""Exception types shared across the package."""


class SptError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(SptError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateMaskRowError(SptError, ValueError):
    """An attention mask row has no admissible positions (all zeros)."""


class NonFiniteValueError(SptError, ArithmeticError):
    """An operation produced NaN or Inf while finite checks were enabled."""


class ConfigError(SptError, ValueError):
    """A configuration value is out of range or internally inconsistent."""


class SkeletonError(SptError, ValueError):
    """A skeleton definition violates its invariants.

    Carries the full violation list (a single message is a list of one) so
    callers can report every breach at once instead of fixing them one by one.
    """

    def __init__(self, violations):
        self.violations = [violations] if isinstance(violations, str) else list(violations)
        super().__init__("invalid skeleton: " + "; ".join(self.violations))


class AnnotationError(SptError, ValueError):
    """An annotation file failed to parse or validate.

    ``index`` is the offending record's position in the file, or None for
    file-level problems.
    """

    def __init__(self, message, index=None):
        self.index = index
        if index is not None:
            message = f"record {index}: {message}"
        super().__init__(message)


class FormatError(SptError, ValueError):
    """A file does not follow its on-disk format (SPT1 tensor, PGM image)."""


class CheckpointError(SptError, ValueError):
    """A checkpoint directory is missing pieces or inconsistent with its manifest."""


class NonFiniteLossError(SptError, ArithmeticError):
    """Training produced a non-finite loss; aborts with the offending batch index."""

    def __init__(self, batch_index, loss_value):
        self.batch_index = batch_index
        self.loss_value = loss_value
        super().__init__(
            f"non-finite loss {loss_value!r} at batch index {batch_index}"
        )
