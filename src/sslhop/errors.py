"""Exception hierarchy shared across the package.

Every error type carries an ``exit_code`` consumed by the CLI: 3 for
problems attributable to inputs (bad files, bad shapes, degenerate data),
4 for violated internal invariants. The number rules that settings share
live here too, so every module can import them.
"""

import math
import numbers


def as_integer(name: str, value) -> int:
    """``value`` as an int; bool and non-integral values are refused."""
    if type(value) is int:     # the common case, without the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_seed(name: str, value) -> int:
    """``value`` as an int >= 0, used whole (see :func:`seed_entropy`)."""
    seed = as_integer(name, value)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return seed


def seed_entropy(seed: int, *keys: int) -> list[int]:
    """``[seed, *keys]`` as ``SeedSequence`` entropy, plus a word 0 for a
    seed of 2**32 or more, whose list would else pad to a smaller seed's:
    ``[2**32, 3, 0]`` and ``[0, 1, 3]`` are both ``[0, 1, 3, 0]``."""
    return [seed, *keys] + [0] * (seed >= 2**32)


def as_int_triple(name: str, value) -> tuple[int, int, int]:
    """``value``, a list or tuple of three integers, as a tuple of ints."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"{name} must be a list of 3 integers, got {value!r}")
    h, w, z = value
    return as_integer(name, h), as_integer(name, w), as_integer(name, z)


def as_finite(name: str, value):
    """``value``, unchanged, if it is a finite real number; bool, non-real
    and non-finite values are refused."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


class SslhopError(Exception):
    """Base class for all package errors."""

    exit_code = 3


# -- array geometry ----------------------------------------------------------

class ShapeMismatchError(SslhopError):
    pass


class OutOfBoundsError(SslhopError):
    pass


class WindowTooLargeError(SslhopError):
    pass


class IndexOutOfRangeError(SslhopError):
    pass


# -- statistics / fitting ----------------------------------------------------

class DegenerateInputError(SslhopError):
    pass


class SingleClassError(SslhopError):
    pass


class TooFewSamplesError(SslhopError):
    pass


class MissingClassError(SslhopError):
    pass


class NonFiniteValuesError(SslhopError):
    pass


class OneClassOnlyError(SslhopError):
    pass


class TooFewSubjectsError(SslhopError):
    pass


# -- files -------------------------------------------------------------------

class BadHeaderError(SslhopError):
    pass


class ChecksumMismatchError(SslhopError):
    pass


class CorruptFileError(SslhopError):
    pass


class VersionMismatchError(SslhopError):
    pass


class DuplicateSubjectError(SslhopError):
    pass


class UnknownLabelError(SslhopError):
    pass


class MissingFileError(SslhopError):
    pass


# -- internal invariants -----------------------------------------------------

class ShapeLedgerMismatchError(SslhopError):
    """A computed map shape disagrees with the dry-run shape ledger."""

    exit_code = 4


# -- warnings ----------------------------------------------------------------

class DegenerateInputWarning(RuntimeWarning):
    """Fit data had no residual variance; kernel padded with zero anchors."""


class ClusterCollapseWarning(RuntimeWarning):
    """k-means produced an empty cluster even after one re-seed."""
