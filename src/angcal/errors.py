"""Exception types shared across the package.

Every failure raised on purpose by this package derives from
:class:`AngcalError`, so callers can catch one base class at the CLI
boundary and map it to an exit code. Also here: `_require_count`, the one
check of a size or count, `_is_real`, the one type test of a real-valued
setting, and `_is_finite_real`, which also requires a finite float value:
every angle, Sigma-norm, Platt parameter and Gaussian-expectation scale
passes it, so a bool or text value raises `ContractError` rather than a
bare `TypeError`.

Every public array argument becomes floats, or raises `ContractError`,
through one of three helpers: `_real_array`, `_finite_array` and `_label_array`.
`calibrators` and `observable` share two checks built on them:
`_logits_and_labels` and `_checked_sigma_norm`.
"""

import math
import numbers

import numpy as np


class AngcalError(Exception):
    """Base class for all package-specific failures."""


class ContractError(AngcalError):
    """Inputs violate an operation's calling contract (shapes, emptiness, ranges)."""


class SingularCovariance(AngcalError):
    """Covariance is numerically singular relative to its largest eigenvalue."""


class IngestError(AngcalError):
    """CSV ingestion failed; carries a 1-based (row, col) location when known."""

    def __init__(self, message, row=None, col=None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.col = col


class FitError(AngcalError):
    """Optimization produced a non-finite objective or failed to converge."""


class SingularSystem(AngcalError):
    """A linear system that should be positive definite could not be factorized."""


class DegenerateModel(AngcalError):
    """Model state unusable for the requested operation (e.g. zero norm weight)."""


class DegenerateHoldout(AngcalError):
    """Holdout set cannot identify the requested quantity (e.g. one-class labels)."""


class CollinearIndices(AngcalError):
    """Fitted index directions are numerically collinear in the Sigma inner product."""


class OutputError(AngcalError):
    """A report file could not be written; the run's files written so far are removed."""


def _require_count(value, what: str, minimum: int) -> None:
    """ContractError unless value is an integer (Python or numpy, not a bool) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ContractError(f"{what} must be an integer of at least {minimum}, got {value!r}")


def _is_real(value) -> bool:
    """Whether value is a real number (Python or numpy), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """Whether value is a real number (not a bool) of finite float value; an int beyond the float range is not."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _real_array(values, what: str) -> np.ndarray:
    """values as a float64 array; ContractError for text, None, ints past 64 bits and complex numbers."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "biuf":  # a cast would drop an imaginary part with only a warning
        raise ContractError(f"{what} must be real numbers")
    return array.astype(np.float64, copy=False)


def _finite_array(values, what: str) -> np.ndarray:
    """`_real_array(values, what)`, or ContractError unless every entry is finite."""
    array = _real_array(values, what)
    if not np.all(np.isfinite(array)):
        raise ContractError(f"{what} must be finite")
    return array


def _label_array(labels, what: str = "labels") -> np.ndarray:
    """`_real_array(labels, what)`, or ContractError unless every entry is 0 or 1."""
    array = _real_array(labels, what)
    if not np.all((array == 0) | (array == 1)):
        raise ContractError(f"{what} must be 0 or 1")
    return array


def _logits_and_labels(logits, labels, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """Matching nonempty 1-D float arrays of finite logits and 0/1 labels, or ContractError."""
    logits = _finite_array(logits, "logits")
    labels = _label_array(labels)
    if logits.ndim != 1 or logits.shape != labels.shape or logits.size == 0:
        raise ContractError(f"{caller} expects matching nonempty 1-D logits and labels")
    return logits, labels


def _checked_sigma_norm(sigma_norm) -> None:
    """ContractError unless sigma_norm is a finite real; DegenerateModel unless it is positive."""
    if not _is_finite_real(sigma_norm):
        raise ContractError(f"sigma_norm must be a finite real, got {sigma_norm!r}")
    if sigma_norm <= 0:
        raise DegenerateModel("sigma_norm must be positive")
