"""Exception types shared across the package, and the argument contract.

Every public function checks its arguments before it does any work.  A
value of the wrong type, or outside its domain, raises ``ValueError`` with
one form of message, ``<name> must be <domain>, got <value>``: the name is
the parameter's, ``Class.field`` for a dataclass field, and ``name[i]`` for
entry i of a sequence or grid.  Nothing is decomposed, and no memo is
filled, before the check; the one bound found later is ``fit_pcr``'s m
above the rank but not above min(n, d), which only the decomposition
gives.  The four helpers
below make every such check:

- ``_integer``: an integer (numpy's too, not an integral float) of at
  least a bound, returned as a Python int;
- ``_real``: a real number (numpy's too), not NaN, inside an interval,
  returned unchanged (so an int stays an int in a model file or a scenario
  hash);
- ``_finite``: an array with no NaN or infinite entry;
- ``_grid``: a nonempty 1-D grid whose entries each pass ``_real``.

Array lengths and shapes that must match each other are checked where
they are used, with messages that name the array.
"""

from __future__ import annotations

import numbers
import operator
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray


class CtregError(ValueError):
    """Base class for numerical/domain failures."""


class ZeroDesignError(CtregError):
    """Raised when the design matrix is identically zero (rank would be 0)."""


class NotPositiveSemidefiniteError(CtregError):
    """Raised when a kernel matrix has a materially negative eigenvalue."""


class ExperimentError(CtregError):
    """A method failed inside ``run_experiment``; the message names the method,
    d, replicate and CV seed, and the cause is the original exception."""


class UsageError(Exception):
    """Malformed flags, input files or output paths; the CLI exits 2."""


def _integer(name: str, value: Any, least: int) -> int:
    """``value`` as a Python int if it is an integer of at least ``least``."""
    try:
        integer = operator.index(value)
    except TypeError:
        integer = least - 1
    if integer < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return integer


def _real(name: str, value: Any, low: float, high: float, ends: str) -> None:
    """Check that ``value`` is a real number in the interval from ``low`` to
    ``high`` whose brackets, "[" or "(" then "]" or ")", are ``ends``; NaN
    lies in no interval."""
    if not (
        isinstance(value, numbers.Real)
        and (low < value or (ends[0] == "[" and low == value))
        and (value < high or (ends[1] == "]" and value == high))
    ):
        raise ValueError(
            f"{name} must be a number in {ends[0]}{low:g}, {high:g}{ends[1]}, "
            f"got {value!r}"
        )


def _finite(name: str, values: NDArray[np.float64]) -> None:
    """Check that an array has no NaN or infinite entry; the message gives
    the first such entry and its index."""
    if not np.all(np.isfinite(values)):
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        raise ValueError(
            f"{name} must be finite, got {float(values[index])!r} at index {index}"
        )


def _grid(
    name: str, values: ArrayLike, low: float, high: float, ends: str
) -> NDArray[np.float64]:
    """``values`` as a float array if it is a nonempty 1-D grid whose
    entries ``name[i]`` each pass ``_real`` with the given interval."""
    try:
        grid = np.asarray(values)
    except ValueError:  # a ragged nest of sequences
        grid = np.empty((0, 0))
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(
            f"{name} must be a nonempty 1-D grid, got {values!r:.80}"
        )
    for i, value in enumerate(grid.tolist()):
        _real(f"{name}[{i}]", value, low, high, ends)
    return grid.astype(np.float64)
