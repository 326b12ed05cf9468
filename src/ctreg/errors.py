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

- ``_integer``: an integer (numpy's too, not an integral float or a
  bool) of at least a bound, returned as a Python int;
- ``_real``: a real number (numpy's too), not NaN, inside an interval,
  returned unchanged (so a file writer converts a float field itself:
  ``spec_to_dict`` writes b = 2 as 2.0, and ``scenario_hash`` gives both
  one digest);
- ``_array``: an array argument, read with ``np.asarray(value,
  dtype=np.float64)`` (so a float64 array keeps its memory order and
  bits), of a given shape and, unless the caller skips the scan, with no
  NaN or infinite entry;
- ``_grid``: a nonempty 1-D grid whose entries each pass ``_real``.

An array's messages are ``<name> must be a real array, got <value>``
(for text, a ragged nest or anything else numpy cannot read as floats),
``<name> must be of shape (12,), got (11,)`` and ``<name> must be finite,
got nan at index (4,)``.  A free axis is written as a letter, as in
``(m, 5)``: it takes any size of at least 1, the same size wherever the
letter repeats.
"""

from __future__ import annotations

import numbers
import operator
from typing import Any, Dict, Optional, Tuple, Union

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
    if integer < least or isinstance(value, bool):
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


def _array(
    name: str,
    value: ArrayLike,
    shape: Optional[Tuple[Union[int, str], ...]] = None,
    *,
    scan: bool = True,
    copy: bool = False,
) -> NDArray[np.float64]:
    """``value`` as a float64 array, a new one if ``copy``, checked to have
    ``shape`` (any shape if None; a str axis is free, see above) and, if
    ``scan``, only finite entries; the message gives the first NaN or
    infinite entry and its index."""
    try:
        array = (np.array if copy else np.asarray)(value, dtype=np.float64)
    except (TypeError, ValueError):  # text, a ragged nest, an object
        raise ValueError(f"{name} must be a real array, got {value!r:.80}") from None
    if shape is not None:
        free: Dict[str, int] = {}  # each letter's size, from its first axis
        sizes = tuple(
            free.setdefault(axis, size) if isinstance(axis, str) else axis
            for axis, size in zip(shape, array.shape)
        )
        if len(shape) != array.ndim or sizes != array.shape or 0 in sizes:
            axes = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
            raise ValueError(f"{name} must be of shape ({axes}), got {array.shape}")
    if scan and not np.all(np.isfinite(array)):
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(array))[0])
        raise ValueError(
            f"{name} must be finite, got {float(array[index])!r} at index {index}"
        )
    return array


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
