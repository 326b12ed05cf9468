"""Independent LAPACK calls on every core: a map run by the calling thread
and helper threads, with OpenBLAS pinned to one thread while it runs.

At the sizes of CV training blocks (a few hundred on a side) OpenBLAS's own
threads speed up an ``eigh`` very little, so ``fold_map`` runs the blocks
side by side instead, each on one OpenBLAS thread.  Each map starts its own
helpers and joins them before it returns or raises, so no thread outlives
it.  Unpinned, the BLAS threads of concurrent calls contend, and the map is
slower than a loop.  The pin is process-wide: while a map runs, BLAS calls
made by any other thread of the process run on one thread too.  Overlapping
pins share one count, and the last to end restores the count the first one
found; a forked child starts unpinned.  ``pinned`` holds the pin around a
map and the BLAS work that feeds it, so none of the results depends on the
BLAS thread count.

The pin also covers the decompositions that run between maps, such as
``canonicalize``'s, not only the maps.  After a call that ran on several
threads, an OpenBLAS worker busy-waits for about 0.12 s before it sleeps
(measured after one 400 x 400 gemm: the process used 120-130 ms of CPU
time during a 0.3 s sleep).  On 2 cores that worker takes the core the
next map's helper needs: on a shared 2-core machine a 1000 x 200, L = 10
fold map took a median 110 ms right after an unpinned gemm, against 78 ms
after a quiet pause.

The OpenBLAS that numpy loaded is found through /proc/self/maps and called
through ctypes.  Without it (another BLAS, or no /proc) the calling thread
runs a map alone and nothing is pinned.

The same scan finds that OpenBLAS's ``LAPACKE_dsyevd``, which
``eigh_in_place`` calls on the caller's own buffer: the ``dsyevd('L')``
that ``numpy.linalg.eigh`` runs, without numpy's copy of the matrix or its
separate output for the vectors.  An n x n decomposition then needs the
matrix plus the LAPACK workspace of about 2 n^2 floats, 3 n^2 in all,
where ``numpy.linalg.eigh`` needs 5 n^2 with its input.  Without the
binding ``eigh_in_place`` is ``numpy.linalg.eigh``, with the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, TypeVar

import numpy as np
from numpy.typing import NDArray

T = TypeVar("T")
FloatArray = NDArray[np.float64]

# (get, set) thread-count functions of the OpenBLAS builds numpy ships or links
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# LAPACKE_dsyevd of the same builds; a name ending in 64_ takes 64-bit
# LAPACK integers, the others 32-bit ones
_SYEVD_SYMBOLS = (
    "scipy_LAPACKE_dsyevd64_",
    "scipy_LAPACKE_dsyevd",
    "LAPACKE_dsyevd64_",
    "LAPACKE_dsyevd",
)
_LAPACK_COL_MAJOR = 102


class ThreadControl(NamedTuple):
    symbol: str  # the getter's name
    get: Callable[[], int]
    set: Callable[[int], None]


class Eigensolver(NamedTuple):
    symbol: str
    int_bits: int  # the width of its LAPACK integers
    syevd: Callable[..., int]


@functools.lru_cache(maxsize=None)
def _openblas_libraries() -> Tuple[ctypes.CDLL, ...]:
    """The OpenBLAS libraries mapped into this process, by path."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return ()
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libraries)


@functools.lru_cache(maxsize=None)
def thread_control() -> Optional[ThreadControl]:
    """The thread-count functions of the loaded OpenBLAS, or None."""
    for lib in _openblas_libraries():
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return ThreadControl(get_name, get, set_)
    return None


@functools.lru_cache(maxsize=None)
def eigensolver() -> Optional[Eigensolver]:
    """``LAPACKE_dsyevd`` of the loaded OpenBLAS, or None."""
    for lib in _openblas_libraries():
        for name in _SYEVD_SYMBOLS:
            syevd = getattr(lib, name, None)
            if syevd is not None:
                lapack_int = ctypes.c_int64 if name.endswith("64_") else ctypes.c_int32
                # (layout, jobz, uplo, n, a, lda, w) -> info
                syevd.argtypes = [
                    ctypes.c_int,
                    ctypes.c_char,
                    ctypes.c_char,
                    lapack_int,
                    ctypes.c_void_p,
                    lapack_int,
                    ctypes.c_void_p,
                ]
                syevd.restype = lapack_int
                return Eigensolver(name, 8 * ctypes.sizeof(lapack_int), syevd)
    return None


def eigh_in_place(a: FloatArray) -> Tuple[FloatArray, FloatArray]:
    """(eigenvalues in ascending order, eigenvectors as columns) of a square
    float64 matrix, computed by LAPACK ``dsyevd`` from its lower triangle in
    a's own buffer, which ends up holding the vectors: the vector matrix
    returned is a view of a.

    a must be writeable and C- or F-contiguous.  The buffer is read in
    column-major order, so a C-contiguous a gives the bits that
    ``numpy.linalg.eigh(a)`` gives only when it is exactly symmetric; an
    F-contiguous one gives them for any a.  Without ``eigensolver()``, and
    for a matrix with a NaN entry (which LAPACKE refuses before it computes
    anything), this is ``numpy.linalg.eigh(a)`` and a is not written.  A
    decomposition that does not converge raises ``LinAlgError``, as
    ``numpy.linalg.eigh`` does.  The call releases the GIL.
    """
    n = a.shape[0]
    if not (
        a.dtype == np.float64
        and a.shape == (n, n)
        and a.flags.writeable
        and (a.flags.c_contiguous or a.flags.f_contiguous)
    ):
        raise ValueError("eigh_in_place needs a writeable contiguous square float64 array")
    solver = eigensolver()
    if solver is None:
        return np.linalg.eigh(a)
    w = np.empty(n)
    info = solver.syevd(_LAPACK_COL_MAJOR, b"V", b"L", n, a.ctypes.data, max(n, 1), w.ctypes.data)
    if info == -5:  # LAPACKE's NaN check of a
        return np.linalg.eigh(a)
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if info < 0:
        raise ValueError(f"{solver.symbol} rejected argument {-info}")
    return w, (a.T if a.flags.c_contiguous else a)


def usable_cpus() -> int:
    """The number of CPUs this process may run on (Linux, like the maps)."""
    return len(os.sched_getaffinity(0))


_lock = threading.Lock()  # guards the pin state below
_pins = 0  # maps running
_saved = 0  # the thread count the first of them found


def _after_fork_in_child() -> None:
    """A forked child runs only the thread that forked, so the pins of the
    other threads never end in it, and the lock may have been copied held:
    it starts unpinned, with a new lock and the count the pins found."""
    global _lock, _pins
    if _pins and (control := thread_control()) is not None:
        control.set(_saved)
    _lock, _pins = threading.Lock(), 0


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_after_fork_in_child)


@contextlib.contextmanager
def pinned() -> Iterator[Optional[ThreadControl]]:
    """OpenBLAS on one thread for the duration (nothing to do without it);
    yields ``thread_control()``."""
    global _pins, _saved
    control = thread_control()
    if control is None:
        yield None
        return
    with _lock:
        if _pins == 0:
            _saved = control.get()
            control.set(1)
        _pins += 1
    try:
        yield control
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                control.set(_saved)


def fold_map(func: Callable[[int], T], count: int) -> List[T]:
    """[func(0), ..., func(count - 1)], computed by the calling thread and
    min(count, usable CPUs) - 1 helper threads, with OpenBLAS pinned to one
    thread.  The helpers are started for this map and joined before it
    returns or raises; without OpenBLAS there are none.

    Indices are taken in order from one counter, and none is taken once one
    has raised.  So when an index raises, every lower one has run, and the
    exception raised is the lowest such index's, the one a loop raises."""
    lock = threading.Lock()
    taken = 0  # indices handed out
    results: List[Any] = [None] * count
    errors: Dict[int, BaseException] = {}

    def work() -> None:
        nonlocal taken
        while True:
            with lock:
                if taken == count or errors:
                    return
                index, taken = taken, taken + 1
            try:
                results[index] = func(index)
            except BaseException as exc:  # raised again on the calling thread
                errors[index] = exc

    with pinned() as control:
        helpers = min(count, usable_cpus()) - 1 if control else 0
        started: List[threading.Thread] = []
        try:
            for _ in range(helpers):
                helper = threading.Thread(target=work, name="ctreg-helper")
                helper.start()
                started.append(helper)
            work()
        finally:
            for helper in started:
                helper.join()
    if errors:
        raise errors[min(errors)]
    return results
