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

``eigh_factors`` runs the same decomposition without its last step.
``LAPACKE_dsytrd`` and ``LAPACKE_dstedc`` leave a = Q Z diag(w) Z^T Q^T,
with Q as Householder reflectors in a's buffer, and ``LAPACKE_dormtr``
multiplies vectors by Q or Q^T (``EighFactors.apply``); the scan binds the
three only when one library has all of them under one name variant.
``dsyevd`` is those two calls plus a ``dormtr`` that forms Q Z, 2 n^3
flops, about 0.3 s of the 0.82-0.93 s that a 2000 x 2000 ``eigh`` takes on
2 cores.  A caller that needs only a few products with the eigenvectors
skips that step and gets the same eigenvalue bits, with the same 3 n^2
peak (a, Z and the ``dstedc`` workspace of about n^2).  Products read
through Q and Z differ from those with ``dsyevd``'s vectors in the last
bits: Q Z is not bit for bit dsyevd's vectors (at 2000 x 2000 the largest
entry difference was 4.4e-16).
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
# the names of a LAPACKE routine in the same builds; a name ending in 64_
# takes 64-bit LAPACK integers, the others 32-bit ones
_LAPACKE_NAMES = (
    "scipy_LAPACKE_{}64_",
    "scipy_LAPACKE_{}",
    "LAPACKE_{}64_",
    "LAPACKE_{}",
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


class TridiagonalSolver(NamedTuple):
    symbols: Tuple[str, ...]  # the names of sytrd, stedc and ormtr
    sytrd: Callable[..., int]
    stedc: Callable[..., int]
    ormtr: Callable[..., int]


# the arguments of each LAPACKE routine bound here: "l" the layout (an
# int), "c" a char, "i" a LAPACK integer, "p" an array
_SIGNATURES = {
    "dsyevd": "lccipip",  # layout, jobz, uplo, n, a, lda, w
    "dsytrd": "lcipippp",  # layout, uplo, n, a, lda, d, e, tau
    "dstedc": "lcipppi",  # layout, compz, n, d, e, z, ldz
    "dormtr": "lccciipippi",  # layout, side, uplo, trans, m, n, a, lda, tau, c, ldc
}


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


def _lapacke(*routines: str) -> Optional[Tuple[List[str], int, List[Any]]]:
    """(names, integer bits, functions) of the LAPACKE routines, all from one
    loaded OpenBLAS under one name variant, typed by _SIGNATURES; or None."""
    for lib in _openblas_libraries():
        for pattern in _LAPACKE_NAMES:
            names = [pattern.format(routine) for routine in routines]
            funcs = [getattr(lib, name, None) for name in names]
            if any(func is None for func in funcs):
                continue
            lapack_int = ctypes.c_int64 if pattern.endswith("64_") else ctypes.c_int32
            types = {
                "l": ctypes.c_int,
                "c": ctypes.c_char,
                "i": lapack_int,
                "p": ctypes.c_void_p,
            }
            for routine, func in zip(routines, funcs):
                func.argtypes = [types[code] for code in _SIGNATURES[routine]]
                func.restype = lapack_int
            return names, 8 * ctypes.sizeof(lapack_int), funcs
    return None


@functools.lru_cache(maxsize=None)
def eigensolver() -> Optional[Eigensolver]:
    """``LAPACKE_dsyevd`` of the loaded OpenBLAS, or None."""
    found = _lapacke("dsyevd")
    if found is None:
        return None
    names, bits, funcs = found
    return Eigensolver(names[0], bits, funcs[0])


@functools.lru_cache(maxsize=None)
def tridiagonal_solver() -> Optional[TridiagonalSolver]:
    """``LAPACKE_dsytrd``, ``LAPACKE_dstedc`` and ``LAPACKE_dormtr`` of one
    loaded OpenBLAS, or None."""
    found = _lapacke("dsytrd", "dstedc", "dormtr")
    if found is None:
        return None
    names, _, funcs = found
    return TridiagonalSolver(tuple(names), *funcs)


def _square(a: FloatArray, what: str) -> int:
    """n for a writeable C- or F-contiguous n x n float64 array, which a
    LAPACK routine may overwrite; else a ValueError."""
    n = a.shape[0]
    if not (
        a.dtype == np.float64
        and a.shape == (n, n)
        and a.flags.writeable
        and (a.flags.c_contiguous or a.flags.f_contiguous)
    ):
        raise ValueError(f"{what} needs a writeable contiguous square float64 array")
    return n


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
    n = _square(a, "eigh_in_place")
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


class EighFactors(NamedTuple):
    """a = Q Z diag(eigenvalues) Z^T Q^T, with Q orthogonal and held as the
    Householder reflectors that ``dsytrd`` leaves, and Z orthonormal: the
    eigenvectors of a are the columns of Q Z, which are never formed here.
    Without ``tridiagonal_solver()`` Q is the identity and Z holds them."""

    eigenvalues: FloatArray  # ascending
    vectors: FloatArray  # Z, n x n
    reflectors: Optional[FloatArray]  # Q's reflectors (column-major view), or None
    tau: Optional[FloatArray]  # their scalar factors, or None
    solver: Optional[TridiagonalSolver]  # what made them, or None

    def apply(self, x: FloatArray, transpose: bool = False) -> FloatArray:
        """Q x, or Q^T x with ``transpose``, computed by ``dormtr`` in the
        buffer of x (a writeable F-contiguous float64 array of n rows, one
        column or several) and returned: 2 n^2 flops per column."""
        if self.solver is None:
            return x
        n = self.reflectors.shape[0]
        if not (
            x.dtype == np.float64
            and x.ndim in (1, 2)
            and x.shape[0] == n
            and x.flags.writeable
            and x.flags.f_contiguous
        ):
            raise ValueError("apply needs a writeable F-contiguous float64 array of n rows")
        info = self.solver.ormtr(
            _LAPACK_COL_MAJOR,
            b"L",
            b"L",
            b"T" if transpose else b"N",
            n,
            x.shape[1] if x.ndim == 2 else 1,
            self.reflectors.ctypes.data,
            max(n, 1),
            self.tau.ctypes.data,
            x.ctypes.data,
            max(n, 1),
        )
        if info != 0:
            raise ValueError(f"{self.solver.symbols[2]} rejected argument {-info}")
        return x


def eigh_factors(a: FloatArray) -> EighFactors:
    """The factors of a symmetric eigendecomposition of a square float64
    matrix, from its lower triangle, with the eigenvectors left unformed.

    ``dsyevd`` is ``dsytrd`` (a = Q T Q^T with T tridiagonal, Q's reflectors
    left in a's lower triangle), ``dstedc('I')`` (T = Z diag(w) Z^T) and
    ``dormtr`` (the vectors Q Z, 2 n^3 flops).  This runs the first two in
    a's own buffer and stops there, so the eigenvalues carry the bits of
    ``eigh_in_place(a)``, and a caller that needs only a few products with
    the vectors makes them with ``EighFactors.apply`` at 2 n^2 flops each.
    The peak is a, Z and the ``dstedc`` workspace of about n^2 floats,
    3 n^2 in all, as for ``eigh_in_place``; the factors hold a and Z.

    a must be writeable and C- or F-contiguous, and is read in column-major
    order as in ``eigh_in_place``.  Unlike ``dsyevd``, which first scales a
    matrix whose largest entry lies beyond about 1e146, or below about
    1e-146, into that range, this scales nothing, so such a matrix is
    reduced at its own size (50 x 50 Gram matrices scaled by 1e-200, 1e200
    and 1e300 still gave eigenvalues within 7e-16 of numpy's, relative to
    the largest).  Without ``tridiagonal_solver()``, and for a matrix with
    a NaN entry (which LAPACKE refuses before it computes anything), the
    factors are ``numpy.linalg.eigh(a)`` with Q the identity, and a is not
    written.  A decomposition that does not converge raises
    ``LinAlgError``.  The calls release the GIL.
    """
    n = _square(a, "eigh_factors")
    solver = tridiagonal_solver()
    if solver is None:
        return EighFactors(*np.linalg.eigh(a), None, None, None)
    w, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    info = solver.sytrd(
        _LAPACK_COL_MAJOR, b"L", n, a.ctypes.data, max(n, 1),
        w.ctypes.data, e.ctypes.data, tau.ctypes.data,
    )
    if info == -4:  # LAPACKE's NaN check of a
        return EighFactors(*np.linalg.eigh(a), None, None, None)
    if info < 0:
        raise ValueError(f"{solver.symbols[0]} rejected argument {-info}")
    z = np.empty((n, n), order="F")
    info = solver.stedc(
        _LAPACK_COL_MAJOR, b"I", n, w.ctypes.data, e.ctypes.data, z.ctypes.data, max(n, 1)
    )
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if info < 0:
        raise ValueError(f"{solver.symbols[1]} rejected argument {-info}")
    return EighFactors(w, z, a.T if a.flags.c_contiguous else a, tau, solver)


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
