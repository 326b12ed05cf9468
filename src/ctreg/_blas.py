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

The same scan finds the one symmetric eigensolver of ctreg, which
``eigh_factors`` runs in the caller's own buffer.  ``numpy.linalg.eigh``
runs LAPACK ``dsyevd('L')``, which is ``dsytrd`` (a = Q T Q^T with T
tridiagonal, Q as Householder reflectors in a's lower triangle),
``dstedc('I')`` (T = Z diag(w) Z^T) and a ``dormtr`` that forms the
vectors Q Z, 2 n^3 flops.  ``eigh_factors`` runs the first two and leaves
the factors: ``LAPACKE_dsytrd`` in a's buffer, ``LAPACKE_dtrttp_work``
to copy a's lower triangle, reflectors and all, into a packed array of
n (n + 1) / 2 floats, and ``LAPACKE_dstedc_work``, which writes Z over a
with a workspace that ctreg allocates and frees.  ``EighFactors.form``
runs the third in Z's buffer with the workspace dsyevd gives it, so the
eigenvalues and vectors are ``numpy.linalg.eigh``'s bit for bit, and
``EighFactors.apply`` multiplies a few vectors by Q or Q^T at 2 n^2 flops
each, for a caller that never forms the vectors; both unpack the
reflectors (``LAPACKE_dtpttr_work``) into an n x n array that lives for
the one ``dormtr`` call (``LAPACKE_dormtr_work``).  ``eigh_factors`` also
repeats dsyevd's scaling of a matrix whose largest entry lies outside
about 1e+-146.  The scan binds the five routines only when one library
has all of them under one name variant; without them the factors are
``numpy.linalg.eigh``'s, with Q the identity.  The peak is the matrix
plus about 1.5 n^2 floats (the packed triangle and the ``dstedc``
workspace, or the packed triangle and the unpacked one while ``dormtr``
runs), 2.5 n^2 in all, where ``numpy.linalg.eigh`` needs 5 n^2 with its
input; the factors hold 1.5 n^2.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
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
# dsyevd scales a matrix whose largest entry magnitude lies outside
# [_RMIN, _RMAX] into that range first: sqrt(safe minimum / eps) and the
# square root of its inverse, as LAPACK computes them
_SMLNUM = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)
_RMIN, _RMAX = math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM)


class ThreadControl(NamedTuple):
    symbol: str  # the getter's name
    get: Callable[[], int]
    set: Callable[[int], None]


class TridiagonalSolver(NamedTuple):
    symbols: Tuple[str, ...]  # the bound names, in the order of _SIGNATURES
    sytrd: Callable[..., int]
    trttp: Callable[..., int]
    stedc: Callable[..., int]
    tpttr: Callable[..., int]
    ormtr: Callable[..., int]
    lapack_int: type  # the ctypes type of a LAPACK integer, as iwork holds it


# the arguments of each LAPACKE routine bound here: "l" the layout (an
# int), "c" a char, "i" a LAPACK integer, "p" an array
_SIGNATURES = {
    "dsytrd": "lcipippp",  # layout, uplo, n, a, lda, d, e, tau
    "dtrttp_work": "lcipip",  # layout, uplo, n, a, lda, ap
    # layout, compz, n, d, e, z, ldz, work, lwork, iwork, liwork
    "dstedc_work": "lcipppipipi",
    "dtpttr_work": "lcippi",  # layout, uplo, n, ap, a, lda
    # layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
    "dormtr_work": "lccciipippipi",
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


@functools.lru_cache(maxsize=None)
def tridiagonal_solver() -> Optional[TridiagonalSolver]:
    """The LAPACKE routines of _SIGNATURES (``LAPACKE_dsytrd`` and the
    ``_work`` forms of ``dtrttp``, ``dstedc``, ``dtpttr`` and ``dormtr``),
    all from one loaded OpenBLAS under one name variant and typed by
    _SIGNATURES; or None."""
    for lib in _openblas_libraries():
        for pattern in _LAPACKE_NAMES:
            names = [pattern.format(routine) for routine in _SIGNATURES]
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
            for signature, func in zip(_SIGNATURES.values(), funcs):
                func.argtypes = [types[code] for code in signature]
                func.restype = lapack_int
            return TridiagonalSolver(tuple(names), *funcs, lapack_int)
    return None


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


class EighFactors(NamedTuple):
    """a = Q Z diag(eigenvalues) Z^T Q^T, with Q orthogonal and held as the
    Householder reflectors that ``dsytrd`` leaves, and Z orthonormal: the
    eigenvectors of a are the columns of Q Z, which ``form`` computes.
    Without ``tridiagonal_solver()`` Q is the identity and Z holds them."""

    eigenvalues: FloatArray  # ascending
    vectors: FloatArray  # Z, n x n, F-order, in a's buffer; Q Z once formed
    reflectors: Optional[FloatArray]  # a's lower triangle, packed by columns, or None
    tau: Optional[FloatArray]  # the reflectors' scalar factors, or None
    solver: Optional[TridiagonalSolver]  # what made them, or None

    def _unpacked(self) -> FloatArray:
        """A new n x n F-order array whose lower triangle holds the packed
        one; its strict upper triangle is left unwritten."""
        assert self.solver is not None and self.reflectors is not None
        n = self.vectors.shape[0]
        unpacked = np.empty((n, n), order="F")
        info = self.solver.tpttr(
            _LAPACK_COL_MAJOR, b"L", n, self.reflectors.ctypes.data,
            unpacked.ctypes.data, max(n, 1),
        )
        _check(self.solver, 3, info)
        return unpacked

    def _ormtr(self, x: FloatArray, trans: bytes, lwork: Optional[int] = None) -> None:
        """x <- Q x (trans N) or Q^T x (trans T) by ``dormtr``, with lwork
        floats of workspace, or the size ``LAPACKE_dormtr`` would query.
        The reflectors are unpacked for this call alone; ``dormtr`` reads
        the strict lower triangle only."""
        assert self.solver is not None and self.tau is not None
        solver, n = self.solver, self.vectors.shape[0]
        unpacked = self._unpacked()

        def call(work: FloatArray, size: int) -> None:
            info = solver.ormtr(
                _LAPACK_COL_MAJOR, b"L", b"L", trans, n, x.shape[1] if x.ndim == 2 else 1,
                unpacked.ctypes.data, max(n, 1), self.tau.ctypes.data,
                x.ctypes.data, max(n, 1), work.ctypes.data, size,
            )
            _check(solver, 4, info)

        if lwork is None:
            query = np.empty(1)
            call(query, -1)
            lwork = int(query[0])
        call(np.empty(lwork), lwork)

    def apply(self, x: FloatArray, transpose: bool = False) -> FloatArray:
        """Q x, or Q^T x with ``transpose``, computed by ``dormtr`` in the
        buffer of x (a writeable F-contiguous float64 array of n rows, one
        column or several) and returned: 2 n^2 flops per column, and an
        n x n copy of the reflectors while it runs."""
        if self.solver is None:
            return x
        if not (
            x.dtype == np.float64
            and x.ndim in (1, 2)
            and x.shape[0] == self.vectors.shape[0]
            and x.flags.writeable
            and x.flags.f_contiguous
        ):
            raise ValueError("apply needs a writeable F-contiguous float64 array of n rows")
        self._ormtr(x, b"T" if transpose else b"N")
        return x

    def form(self) -> FloatArray:
        """The eigenvectors Q Z as columns, computed by ``dormtr`` in Z's
        buffer and returned: 2 n^3 flops, after which ``vectors`` holds
        them and Z is gone, so it runs once.

        It passes the workspace that ``dsyevd`` passes, n^2 + 4 n + 1
        floats, of which ``dormtr`` writes a block of columns.
        ``LAPACKE_dormtr`` would query less, and ``dormtr`` then applies
        the reflectors in smaller blocks, which changes the last bits; with
        dsyevd's the vectors are ``numpy.linalg.eigh``'s."""
        if self.solver is not None:
            n = self.vectors.shape[0]
            self._ormtr(self.vectors, b"N", n * n + 4 * n + 1)
        return self.vectors


def _check(solver: TridiagonalSolver, routine: int, info: int) -> None:
    """A ValueError naming the routine-th bound routine when its LAPACKE
    call rejected an argument (info < 0)."""
    if info < 0:
        raise ValueError(f"{solver.symbols[routine]} rejected argument {-info}")


def _range_scale(f: FloatArray) -> Optional[float]:
    """dsyevd's scale factor for the lower triangle of f: the one that
    brings its largest entry magnitude into [_RMIN, _RMAX], or None when
    it lies there or is zero, infinite or NaN.  The diagonal's largest
    magnitude and the whole buffer's bound it, and only when they leave the
    range is the triangle read column by column; no n x n temporary is
    made."""
    low, high = np.abs(f.diagonal()).max(), max(f.max(), -f.min())
    if _RMIN <= low and high <= _RMAX:
        return None
    top = np.max([np.abs(f[j:, j]).max() for j in range(f.shape[0])])
    if 0 < top < _RMIN:
        return _RMIN / top
    if _RMAX < top < math.inf:  # an infinite entry is left to LAPACK
        return _RMAX / top
    return None


def eigh_factors(a: FloatArray) -> EighFactors:
    """The factors of the symmetric eigendecomposition of a square float64
    matrix, from its lower triangle, with the eigenvectors left unformed:
    ``dsytrd`` and ``dstedc('I')``, the first two steps of the ``dsyevd``
    that ``numpy.linalg.eigh`` runs, after dsyevd's range scaling.  The
    eigenvalues carry the bits of ``numpy.linalg.eigh(a)``, and so do the
    vectors that ``EighFactors.form`` makes; a caller that needs only a few
    products with the vectors makes them with ``EighFactors.apply`` at
    2 n^2 flops each.

    ``dsytrd`` runs in a's buffer, and leaves Q's reflectors in its strict
    lower triangle.  That triangle is copied into a packed array of
    n (n + 1) / 2 floats, and ``dstedc`` then writes Z over a, with a
    workspace of n^2 + 4 n + 1 floats and 3 + 5 n integers that lives for
    that call.  So the peak is a plus about 1.5 n^2 floats, as it is while
    ``form`` or ``apply`` runs, and the factors hold Z, in a's buffer, and
    the packed triangle: 1.5 n^2 in all.

    a must be writeable and C- or F-contiguous.  Its buffer is read in
    column-major order, so a C-contiguous a gives the bits that
    ``numpy.linalg.eigh(a)`` gives only when it is exactly symmetric; an
    F-contiguous one gives them for any a.  A matrix whose largest entry
    in that triangle lies beyond about 1e146, or below about 1e-146, is
    scaled into that range first and its eigenvalues scaled back, as
    dsyevd does.  Without ``tridiagonal_solver()``, and for a matrix with
    a NaN entry in that triangle (which LAPACKE refuses before it computes
    anything), the factors are ``numpy.linalg.eigh(a)`` with Q the
    identity, and a is not written.  A tridiagonal matrix with a NaN
    entry (from an infinite entry of a) is refused as ``LAPACKE_dstedc``
    refuses it, with a ValueError.  A decomposition that does not converge
    raises ``LinAlgError``, as ``numpy.linalg.eigh`` does.  The calls
    release the GIL.
    """
    n = _square(a, "eigh_factors")
    solver = tridiagonal_solver()
    if solver is None:
        return EighFactors(*np.linalg.eigh(a), None, None, None)
    lower = a.T if a.flags.c_contiguous else a  # the buffer in column-major order
    scale = _range_scale(lower) if n > 1 else None  # dsyevd returns a 1 x 1 a as is
    if scale is not None:
        a *= scale
    w, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    info = solver.sytrd(
        _LAPACK_COL_MAJOR, b"L", n, a.ctypes.data, max(n, 1),
        w.ctypes.data, e.ctypes.data, tau.ctypes.data,
    )
    if info == -4:  # LAPACKE's NaN check of a
        return EighFactors(*np.linalg.eigh(a), None, None, None)
    _check(solver, 0, info)
    packed = np.empty(n * (n + 1) // 2)
    info = solver.trttp(
        _LAPACK_COL_MAJOR, b"L", n, a.ctypes.data, max(n, 1), packed.ctypes.data
    )
    _check(solver, 1, info)
    # the NaN check of d and e that LAPACKE_dstedc makes and its _work form skips
    for position, values in ((4, w), (5, e[: n - 1])):
        if np.isnan(values).any():
            _check(solver, 2, -position)
    z = lower  # Z is written over the reflectors' old buffer
    work = np.empty(n * n + 4 * n + 1)
    iwork = np.empty(3 + 5 * n, dtype=solver.lapack_int)
    info = solver.stedc(
        _LAPACK_COL_MAJOR, b"I", n, w.ctypes.data, e.ctypes.data, z.ctypes.data, max(n, 1),
        work.ctypes.data, work.size, iwork.ctypes.data, iwork.size,
    )
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    _check(solver, 2, info)
    if scale is not None:
        w *= 1.0 / scale
    return EighFactors(w, z, packed, tau, solver)


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
