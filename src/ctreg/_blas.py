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

The OpenBLAS that numpy loaded is found through /proc/self/maps and called
through ctypes.  Without it (another BLAS, or no /proc) the calling thread
runs a map alone and nothing is pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, TypeVar

T = TypeVar("T")

# (get, set) thread-count functions of the OpenBLAS builds numpy ships or links
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class ThreadControl(NamedTuple):
    symbol: str  # the getter's name
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.lru_cache(maxsize=None)
def thread_control() -> Optional[ThreadControl]:
    """The thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return ThreadControl(get_name, get, set_)
    return None


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
