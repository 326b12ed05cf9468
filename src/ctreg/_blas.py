"""Independent LAPACK calls on every core: a map run by the calling thread
and helper threads, with OpenBLAS pinned to one thread while it runs.

At the sizes of CV training blocks (a few hundred on a side) OpenBLAS's own
threads speed up an ``eigh`` very little, so ``fold_map`` runs the blocks
side by side instead, each on one OpenBLAS thread.  Unpinned, the BLAS
threads of concurrent calls contend, and the map is slower than a loop.
The pin is process-wide: while a map runs, BLAS calls made by any other
thread of the process run on one thread too.  Overlapping pins share one
count, and the last to end restores the count the first one found.
``pinned`` holds the pin around a map and the BLAS work that feeds it, so
none of the results depends on the BLAS thread count.

The OpenBLAS that numpy loaded is found through /proc/self/maps and called
through ctypes.  Without it (another BLAS, or no /proc) the calling thread
runs a map alone and nothing is pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import queue
import threading
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, TypeVar

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


class _Job:
    """One map: indices are handed out in order to whichever thread asks."""

    def __init__(self, func: Callable[[int], object], count: int) -> None:
        self._func = func
        self._count = count
        self._cond = threading.Condition()
        self._next = 0  # the next index to hand out
        self._running = 0  # indices handed out and not finished
        self._results: Dict[int, object] = {}
        self._errors: Dict[int, BaseException] = {}

    def work(self) -> None:
        """Run indices until none is left or one has raised."""
        while True:
            with self._cond:
                if self._next == self._count or self._errors:
                    return
                index = self._next
                self._next += 1
                self._running += 1
            try:
                outcome, failed = self._func(index), False
            except BaseException as exc:  # raised again on the calling thread
                outcome, failed = exc, True
            with self._cond:
                (self._errors if failed else self._results)[index] = outcome
                self._running -= 1
                self._cond.notify_all()

    def results(self) -> List[object]:
        """The results in index order, once every index handed out has
        finished.  If any raised, the exception of the lowest such index is
        raised: indices are handed out in order, so every lower one has run,
        and it is the exception a loop would have raised."""
        with self._cond:
            self._cond.wait_for(lambda: self._running == 0)
        if self._errors:
            raise self._errors[min(self._errors)]
        return [self._results[index] for index in range(self._count)]


def _serve(jobs: "queue.SimpleQueue[_Job]") -> None:
    while True:
        jobs.get().work()


class _Pool:
    """A process's helper threads and its OpenBLAS pin."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.jobs: "queue.SimpleQueue[_Job]" = queue.SimpleQueue()
        self.helpers = 0
        self.pins = 0  # maps running
        self.saved = 0  # the thread count the first of them found

    def pin(self, control: ThreadControl) -> None:
        with self.lock:
            if self.pins == 0:
                self.saved = control.get()
                control.set(1)
            self.pins += 1

    def unpin(self, control: ThreadControl) -> None:
        with self.lock:
            self.pins -= 1
            if self.pins == 0:
                control.set(self.saved)

    def lend(self, job: _Job, helpers: int) -> None:
        """Offer job to that many helpers, starting those not yet running.
        A helper busy with another map takes it later and finds it done."""
        with self.lock:
            while self.helpers < helpers:
                threading.Thread(
                    target=_serve, args=(self.jobs,), name="ctreg-helper", daemon=True
                ).start()
                self.helpers += 1
        for _ in range(helpers):
            self.jobs.put(job)


_POOLS: Dict[int, _Pool] = {}


def _pool() -> _Pool:
    """This process's pool.  A forked child makes its own: its parent's
    helpers do not run in it, and their locks may have been copied held."""
    pid = os.getpid()
    return _POOLS.get(pid) or _POOLS.setdefault(pid, _Pool())


@contextlib.contextmanager
def pinned() -> Iterator[None]:
    """OpenBLAS on one thread for the duration (nothing to do without it)."""
    control = thread_control()
    if control is None:
        yield
        return
    pool = _pool()
    pool.pin(control)
    try:
        yield
    finally:
        pool.unpin(control)


def fold_map(func: Callable[[int], T], count: int) -> List[T]:
    """[func(0), ..., func(count - 1)], computed by the calling thread and
    min(count, usable CPUs) - 1 helper threads, with OpenBLAS pinned to one
    thread.  An exception is raised as a loop would raise it: the one of the
    lowest index that raised.  Without OpenBLAS there are no helpers."""
    job = _Job(func, count)
    with pinned():
        if thread_control() is not None:
            _pool().lend(job, min(count, usable_cpus()) - 1)
        job.work()
        return job.results()
