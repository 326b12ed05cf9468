"""Fixtures shared by the test modules."""

import pytest

from ctreg import _blas


@pytest.fixture
def blas_threads():
    """OpenBLAS on 2 threads during the test, so a count left pinned at 1
    shows, and the count found before put back afterwards.  Yields a
    function that reads the count (2 without OpenBLAS, which nothing pins)."""
    control = _blas.thread_control()
    if control is None:
        yield lambda: 2
        return
    before = control.get()
    control.set(2)
    yield control.get
    control.set(before)
