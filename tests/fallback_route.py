"""A pytest plugin that runs the tests on ctreg's fallback route.

The fallback route is the one a numpy built without OpenBLAS takes: every
eigendecomposition goes through ``numpy.linalg.eigh`` and no BLAS thread
count is pinned.  The plugin makes ``_blas.tridiagonal_solver`` and
``_blas.thread_control`` return None for the whole pytest session, before any
test module is imported (tests that need OpenBLAS's thread control skip).
Load it by name:

    PYTHONPATH=src:tests python -m pytest -q -p fallback_route
"""

from ctreg import _blas


def pytest_configure(config):
    _blas.tridiagonal_solver = lambda: None
    _blas.thread_control = lambda: None
