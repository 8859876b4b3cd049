import os

import pytest

from atlas4d import pairing


@pytest.fixture(autouse=True)
def no_child_and_blas_threads_restored():
    """No test leaves a child process or a changed BLAS thread count:
    training forks one child per stage and caps BLAS while it runs."""
    fns = pairing.blas_thread_count_fns()
    before = fns and fns[0]()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (fns and fns[0]()) == before
