import os
import threading

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped (waitpid: pid {pid}, status {status})")


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a thread running, a pending timer included."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"a thread was left running: {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
