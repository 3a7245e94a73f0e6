"""Suite-wide checks."""

import threading

import pytest

# How long a thread that a test started may take to finish once the test
# is over, before it counts as leaked.
JOIN_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread running that was not running when
    it started, such as the worker of a ``read_batches`` iterator that was
    never closed."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    for t in started:
        t.join(JOIN_S)
    leaked = sorted(t.name for t in started if t.is_alive())
    assert not leaked, f"threads left running: {leaked}"
