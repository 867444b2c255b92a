"""A guard against serving threads that outlive the test that started them."""

import threading
import time

import pytest

GUARDED_MODULES = {"test_gateway", "test_broker", "test_cli"}
SERVING_THREADS = ("(_accept_loop)", "(_run)")   # a listener's and its connections'


def serving_threads():
    return {t for t in threading.enumerate() if t.name.endswith(SERVING_THREADS)}


@pytest.fixture(autouse=True)
def no_serving_thread_left(request):
    """Fails a test that leaves an accept loop or a connection thread alive
    2 s after its teardown; set up first, this fixture is torn down last."""
    if request.module.__name__.rpartition(".")[2] not in GUARDED_MODULES:
        yield
        return
    before = serving_threads()
    yield
    deadline = time.monotonic() + 2
    while (left := serving_threads() - before) and time.monotonic() < deadline:
        time.sleep(0.01)
    if left:
        pytest.fail(f"threads left running: {sorted(t.name for t in left)}")
