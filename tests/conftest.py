"""Suite-wide fixtures."""
import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a `multiprocessing` child running, and stop the child."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.terminate()
        process.join()
    if left:
        pytest.fail(f"the test left {len(left)} child process(es) running: {left}")
