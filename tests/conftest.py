import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
# the oracles' own checks are asserts; rewritten like a test module's, they
# still fire when the suite runs under python -O
pytest.register_assert_rewrite("oracles")


@pytest.fixture
def alarm():
    """Fail the test if it runs longer than the given seconds, instead of
    hanging."""
    def expired(signum, frame):
        raise AssertionError("the test ran out of time")  # not an OSError the client catches

    previous = signal.signal(signal.SIGALRM, expired)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
