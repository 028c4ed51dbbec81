"""The per-test time bound of conftest.py turns a hang into a failure."""

import itertools
import signal

import pytest


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the time bound needs SIGALRM")
def test_a_looping_call_fails_at_the_time_bound():
    # the autouse fixture has armed the alarm; bring it forward to 1 s
    # rather than wait out the full bound
    signal.alarm(1)
    with pytest.raises(pytest.fail.Exception, match="still running at the .* time bound"):
        for _ in itertools.count():
            pass
