"""Shared fixtures of the test suite."""

import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` raises TimeoutError once that much wall
    time has passed (SIGALRM, so POSIX and the main thread only), so that a
    computation that no longer terminates fails its test instead of hanging
    the suite."""

    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
