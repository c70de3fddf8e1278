"""A wall-clock limit for test code that could otherwise hang."""

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block after ``seconds`` of wall time (POSIX main thread)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
