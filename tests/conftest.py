"""Shared fixtures: cached game runs, a wall-time deadline and the acceptance
summary printer."""
from __future__ import annotations

import signal
import warnings
from contextlib import contextmanager

import pytest

from flagchess import GameResult, run_game

# When a property test fails, hypothesis imports hypothesis.extra._patching,
# whose libcst import warns DeprecationWarning (mypy_extensions.TypedDict).
# Under -W error that warning ends the run in INTERNALERROR without naming
# the test, so the module is imported once here with that warning ignored;
# -W error holds everywhere else.  Without libcst there is nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

_GAMES: dict[tuple, GameResult] = {}


def cached_game(n: int, eps: int, mode: str = "fibration",
                validate: bool = True) -> GameResult:
    """Memoize full game runs; several modules assert on the same boards."""
    key = (n, eps, mode, validate)
    if key not in _GAMES:
        _GAMES[key] = run_game(n, eps, mode=mode, validate=validate)
    return _GAMES[key]


@pytest.fixture(scope="session")
def game():
    return cached_game


@contextmanager
def deadline(seconds: float):
    """Fail the test once its body has run ``seconds`` of wall time, so that
    a call that runs on unbounded fails in place of hanging."""
    def expire(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_acceptance(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append((num, f"ACCEPTANCE {num:2d}: {verdict} - {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
