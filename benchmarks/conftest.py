"""Shared fixtures and helpers for the benchmark suite.

Every benchmark regenerates one experiment of DESIGN.md's index (E1-E14).
Benchmarks assert correctness of the measured computation where ground
truth is affordable, so `pytest benchmarks/ --benchmark-only` doubles as
an end-to-end validation pass.
"""

import faulthandler
import os
import random
import sys

import pytest


@pytest.fixture
def rng():
    return random.Random(0xBEEF)


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


#: Seconds any one test may run before the hang guard kills the run.
HANG_LIMIT_S = 900

_hang_report_fd = []


def pytest_configure(config):
    # pytest_configure runs outside output capture, so this duplicate of
    # stderr still reaches the terminal while a test's output is captured.
    _hang_report_fd.append(os.dup(sys.__stderr__.fileno()))


def pytest_unconfigure(config):
    while _hang_report_fd:
        os.close(_hang_report_fd.pop())


@pytest.fixture(autouse=True)
def _hang_guard():
    """Fail a hung test loudly: past ``HANG_LIMIT_S`` the stacks of every
    thread are dumped and the process exits, instead of stalling CI."""
    faulthandler.dump_traceback_later(
        HANG_LIMIT_S, exit=True, file=_hang_report_fd[0]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
