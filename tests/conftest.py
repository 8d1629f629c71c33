"""Shared fixtures for the test-suite."""

import faulthandler
import os
import random
import sys

import pytest

from repro.words.word import Word


@pytest.fixture
def rng():
    """A deterministically seeded RNG; reseeded per test."""
    return random.Random(0xC0FFEE)


#: Seconds any one test may run before the hang guard kills the run.
HANG_LIMIT_S = 600

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


#: The paper's named queries and their proven complexity classes
#: (Examples 1-3, Figures 2-4, Claim 5, Lemma 3).
PAPER_TABLE = [
    ("RR", "FO"),
    ("RRX", "NL-complete"),
    ("ARRX", "coNP-complete"),
    ("RXRX", "FO"),
    ("RXRY", "NL-complete"),
    ("RXRYRY", "PTIME-complete"),
    ("RXRXRYRY", "coNP-complete"),
    ("RXRRR", "PTIME-complete"),
    ("RRSRS", "PTIME-complete"),
    ("RSRRR", "PTIME-complete"),
    ("UVUVWV", "NL-complete"),
    ("RXRYR", "NL-complete"),
]


def random_word(rng, max_length=8, alphabet="RSX"):
    length = rng.randint(0, max_length)
    return Word("".join(rng.choice(alphabet) for _ in range(length)))
