"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def shallow_stack():
    """A recursion limit of 250 for the test, restored afterwards: a walk
    that takes a frame per step overflows it within 250 steps."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    yield
    sys.setrecursionlimit(limit)
