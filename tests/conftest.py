"""Shared test guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """A test that leaves a child process running fails, and the child is
    stopped so that it outlives no other test either."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
    assert not left, f"child processes left running: {left}"
