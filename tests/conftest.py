import os
import random

import pytest

from recdiv.graph import DivParams, Grouping, RecGraph, ThresholdTable


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or not
    reaped (a forked greedy worker, a process pool's, a command's)."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    if pid:
        pytest.fail(f"child process {pid} was left unreaped (status {status})")
    pytest.fail("a child process is still running")


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def three_item_graph():
    """1 user (c=2); items v1(A, rel .9), v2(A, rel .8), v3(B, rel .1)."""
    graph = RecGraph(
        ["u1"], [2], ["v1", "v2", "v3"],
        [(0, 0, 0.9), (0, 1, 0.8), (0, 2, 0.1)],
    )
    user_types = Grouping("user", ["T"], [[0]])
    item_cats = Grouping("item", ["A", "B"], [[0], [0], [1]])
    thresholds = ThresholdTable(
        {(0, 0): 1, (0, 1): 1},
        {(0, 0): 1, (1, 0): 1, (2, 0): 1},
    )
    return graph, user_types, item_cats, thresholds


@pytest.fixture
def beta_only():
    return DivParams(beta=1.0, mu=0.0)
