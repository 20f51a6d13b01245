import os

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_leftover_children():
    """Fail a test that leaves a child of the test process unreaped."""
    yield
    try:
        pid = os.waitpid(-1, os.WNOHANG)[0]
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} unreaped")


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def make_tied_sample(rng, n, support=7):
    """Draws from a small discrete support (education-like marginal)."""
    points = np.arange(support) * 2.0
    probs = rng.dirichlet(np.ones(support))
    return rng.choice(points, size=n, p=probs)
