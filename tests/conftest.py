"""Shared fixtures: the golden example chains, a random-model generator and
a call counter."""

import sys

import numpy as np
import pytest

import qergodic as qg


# (Q, pi) pairs used across the suite
CHAINS = {
    # two scalar blocks, dominant block reachable from the start
    "two_state": ([[0.3, 0.0], [0.5, 0.5]], [0.5, 0.5]),
    # three scalar blocks, all roots equal, fully connected downward
    "triangle_full": ([[0.5, 0, 0], [0.1, 0.5, 0], [0.2, 0.1, 0.5]], [1 / 3, 1 / 3, 1 / 3]),
    # same but with the middle connection removed; two dominant paths
    "triangle_split": ([[0.5, 0, 0], [0.1, 0.5, 0], [0.2, 0, 0.5]], [0.0, 0.5, 0.5]),
    # four scalar blocks, one subdominant, two dominant paths from the top
    "four_block": (
        [[0.6, 0, 0, 0], [0, 0.6, 0, 0], [0, 0.2, 0.2, 0], [0.1, 0, 0.2, 0.6]],
        [0, 0, 0, 1],
    ),
    # five scalar blocks, one subdominant, three dominant paths
    "five_block": (
        [
            [0.5, 0, 0, 0, 0],
            [0, 0.75, 0, 0, 0],
            [0.1, 0, 0.75, 0, 0],
            [0, 0, 0.1, 0.75, 0],
            [0, 0.1, 0, 0, 0.75],
        ],
        [0.1, 0.05, 0.05, 0.5, 0.3],
    ),
    # 2x2 dominant block above a scalar block
    "matrix_block": ([[0.2, 0.1, 0], [0.1, 0, 0], [0.1, 0.2, 0.1]], [0.25, 0.25, 0.5]),
    # non-scalar subdominant block carrying initial mass: no certified limit
    "uncertified": ([[0.7, 0, 0], [0.2, 0.4, 0.1], [0.05, 0.1, 0.4]], [0.0, 0.8, 0.2]),
    # one scalar block plus one 2-periodic block
    "periodic": ([[0.3, 0, 0], [0.1, 0, 0.8], [0.1, 0.8, 0]], [0.0, 0.5, 0.5]),
}


@pytest.fixture
def chains():
    return {name: (np.array(Q, dtype=float), np.array(pi, dtype=float)) for name, (Q, pi) in CHAINS.items()}


def model_of(name):
    Q, pi = CHAINS[name]
    return qg.validate(Q, pi)


def random_model(rng, d_max=6):
    """A random valid model: every row leaks, so transience is automatic."""
    d = int(rng.integers(1, d_max + 1))
    Q = np.zeros((d, d))
    for i in range(d):
        mask = rng.random(d) < 0.5
        mask[i] = rng.random() < 0.8
        row = np.where(mask, rng.random(d), 0.0)
        total = row.sum()
        if total > 0:
            row = row * (rng.uniform(0.2, 0.95) / total)
        Q[i] = row
    pi = rng.dirichlet(np.ones(d))
    return qg.validate(Q, pi)


def count_calls(monkeypatch, fn):
    """Count the calls of fn through every qergodic module binding."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "qergodic" or name.startswith("qergodic."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls
