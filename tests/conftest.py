"""Shared test helpers: seeded instance suites and a CLI runner."""

from __future__ import annotations

import io

import numpy as np
import pytest

from dirichlet_ruc import (
    DirichletPolynomial,
    GridPolicy,
    HilbertSpace,
    SequenceSpace,
    SupSpace,
)
from dirichlet_ruc.cli import run as cli_run

# spaces.INNER_GRID's half grid as a grid of its own, for separate-pass references
HALF_INNER_GRID = GridPolicy(factor=4, min_size=32, max_points=1 << 22)


def make_space(rng, max_dim=6):
    d = int(rng.integers(1, max_dim + 1))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return HilbertSpace(d)
    if kind == 1:
        return SequenceSpace(1.0, d)
    if kind == 2:
        return SequenceSpace(1.5, d)
    if kind == 3:
        return SequenceSpace(3.0, d)
    return SupSpace(d)


def random_elements(rng, space, count):
    d = space.d
    out = []
    for _ in range(count):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        out.append(x)
    return out


def random_instances(seed, count, max_terms=8, max_dim=6):
    """Deterministic list of (space, elements) pairs for property suites."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        space = make_space(rng, max_dim)
        m = int(rng.integers(1, max_terms + 1))
        out.append((space, random_elements(rng, space, m)))
    return out


def random_polynomial(rng, space, max_terms=8, max_frequency=40):
    m = int(rng.integers(1, max_terms + 1))
    freqs = rng.choice(np.arange(1, max_frequency + 1), size=m, replace=False)
    elements = random_elements(rng, space, m)
    return DirichletPolynomial(space, {int(n): x for n, x in zip(freqs, elements)})


def run_cli(argv, env=None, monkeypatch=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    if env is not None:
        assert monkeypatch is not None
        for key, value in env.items():
            if value is None:
                monkeypatch.delenv(key, raising=False)
            else:
                monkeypatch.setenv(key, value)
    code = cli_run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_close(actual, expected, tol, label=""):
    assert abs(actual - expected) <= tol, (
        f"{label}: {actual} vs {expected} (tol {tol}, diff {abs(actual - expected)})"
    )
