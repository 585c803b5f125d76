"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.metrics import (
    ChebyshevDistance,
    CityblockDistance,
    EuclideanDistance,
)


def _repro_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}
    except OSError:  # pragma: no cover - non-tmpfs platforms
        return set()


def _live_children():
    return [p for p in multiprocessing.active_children() if p.is_alive()]


@pytest.fixture
def leak_check():
    """Fail the test if it leaks worker processes or shm segments."""
    segments = _repro_segments()
    children = {p.pid for p in _live_children()}
    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [p for p in _live_children() if p.pid not in children]
        if not leaked and not (_repro_segments() - segments):
            break
        time.sleep(0.05)
    assert not [p for p in _live_children() if p.pid not in children]
    assert _repro_segments() <= segments


@pytest.fixture
def rng():
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(20080411)


@pytest.fixture
def small_vectors(rng):
    """A 60-point 3-d vector database."""
    return rng.random((60, 3))


@pytest.fixture
def small_words():
    """A small string database with plenty of edit-distance ties."""
    return [
        "hello", "help", "held", "helm", "hero",
        "world", "word", "ward", "warden", "wart",
        "cat", "cart", "care", "core", "bore",
        "gene", "genome", "genetic", "gem", "game",
    ]


@pytest.fixture(params=["l1", "l2", "linf"])
def lp_metric(request):
    """Parameterized fixture over the paper's three vector metrics."""
    return {
        "l1": CityblockDistance(),
        "l2": EuclideanDistance(),
        "linf": ChebyshevDistance(),
    }[request.param]
