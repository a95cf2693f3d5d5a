"""Shared fixtures for the test suite.

Every test runs with deterministically seeded global PRNGs: an autouse
fixture derives a per-test seed from the test's node id (stable across runs
and across ``-k`` selections) and seeds both :mod:`random` and the legacy
``numpy.random`` state.  Tests that need their own generator should take the
function-scoped ``rng`` fixture instead of calling
``np.random.default_rng(...)`` inline -- same determinism, no ad-hoc seeds.
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest

from repro.graph import from_edges
from repro.graph.sparse import CSRMatrix


def _seed_for(nodeid: str) -> int:
    """Stable per-test seed: crc32 of the pytest node id."""
    return zlib.crc32(nodeid.encode()) & 0x7FFFFFFF


@pytest.fixture(autouse=True)
def _deterministic_seeds(request):
    """Seed the global PRNGs per test so order/selection never changes
    results, and one test's draws can't leak into another's."""
    seed = _seed_for(request.node.nodeid)
    random.seed(seed)
    np.random.seed(seed % (2**32 - 1))
    yield


@pytest.fixture()
def rng(request) -> np.random.Generator:
    """A per-test numpy Generator, seeded from the test's node id."""
    return np.random.default_rng(_seed_for(request.node.nodeid))


def make_graph(n_src: int, n_dst: int, m: int, seed: int = 0) -> CSRMatrix:
    """Random multigraph in pull layout (rows = destinations)."""
    r = np.random.default_rng(seed)
    src = r.integers(0, n_src, m)
    dst = r.integers(0, n_dst, m)
    return from_edges(n_src, n_dst, src, dst)


@pytest.fixture()
def small_graph() -> CSRMatrix:
    """A 60-vertex, 800-edge random graph (fast unit-test scale)."""
    return make_graph(60, 60, 800, seed=7)


@pytest.fixture()
def medium_graph() -> CSRMatrix:
    """A 400-vertex, 8000-edge graph (integration scale)."""
    return make_graph(400, 400, 8000, seed=11)


@pytest.fixture()
def edge_list_graph():
    """(adj, src, dst) with the original edge-list arrays for references."""
    r = np.random.default_rng(3)
    n, m = 80, 1200
    src = r.integers(0, n, m)
    dst = r.integers(0, n, m)
    return from_edges(n, n, src, dst), src, dst


def gcn_reference(src: np.ndarray, dst: np.ndarray, x: np.ndarray,
                  n: int) -> np.ndarray:
    """Multigraph-correct sum aggregation reference."""
    out = np.zeros((n, x.shape[1]), dtype=np.float32)
    np.add.at(out, dst, x[src])
    return out
