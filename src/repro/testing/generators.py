"""Seeded random generators for the differential fuzzing harness.

Everything here is deterministic given its seed or ``random.Random``: graph
specs and arrays, UDF instances, FDS schedules.  The generators intentionally
bias toward the degenerate shapes that break sparse kernels in practice --
empty graphs, rows with zero or one edge, duplicate edges, self-loops, and
heavy power-law skew.

Each UDF family pairs a tensorir builder (what the kernel compiles) with an
**independent numpy reference** (plain fancy indexing / einsum), so a bug in
the shared expression evaluator cannot cancel out of the comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import tensorir as T
from repro.core.fds import (
    FDS,
    cpu_multilevel_fds,
    cpu_tile_fds,
    gpu_feature_thread_fds,
    gpu_multilevel_fds,
    gpu_tree_reduce_fds,
)
from repro.graph.sparse import CSRMatrix, from_edges

__all__ = [
    "GRAPH_FAMILIES",
    "sample_graph_spec",
    "make_graph",
    "UDFFamily",
    "UDFInstance",
    "UDF_FAMILIES",
    "sample_fds_spec",
    "make_fds",
    "SPMM_AGGREGATIONS",
]

# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------

GRAPH_FAMILIES = (
    "random",       # uniform multigraph (parallel edges allowed)
    "empty",        # zero edges: every row is empty
    "self_loops",   # diagonal edges plus random extras
    "coalesced",    # duplicate-free CSR (each (dst, src) pair at most once)
    "power_law",    # heavy skew: a few sources on most edges
    "lonely_rows",  # most destination rows empty, the rest degree >= 1
    "hub_rows",     # a few destinations own most edges, each its own degree
)


def sample_graph_spec(rnd: random.Random) -> dict:
    """Sample a small graph spec (JSON-serializable dict)."""
    family = rnd.choice(GRAPH_FAMILIES)
    n_src = rnd.randint(1, 12)
    n_dst = rnd.randint(1, 12)
    m = rnd.randint(0, 3 * max(n_src, n_dst))
    return {"family": family, "n_src": n_src, "n_dst": n_dst, "m": m,
            "seed": rnd.randrange(2**31)}


def make_graph(spec: dict) -> CSRMatrix:
    """Materialize a graph spec into a pull-layout CSR adjacency."""
    family = spec["family"]
    n_src, n_dst, m = int(spec["n_src"]), int(spec["n_dst"]), int(spec["m"])
    rng = np.random.default_rng(int(spec["seed"]))
    if family == "empty":
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    elif family == "random":
        src = rng.integers(0, n_src, m)
        dst = rng.integers(0, n_dst, m)
    elif family == "self_loops":
        n = min(n_src, n_dst)
        extra = m // 2
        src = np.concatenate([np.arange(n), rng.integers(0, n_src, extra)])
        dst = np.concatenate([np.arange(n), rng.integers(0, n_dst, extra)])
    elif family == "coalesced":
        k = min(m, n_src * n_dst)
        flat = rng.choice(n_src * n_dst, size=k, replace=False)
        dst, src = np.divmod(flat, n_src)
    elif family == "power_law":
        ranks = np.arange(1, n_src + 1, dtype=np.float64)
        p = ranks ** -1.2
        p /= p.sum()
        src = rng.choice(n_src, size=m, p=p)
        dst = rng.integers(0, n_dst, m)
    elif family == "hub_rows":
        # destination i (in a shuffled order) draws an edge with weight
        # 2**-i: the first few rows hold most edges at degrees no other row
        # shares, so a chunk's degree buckets are mostly one row each
        p = 0.5 ** np.arange(n_dst, dtype=np.float64)
        p /= p.sum()
        src = rng.integers(0, n_src, m)
        dst = rng.permutation(n_dst)[rng.choice(n_dst, size=m, p=p)]
    elif family == "lonely_rows":
        occupied = max(1, n_dst // 4)
        src = rng.integers(0, n_src, m)
        dst = rng.integers(0, occupied, m)
    else:
        raise ValueError(f"unknown graph family {family!r}")
    return from_edges(n_src, n_dst, src, dst)


# ----------------------------------------------------------------------
# UDF families
# ----------------------------------------------------------------------

@dataclass
class UDFInstance:
    """A concrete UDF: tensorir builder plus an independent numpy reference.

    ``udf(src, dst, eid) -> Tensor`` is what the kernel compiles;
    ``reference(bindings, src_ids, dst_ids, eids) -> (m, *out_shape)``
    computes the per-edge messages with plain numpy.
    """

    udf: Callable
    placeholders: dict[str, tuple]
    reference: Callable
    out_shape: tuple


@dataclass
class UDFFamily:
    """A parameterized family of UDFs usable by one or both templates."""

    name: str
    kinds: tuple  # subset of ("spmm", "sddmm")
    make: Callable[[dict], UDFInstance]
    has_reduction: bool = False
    dims: tuple = ()  # which of ("f", "d", "h", "w") parameterize the family


def _copy_u(dims: dict) -> UDFInstance:
    n, f = dims["n"], dims["f"]
    XV = T.placeholder((n, f), name="XV")

    def udf(src, dst, eid):
        return T.compute((f,), lambda i: XV[src, i], name="cp_u")

    return UDFInstance(
        udf, {"XV": (n, f)},
        lambda b, s, d, e: b["XV"][s],
        (f,))


def _copy_e(dims: dict) -> UDFInstance:
    m, f = dims["m"], dims["f"]
    EW = T.placeholder((m, f), name="EW")

    def udf(src, dst, eid):
        return T.compute((f,), lambda i: EW[eid, i], name="cp_e")

    return UDFInstance(
        udf, {"EW": (m, f)},
        lambda b, s, d, e: b["EW"][e],
        (f,))


def _u_mul_e(dims: dict) -> UDFInstance:
    """``XV[src] * EW[eid]`` on ``(h, f)`` features; ``w`` is the weight's
    rank: 0 a scalar per edge, 1 one value per head, 2 the full-width
    elementwise product.  The first two are pure row gathers the default
    plan never materializes, the third stays a compiled program."""
    n, m, h, f = dims["n"], dims["m"], dims["h"], dims["f"]
    w = int(dims.get("w", 1))
    XV = T.placeholder((n, h, f), name="XV")
    EW = T.placeholder((m, h, f)[:1 + w], name="EW")

    def udf(src, dst, eid):
        return T.compute(
            (h, f), lambda i, j: XV[src, i, j] * EW[(eid, i, j)[:1 + w]],
            name="ume")

    return UDFInstance(
        udf, {"XV": (n, h, f), "EW": (m, h, f)[:1 + w]},
        lambda b, s, d, e: b["XV"][s] * b["EW"][e].reshape(
            (len(e), h, f)[:1 + w] + (1,) * (2 - w)),
        (h, f))


def _u_mul_v(dims: dict) -> UDFInstance:
    n, f = dims["n"], dims["f"]
    XV = T.placeholder((n, f), name="XV")
    YV = T.placeholder((n, f), name="YV")

    def udf(src, dst, eid):
        return T.compute((f,), lambda i: XV[src, i] * YV[dst, i], name="umv")

    return UDFInstance(
        udf, {"XV": (n, f), "YV": (n, f)},
        lambda b, s, d, e: b["XV"][s] * b["YV"][d],
        (f,))


def _transposed_u_mul_v(dims: dict) -> UDFInstance:
    """``XT[i, src] * YV[dst, i]``: the source table is stored feature-major,
    so its batch index is not the leading subscript."""
    n, f = dims["n"], dims["f"]
    XT = T.placeholder((f, n), name="XT")
    YV = T.placeholder((n, f), name="YV")

    def udf(src, dst, eid):
        return T.compute((f,), lambda i: XT[i, src] * YV[dst, i],
                         name="tumv")

    return UDFInstance(
        udf, {"XT": (f, n), "YV": (n, f)},
        lambda b, s, d, e: b["XT"][:, s].T * b["YV"][d],
        (f,))


def _u_add_v_scaled(dims: dict) -> UDFInstance:
    n, f = dims["n"], dims["f"]
    XV = T.placeholder((n, f), name="XV")
    YV = T.placeholder((n, f), name="YV")

    def udf(src, dst, eid):
        return T.compute((f,), lambda i: XV[src, i] + YV[dst, i] * 0.5,
                         name="uav")

    return UDFInstance(
        udf, {"XV": (n, f), "YV": (n, f)},
        lambda b, s, d, e: b["XV"][s] + 0.5 * b["YV"][d],
        (f,))


def _mlp_family(body, reference):
    """``relu(sum_k body(XV, W, src, dst, k, j))``: the contraction shapes
    the vectorizer lowers to one GEMM, in each operand order."""

    def make(dims: dict) -> UDFInstance:
        n, d1, f = dims["n"], dims["d"], dims["f"]
        XV = T.placeholder((n, d1), name="XV")
        W = T.placeholder((d1, f), name="W")

        def udf(src, dst, eid):
            k = T.reduce_axis((0, d1), name="k")
            return T.compute(
                (f,), lambda j: T.relu(T.sum_reduce(
                    body(XV, W, src, dst, k, j), axis=k)),
                name="mlp")

        return UDFInstance(
            udf, {"XV": (n, d1), "W": (d1, f)},
            lambda b, s, d, e: np.maximum(
                reference(b["XV"], s, d) @ b["W"], 0.0),
            (f,))

    return make


_mlp = _mlp_family(lambda XV, W, src, dst, k, j: XV[src, k] * W[k, j],
                   lambda xv, s, d: xv[s])
_mlp_u_add_v = _mlp_family(
    lambda XV, W, src, dst, k, j: (XV[src, k] + XV[dst, k]) * W[k, j],
    lambda xv, s, d: xv[s] + xv[d])
_mlp_weight_first = _mlp_family(
    lambda XV, W, src, dst, k, j: W[k, j] * XV[src, k],
    lambda xv, s, d: xv[s])


def _dot(dims: dict) -> UDFInstance:
    n, d1 = dims["n"], dims["d"]
    XV = T.placeholder((n, d1), name="XV")
    YV = T.placeholder((n, d1), name="YV")

    def udf(src, dst, eid):
        k = T.reduce_axis((0, d1), name="k")
        return T.compute(
            (1,), lambda i: T.sum_reduce(XV[src, k] * YV[dst, k], axis=k),
            name="dot")

    return UDFInstance(
        udf, {"XV": (n, d1), "YV": (n, d1)},
        lambda b, s, d, e: (b["XV"][s] * b["YV"][d]).sum(
            axis=-1, keepdims=True),
        (1,))


def _multihead_dot(dims: dict) -> UDFInstance:
    n, h, d1 = dims["n"], dims["h"], dims["d"]
    QH = T.placeholder((n, h, d1), name="QH")
    KH = T.placeholder((n, h, d1), name="KH")

    def udf(src, dst, eid):
        k = T.reduce_axis((0, d1), name="k")
        return T.compute(
            (h,), lambda hh: T.sum_reduce(QH[src, hh, k] * KH[dst, hh, k],
                                          axis=k),
            name="mh_dot")

    return UDFInstance(
        udf, {"QH": (n, h, d1), "KH": (n, h, d1)},
        lambda b, s, d, e: np.einsum("mhk,mhk->mh", b["QH"][s], b["KH"][d]),
        (h,))


def _exp_gate(dims: dict) -> UDFInstance:
    n, f = dims["n"], dims["f"]
    XV = T.placeholder((n, f), name="XV")

    def udf(src, dst, eid):
        return T.compute((f,), lambda i: T.exp(XV[src, i] * 0.25), name="expg")

    return UDFInstance(
        udf, {"XV": (n, f)},
        lambda b, s, d, e: np.exp(0.25 * b["XV"][s]),
        (f,))


UDF_FAMILIES: dict[str, UDFFamily] = {
    fam.name: fam for fam in [
        UDFFamily("copy_u", ("spmm", "sddmm"), _copy_u, dims=("f",)),
        UDFFamily("copy_e", ("spmm", "sddmm"), _copy_e, dims=("f",)),
        UDFFamily("u_mul_e", ("spmm",), _u_mul_e, dims=("f", "h", "w")),
        UDFFamily("u_mul_v", ("spmm", "sddmm"), _u_mul_v, dims=("f",)),
        UDFFamily("transposed_u_mul_v", ("spmm", "sddmm"),
                  _transposed_u_mul_v, dims=("f",)),
        UDFFamily("u_add_v_scaled", ("spmm", "sddmm"), _u_add_v_scaled,
                  dims=("f",)),
        UDFFamily("mlp", ("spmm",), _mlp, has_reduction=True,
                  dims=("f", "d")),
        UDFFamily("mlp_u_add_v", ("spmm", "sddmm"), _mlp_u_add_v,
                  has_reduction=True, dims=("f", "d")),
        UDFFamily("mlp_weight_first", ("spmm", "sddmm"), _mlp_weight_first,
                  has_reduction=True, dims=("f", "d")),
        UDFFamily("dot", ("spmm", "sddmm"), _dot, has_reduction=True,
                  dims=("d",)),
        UDFFamily("multihead_dot", ("sddmm",), _multihead_dot,
                  has_reduction=True, dims=("d", "h")),
        UDFFamily("exp_gate", ("spmm", "sddmm"), _exp_gate, dims=("f",)),
    ]
}

SPMM_AGGREGATIONS = ("sum", "max", "min", "mean", "prod")


# ----------------------------------------------------------------------
# FDS schedules
# ----------------------------------------------------------------------

def sample_fds_spec(rnd: random.Random, target: str,
                    has_reduction: bool) -> dict | None:
    """Sample an FDS spec legal for the target/UDF combination."""
    if target == "cpu":
        choices = [None, "cpu_tile", "cpu_multilevel"]
    else:
        choices = [None, "gpu_feature_thread", "gpu_multilevel"]
        if has_reduction:
            choices.append("gpu_tree_reduce")
    name = rnd.choice(choices)
    if name is None:
        return None
    spec: dict = {"name": name}
    if name == "cpu_tile":
        spec["factor"] = rnd.randint(1, 8)
    elif name == "cpu_multilevel":
        spec["out_factor"] = rnd.randint(1, 8)
        spec["reduce_factor"] = rnd.randint(1, 8)
    return spec


def make_fds(spec: dict | None) -> FDS | None:
    """Materialize an FDS spec (None = template default)."""
    if spec is None:
        return None
    name = spec["name"]
    if name == "cpu_tile":
        return cpu_tile_fds(int(spec.get("factor", 8)))
    if name == "cpu_multilevel":
        return cpu_multilevel_fds(int(spec.get("out_factor", 8)),
                                  int(spec.get("reduce_factor", 8)))
    if name == "gpu_feature_thread":
        return gpu_feature_thread_fds()
    if name == "gpu_tree_reduce":
        return gpu_tree_reduce_fds()
    if name == "gpu_multilevel":
        return gpu_multilevel_fds()
    raise ValueError(f"unknown FDS spec {name!r}")
