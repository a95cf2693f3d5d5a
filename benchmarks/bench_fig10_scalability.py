"""Fig. 10: multi-threaded scaling of GCN aggregation (reddit, f=512).

FeatGraph's cooperative scheduling (all threads on one partition, avoiding
LLC contention) scales to 12.6x at 16 threads in the paper, versus 9.5x for
Ligra and 9.8x for MKL.  The modeled curves reproduce the ordering; an extra
ablation series shows the naive partition-per-thread strategy FeatGraph
avoids.  The measured part times a WorkPool running real partitioned
aggregation in the same order: one partition at a time, its rows split
across all workers.
"""

import numpy as np

from repro.bench import paper
from repro.bench.tables import Table
from repro.hwsim import cpu
from repro.hwsim.spec import XEON_8124M

from _common import record

THREADS = (1, 2, 4, 8, 16)
F = 512


def _speedups(frame, **kw):
    t1 = cpu.spmm_time(XEON_8124M, kw.pop("stats"), F, frame=frame,
                       threads=1, **kw).seconds
    out = {}
    for t in THREADS:
        tt = cpu.spmm_time(XEON_8124M, kw["stats"] if "stats" in kw else None,
                           F, frame=frame, threads=t, **kw)
        out[t] = t1 / tt.seconds
    return out


def test_fig10_scalability(stats, scaled, benchmark):
    st = stats["reddit"]

    def sweep(frame, **kw):
        t1 = cpu.spmm_time(XEON_8124M, st, F, frame=frame, threads=1, **kw).seconds
        return {t: t1 / cpu.spmm_time(XEON_8124M, st, F, frame=frame,
                                      threads=t, **kw).seconds
                for t in THREADS}

    fg = sweep(cpu.FEATGRAPH_CPU, num_graph_partitions=16,
               num_feature_partitions=16)
    lig = sweep(cpu.LIGRA_CPU)
    mkl = sweep(cpu.MKL_CPU)
    # ablation: FeatGraph schedule but partition-per-thread (non-cooperative)
    naive = sweep(cpu.FEATGRAPH_CPU.with_(cooperative_threads=False),
                  num_graph_partitions=16, num_feature_partitions=16)

    t = Table("Fig. 10: speedup over single-threaded (GCN agg, reddit, f=512)",
              ["threads", "FeatGraph paper", "FeatGraph repro", "Ligra paper",
               "Ligra repro", "MKL paper", "MKL repro",
               "FG partition-per-thread (ablation)"])
    for th in THREADS:
        t.add(th,
              f"{paper.FIG10_SCALABILITY['FeatGraph'][th]:.1f}x", f"{fg[th]:.1f}x",
              f"{paper.FIG10_SCALABILITY['Ligra'][th]:.1f}x", f"{lig[th]:.1f}x",
              f"{paper.FIG10_SCALABILITY['MKL'][th]:.1f}x", f"{mkl[th]:.1f}x",
              f"{naive[th]:.1f}x")
    t.show()
    record("fig10_scalability", {"FeatGraph": fg, "Ligra": lig, "MKL": mkl,
                                 "naive_partition_per_thread": naive})

    # shape: FeatGraph scales best; cooperative beats partition-per-thread
    assert fg[16] > lig[16] and fg[16] > mkl[16]
    assert fg[16] > naive[16]
    assert 8 < fg[16] <= 16

    # measured: cooperative partitioned aggregation through a WorkPool
    from repro.graph.partition import partition_1d
    from repro.graph.segment import segment_reduce
    from repro.tensorir.runtime import WorkPool

    ds = scaled["reddit"]
    n = ds.num_vertices
    x = np.random.default_rng(0).random((n, 64), dtype=np.float32)
    parts = partition_1d(ds.adj, 4)
    workers = 4
    cuts = [(i * n) // workers for i in range(workers + 1)]
    row_ranges = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]

    def run(pool):
        out = np.zeros((n, 64), dtype=np.float32)

        def work(csr, lo, hi):
            e0, e1 = csr.indptr[lo], csr.indptr[hi]
            if e1 > e0:
                seg = segment_reduce(x[csr.indices[e0:e1]],
                                     csr.indptr[lo:hi + 1] - e0, "sum")
                out[lo:hi] += seg

        for part in parts:          # all workers on one partition at a time
            pool.map(lambda rows, csr=part.csr: work(csr, *rows), row_ranges)
        return out

    with WorkPool(workers) as pool:
        benchmark(run, pool)
