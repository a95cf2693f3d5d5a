"""FeatGraph core: the paper's primary contribution.

The public API mirrors the paper's code listings (Figs. 3 and 4)::

    import repro.core as featgraph
    from repro import tensorir as tvm

    A = featgraph.spmat(adj)                      # wrap a CSR adjacency
    XV = tvm.placeholder((n, d), name="XV")

    def msgfunc(src, dst, eid):                   # fine-grained UDF
        return tvm.compute((d,), lambda i: XV[src, i])

    def cpu_schedule(out):                        # feature dimension schedule
        s = tvm.create_schedule(out)
        s[out].split(out.op.axis[0], factor=8)
        return s

    GCN = featgraph.spmm(A, msgfunc, "sum", target="cpu", fds=cpu_schedule)
    H = GCN.run({"XV": features})
    cost = GCN.cost()                              # machine-model estimate

Submodules:

- :mod:`repro.core.api` -- ``spmat`` / ``spmm`` / ``sddmm`` entry points.
- :mod:`repro.core.fds` -- feature-dimension-schedule handling and prebuilt
  FDS factories for CPU tiling / GPU thread binding / tree reduction.
- :mod:`repro.core.spmm` -- the generalized SpMM template (vertex-wise).
- :mod:`repro.core.sddmm` -- the generalized SDDMM template (edge-wise).
- :mod:`repro.core.compile` -- the unified compile pipeline: ``KernelSpec``
  kernel identity, named compile passes, and the process-wide instrumented
  ``KernelCache``.
- :mod:`repro.core.kernels` -- prebuilt GNN kernels (GCN aggregation, MLP
  aggregation, dot-product attention, DGL builtin message functions).
- :mod:`repro.core.builtins` -- the single registry of DGL builtin
  message/edge function factories.
- :mod:`repro.core.tuner` -- grid-search tuning of scheduling parameters.
- :mod:`repro.core.cost` -- UDF flop analysis feeding the machine models.
"""

from repro.core.api import spmat, SparseMat
from repro.core.fds import (
    FDS,
    cpu_tile_fds,
    cpu_multilevel_fds,
    gpu_feature_thread_fds,
    gpu_tree_reduce_fds,
    gpu_multilevel_fds,
    default_fds,
    default_fds_for,
)
from repro.core.spmm import GeneralizedSpMM
from repro.core.sddmm import GeneralizedSDDMM
from repro.core import builtins
from repro.core import kernels
from repro.core.tuner import AnnealingTuner, GridTuner, RandomTuner, TuneResult

from repro.core.softmax import EdgeSoftmax
from repro.core.transfer import TunedConfig, TuningCache, transfer_config
from repro.core.verify import verify_sddmm, verify_spmm
from repro.core.bindings import BindingError
from repro.core.compile import (
    CompilePipeline,
    KernelCache,
    KernelSpec,
    compile_sddmm,
    compile_spmm,
    get_kernel_cache,
    set_kernel_cache,
    use_kernel_cache,
)

# Bind the entry-point functions *after* the submodule imports above: the
# `repro.core.spmm` / `repro.core.sddmm` module objects would otherwise
# shadow the same-named functions on the package.
from repro.core.api import spmm, sddmm  # noqa: E402

__all__ = [
    "spmat",
    "spmm",
    "sddmm",
    "SparseMat",
    "FDS",
    "cpu_tile_fds",
    "cpu_multilevel_fds",
    "gpu_feature_thread_fds",
    "gpu_tree_reduce_fds",
    "gpu_multilevel_fds",
    "default_fds",
    "default_fds_for",
    "GeneralizedSpMM",
    "GeneralizedSDDMM",
    "builtins",
    "kernels",
    "GridTuner",
    "RandomTuner",
    "AnnealingTuner",
    "TuneResult",
    "CompilePipeline",
    "KernelCache",
    "KernelSpec",
    "compile_spmm",
    "compile_sddmm",
    "get_kernel_cache",
    "set_kernel_cache",
    "use_kernel_cache",
    "EdgeSoftmax",
    "TunedConfig",
    "TuningCache",
    "transfer_config",
    "verify_spmm",
    "verify_sddmm",
    "BindingError",
]
