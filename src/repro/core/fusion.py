"""The route switch between minidgl's native calls and the staged kernels.

The FeatGraph backend's model forwards are native calls
(:mod:`repro.minidgl.backends`): GCN/SAGE's copy-u sum is one segment sum,
and GAT's softmax-aggregate a ``reduceat`` max, an in-place ``exp`` and two
segment sums.  ``use_fusion(False)`` scopes the staged kernels back in --
``edge_softmax`` then ``spmm_mul_sum``, ``spmm_copy_sum`` -- which is how
tests run the oracle the native routes are checked against.  The paper's
fusion, inside one kernel (template + UDF + FDS), is what
:mod:`repro.core.compile` builds; ``docs/fusion.md`` says why no
cross-kernel chain remains.
"""

from __future__ import annotations

import contextlib

__all__ = ["fuse_enabled", "use_fusion"]

_FUSE_OVERRIDE: list = []  # scoped overrides pushed by use_fusion()


def fuse_enabled() -> bool:
    """Whether minidgl takes its backend's native routes (the copy-u sum,
    GAT's softmax-aggregate): the innermost :func:`use_fusion` scope
    decides, and outside any scope they are on."""
    return _FUSE_OVERRIDE[-1] if _FUSE_OVERRIDE else True


@contextlib.contextmanager
def use_fusion(flag: bool = True):
    """Scoped choice of route: ``use_fusion(False)`` runs the staged
    kernels (the oracle), ``use_fusion(True)`` the native routes."""
    _FUSE_OVERRIDE.append(bool(flag))
    try:
        yield
    finally:
        _FUSE_OVERRIDE.pop()
