"""A miniature tensor compiler, standing in for Apache TVM.

FeatGraph expresses per-vertex/per-edge feature computations (UDFs) in TVM's
tensor-expression language and optimizes them with TVM schedules.  This
package reimplements, from scratch, the subset of TVM that the paper's code
listings exercise:

- :mod:`repro.tensorir.expr` -- the tensor-expression language
  (``placeholder``, ``compute``, ``reduce_axis``, arithmetic, reductions).
- :mod:`repro.tensorir.schedule` -- schedule primitives
  (``split``, ``tile``, ``fuse``, ``reorder``, ``bind``, ``tree_reduce``,
  ``parallel``, ``vectorize``, ``unroll``, ``cache_read``).
- :mod:`repro.tensorir.ir` -- a loop-nest intermediate representation.
- :mod:`repro.tensorir.lower` -- lowering of a scheduled compute to loop IR.
- :mod:`repro.tensorir.cuda_codegen` -- C rendering of UDF expressions and
  combine steps for the fused templates' CUDA source.
- :mod:`repro.tensorir.evaluator` -- a vectorized (numpy) interpreter for
  tensor expressions with batched free variables; the differential oracle
  for the compiled programs (never an execution path).
- :mod:`repro.tensorir.vectorize` -- a batched-UDF compiler that lowers a
  compute body once into a straight-line vectorized numpy program (constant
  folding, CSE, dead-branch pruning, buffer reuse); the execution engine
  used by FeatGraph's sparse templates.
- :mod:`repro.tensorir.runtime` -- runtime execution counters, the row
  gather, and the thread pool the ``parallel`` aggregation strategy maps on.
- :mod:`repro.tensorir.validate` -- schedule legality checking and
  structural IR validation, run by :func:`lower` before/after lowering.
"""

from repro.tensorir.expr import (
    Expr,
    Var,
    IterVar,
    IntImm,
    FloatImm,
    BinOp,
    Call,
    Select,
    Cast,
    Reduce,
    TensorElem,
    Tensor,
    ComputeOp,
    PlaceholderOp,
    placeholder,
    compute,
    reduce_axis,
    sum as sum_reduce,
    max as max_reduce,
    min as min_reduce,
    prod as prod_reduce,
    exp,
    log,
    sqrt,
    tanh,
    sigmoid,
    relu,
    maximum,
    minimum,
    select,
    const,
)
from repro.tensorir.schedule import Schedule, Stage, create_schedule
from repro.tensorir.evaluator import evaluate, evaluate_batched
from repro.tensorir.lower import lower
from repro.tensorir.runtime import ExecStats, WorkPool, default_pool
from repro.tensorir.vectorize import (
    VectorizeError,
    VectorProgram,
    compile_batched,
)
from repro.tensorir.validate import (
    IRValidationError,
    ScheduleError,
    validate_ir,
    validate_schedule,
)

__all__ = [
    "Expr",
    "Var",
    "IterVar",
    "IntImm",
    "FloatImm",
    "BinOp",
    "Call",
    "Select",
    "Cast",
    "Reduce",
    "TensorElem",
    "Tensor",
    "ComputeOp",
    "PlaceholderOp",
    "placeholder",
    "compute",
    "reduce_axis",
    "sum_reduce",
    "max_reduce",
    "min_reduce",
    "prod_reduce",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "maximum",
    "minimum",
    "select",
    "const",
    "Schedule",
    "Stage",
    "create_schedule",
    "evaluate",
    "evaluate_batched",
    "lower",
    "ExecStats",
    "WorkPool",
    "default_pool",
    "VectorizeError",
    "VectorProgram",
    "compile_batched",
    "ScheduleError",
    "IRValidationError",
    "validate_schedule",
    "validate_ir",
]
