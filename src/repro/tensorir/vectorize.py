"""Batched-UDF compilation to straight-line vectorized numpy programs.

:func:`evaluate_batched` tree-walks the UDF expression per edge chunk:
every chunk pays Python dispatch per AST node, rebuilds the same broadcast
reshapes, and materializes a temporary per subexpression.  This module
closes that gap (the paper's "fused by a tensor compiler" claim, Sec. III):
:func:`compile_batched` lowers a :class:`~repro.tensorir.expr.ComputeOp`
body *once* into a :class:`VectorProgram` -- generated Python source whose
body is a straight line of numpy calls -- which per-chunk execution then
replays with no compilation work and no allocation beyond the live set.

Optimizations applied while lowering:

- **constant folding** -- subtrees with all-constant operands execute at
  compile time with the exact numpy ops and dtypes the interpreter would
  have used, so folded results are bit-identical;
- **common-subexpression elimination** -- structurally identical subtrees
  compute once (edge-softmax's repeated ``exp(ES[eid,i] - MAXV[dst,i])`` is
  the motivating case);
- **dead-branch pruning** -- a ``Select`` with a constant condition emits
  only the taken branch (when both branches agree on dtype, so the pruned
  program matches ``np.where``'s type promotion);
- **vectorized reductions** -- a reduction over a small compile-time
  domain becomes an extra array dimension collapsed by one
  ``ufunc.reduce(..., keepdims=True)`` call (dot-product attention's
  feature reduction is the motivating case) instead of a Python loop;
- **contractions** -- a ``sum`` reduction over a product of one
  batch-gathered operand spanning only the reduce axes (any elementwise
  subtree, e.g. ``XV[src,k] + XV[dst,k]``) and one plain batch-free tensor
  read spanning the reduce axes plus output axes (``W[k,i]``), both the
  same float dtype, in either operand order, becomes a single
  ``np.matmul`` of the ``(B, K)`` operand with the ``(K, tile)`` view of
  the weight (MLP aggregation is the motivating case); any other reduce
  keeps the vector or loop form, and ``ProgramStats.reduce_forms`` records
  which form each reduce took and why;
- **feature-axis sums** -- the vector form of a float ``sum`` of a batched
  value over its trailing dimensions is one ``np.matmul`` of the value
  flattened to ``(-1, K)`` with a compile-time ``ones(K)`` (form
  ``gemv``): ``ufunc.reduce`` over a short trailing axis pays per output
  element, a GEMV per byte (dot-product attention's ``(B, heads, 16)``
  block is the motivating case: batched x batched, so no contraction);
- **loop-invariant code motion** -- instructions inside a (fallback)
  reduction loop that do not depend on the loop variable are hoisted out;
- **in-place buffer reuse** -- an elementwise op whose operand buffer dies
  at that instruction writes its result with ``out=`` into the dead buffer,
  and reduction accumulators combine in place;
- **flat gathers** -- tensor reads indexed by batch variables and output
  axes lower to a single row-gather-plus-slice (``XV[src, lo:hi]``) instead
  of pointwise broadcast fancy-indexing, which is both faster and moves
  fewer index bytes; whole rows gathered by one batch variable go through
  :func:`~repro.tensorir.runtime.take_rows` (``np.take`` where it can).

The generated program mirrors :func:`evaluate_batched` -- same numpy
ufuncs, same dtype promotion -- so the interpreter doubles as the
differential-testing oracle.  Elementwise programs and ``max``/``min``
reductions are bit-identical; vectorized ``sum``/``prod`` reductions use
numpy's pairwise combine order, and ``sum`` contractions and feature-axis
sums BLAS's blocked one, instead of the interpreter's sequential one, so
they agree to float rounding (well inside the suite's 1e-5 tolerance).
Expressions the compiler cannot handle raise :class:`VectorizeError`,
which kernel construction propagates: there is no interpreted execution
path to fall back to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.tensorir import expr as E
from repro.tensorir.runtime import take_rows

__all__ = [
    "VectorizeError",
    "ProgramStats",
    "VectorProgram",
    "compile_batched",
]

#: mask marker for the batch dimension (output axes are marked 0..n-1)
_BATCH = -1

_NP_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "int32": np.int32,
    "int64": np.int64,
    "bool": np.bool_,
}

#: BinOp -> ufunc expression (matches the interpreter's operators exactly)
_BIN_UFUNC = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "/": "np.true_divide",
    "//": "np.floor_divide",
    "%": "np.mod",
    "max": "np.maximum",
    "min": "np.minimum",
    "<": "np.less",
    "<=": "np.less_equal",
    ">": "np.greater",
    ">=": "np.greater_equal",
    "==": "np.equal",
    "!=": "np.not_equal",
}

#: unary Call intrinsics -> ufunc (the interpreter's _UNARY_FUNCS)
_CALL_UFUNC = {
    "exp": "np.exp",
    "log": "np.log",
    "sqrt": "np.sqrt",
    "tanh": "np.tanh",
    "abs": "np.abs",
    "floor": "np.floor",
    "ceil": "np.ceil",
}

_COMBINE_UFUNC = {
    "sum": "np.add",
    "prod": "np.multiply",
    "max": "np.maximum",
    "min": "np.minimum",
}

#: cap on compile-time iterations when folding an all-constant reduction
_FOLD_TRIP_LIMIT = 4096

#: largest reduction domain lowered to a vectorized ``ufunc.reduce``
#: (bigger domains fall back to a Python loop over pre-gathered rows)
_VEC_TRIP_LIMIT = 4096

#: cap on the product of all vectorized reduce extents in one program,
#: bounding the rank-extended intermediate arrays
_VEC_TOTAL_LIMIT = 1 << 16

#: a vectorized reduce materializes its source at (out-axes x trip); when
#: that intermediate exceeds the largest batch-gathered operand by more
#: than this factor (e.g. a dense (d1, d2) weight broadcast against a
#: (batch, d1) gather), the loop form's (batch, out-axes) accumulator moves
#: far less memory per item and wins despite the Python trip overhead
_VEC_EXPANSION_LIMIT = 4


class VectorizeError(Exception):
    """The expression is outside the subset the vectorizer compiles."""


@dataclass
class ProgramStats:
    """Counters describing one compiled program (how much the optimizer
    did, and what the per-chunk data movement looks like)."""

    ast_nodes: int = 0          #: expression nodes visited
    instructions: int = 0       #: numpy statements in the emitted body
    cse_hits: int = 0           #: subtrees served from the CSE memo
    constants_folded: int = 0   #: ops executed at compile time
    branches_pruned: int = 0    #: Select branches dropped (const cond)
    hoisted: int = 0            #: instructions moved out of reduce loops
    inplace_ops: int = 0        #: ops writing ``out=`` into a dead buffer
    gathers: int = 0            #: tensor reads emitted
    fast_gathers: int = 0       #: of those, flat row-gather specializations
    hoisted_gathers: int = 0    #: reduce-indexed reads pre-gathered as rows
    loops: int = 0              #: Python reduction loops emitted
    vector_reduces: int = 0     #: reductions lowered to one reduce / GEMV
    contractions: int = 0       #: sum-of-products reductions lowered to GEMM
    #: (axis names, "gemm" | "gemv" | "vector" | "loop", reason) per
    #: emitted reduce
    reduce_forms: list = field(default_factory=list)
    #: (itemsize, reads_batch, axes, trip, tensor) per gather, for bytes
    #: accounting
    loads: list = field(default_factory=list)
    #: upper bound on bytes gathered per batch element (chunk sizing)
    workset_bytes_per_item: int = 0


# ----------------------------------------------------------------------
# compile-time values and instructions
# ----------------------------------------------------------------------

_MISSING = object()


class _Value:
    """A register (or constant) produced while lowering.

    ``mask`` is the set of dimensions the value spans (``_BATCH`` and/or
    output-axis positions); together with the full-rank shaping convention
    it determines the runtime shape exactly.  ``block`` is where the
    defining instruction lives -- buffer reuse never crosses blocks.
    """

    __slots__ = ("name", "np_dtype", "mask", "block", "const", "writable")

    def __init__(self, name, np_dtype, mask, block, const=_MISSING,
                 writable=True):
        self.name = name
        self.np_dtype = np.dtype(np_dtype) if np_dtype is not None else None
        self.mask = frozenset(mask)
        self.block = block
        self.const = const
        self.writable = writable

    @property
    def is_const(self):
        return self.const is not _MISSING


class _Block:
    __slots__ = ("depth", "items", "trip")

    def __init__(self, depth, trip):
        self.depth = depth
        self.items = []
        self.trip = trip


class _Raw:
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class _Instr:
    """``dest = fn(args...)`` (ufunc; eligible for out=) or
    ``dest = <template>`` (gather / where / astype; never in-place)."""

    __slots__ = ("dest", "fn", "tokens", "operands", "inplace_ok",
                 "template", "pos")

    def __init__(self, dest, fn, tokens, operands, inplace_ok,
                 template=None):
        self.dest = dest
        self.fn = fn
        self.tokens = tokens
        self.operands = operands
        self.inplace_ok = inplace_ok
        self.template = template
        self.pos = -1


class _Init:
    __slots__ = ("acc",)

    def __init__(self, acc):
        self.acc = acc


class _Loop:
    __slots__ = ("var", "lo", "hi", "body")

    def __init__(self, var, lo, hi, body):
        self.var = var
        self.lo = lo
        self.hi = hi
        self.body = body


class _Combine:
    """The reduction-combine statement at the innermost loop level.

    ``init`` selects the first-iteration form: ``"alias"`` binds the
    accumulator to the body value's buffer (safe only when that buffer is
    fresh each iteration), ``"copy"`` copies a loop-invariant array, and
    ``"plain"`` is for scalars.  ``use_out`` combines in place.
    """

    __slots__ = ("acc", "val", "tok", "fn", "init", "use_out", "pos")

    def __init__(self, acc, val, tok, fn, init, use_out):
        self.acc = acc
        self.val = val
        self.tok = tok
        self.fn = fn
        self.init = init
        self.use_out = use_out
        self.pos = -1


def _literal(v):
    """An eval-able source token for a folded constant."""
    if isinstance(v, (bool, int, float)):
        return repr(v)
    return repr(v)  # numpy scalars repr as "np.float32(1.5)" etc.


# ----------------------------------------------------------------------
# the compiler
# ----------------------------------------------------------------------


class _Compiler:
    def __init__(self, op: E.ComputeOp):
        self.op = op
        self.n = len(op.axis)
        self.axis_pos = {ax.name: j for j, ax in enumerate(op.axis)}
        self.stats = ProgramStats()
        self.root = _Block(0, 1)
        self.stack = [self.root]
        self._memo: dict = {}
        self._block_keys: dict[int, list] = {id(self.root): []}
        self._keys: dict[int, object] = {}
        self._keepalive: list = []
        self._dtype_memo: dict[int, np.dtype] = {}
        self._reg = 0
        self._acc = 0
        self._loopvar = 0
        self.tensors: dict[str, str] = {}     # tensor name -> local alias
        self.tensor_shapes: dict[str, tuple] = {}
        self.batch_vals: dict[str, _Value] = {}
        self.grids: dict[int, _Value] = {}
        self._active_loops: dict[str, _Value] = {}
        self._loop_doms: dict[str, tuple[int, int]] = {}
        self._pre_memo: dict = {}
        self.red_pos: dict[int, int] = {}   # id(IterVar) -> mask position
        self.red_extents: list[int] = []
        self._rgrids: dict[int, tuple[int, int, int]] = {}
        #: id(Reduce) -> (batched operand, weight read) when GEMM-shaped,
        #: else the reason it is not
        self._gemm: dict[int, tuple | str] = {}
        #: id(Reduce) -> why it takes the loop form
        self._why_loop: dict[int, str] = {}
        #: name -> array constants the program's namespace carries
        self.consts: dict[str, np.ndarray] = {}
        self._assign_reduce_positions(op.body)
        self.n_red = len(self.red_extents)

    def _assign_reduce_positions(self, body) -> None:
        """Prescan: small reduction domains become extra (vectorized)
        array dimensions instead of Python loops.  An axis qualifies only
        if every reduce using it fits the trip limit and the program-wide
        product of vectorized extents stays bounded.  Reduces shaped like a
        contraction (:meth:`_match_contraction`) are marked for GEMM
        lowering and skip the expansion check: their rank-extended
        intermediate is never materialized."""
        reduces: list[E.Reduce] = []
        blacklist: set[int] = set()
        stack = [body]
        while stack:
            node = stack.pop()
            if isinstance(node, E.Reduce):
                reduces.append(node)
                total = 1
                for ax in node.axes:
                    total *= ax.extent
                gemm = self._gemm[id(node)] = self._match_contraction(node)
                if not 0 < total <= _VEC_TRIP_LIMIT:
                    why_loop = f"trip {total} > {_VEC_TRIP_LIMIT}"
                elif isinstance(gemm, tuple):
                    why_loop = None
                else:
                    why_loop = self._expansion_too_large(node, total)
                if why_loop:
                    self._why_loop[id(node)] = why_loop
                    blacklist.update(id(ax) for ax in node.axes)
            stack.extend(node.children())
        product = 1
        for red in reduces:
            for ax in red.axes:
                if id(ax) in self.red_pos:
                    continue
                if id(ax) in blacklist:
                    self._why_loop.setdefault(
                        id(red), f"axis {ax.name} is shared with a loop reduce")
                    continue
                if product * ax.extent > _VEC_TOTAL_LIMIT:
                    self._why_loop.setdefault(
                        id(red), f"vectorized extents {product}\u00d7"
                        f"{ax.extent} > {_VEC_TOTAL_LIMIT}")
                    continue
                product *= ax.extent
                self.red_pos[id(ax)] = (len(self.op.axis)
                                        + len(self.red_extents))
                self.red_extents.append(ax.extent)
                self._keepalive.append(ax)

    def _span(self, node, red_ids):
        """What an operand subtree spans: ``(batched, output-axis
        positions, reduce-axis ids)``, or None when it nests a reduce or
        reads an axis that is neither an output axis nor in ``red_ids``."""
        batched, outs, reds = False, set(), set()
        stack = [node]
        while stack:
            x = stack.pop()
            if isinstance(x, E.Var):
                batched = True
            elif isinstance(x, E.IterVar):
                if id(x) in red_ids:
                    reds.add(id(x))
                elif x.name in self.axis_pos:
                    outs.add(self.axis_pos[x.name])
                else:
                    return None
            elif isinstance(x, E.Reduce):
                return None
            stack.extend(x.children())
        return batched, outs, reds

    def _match_contraction(self, red: "E.Reduce"):
        """``(batched operand, weight read)`` when ``red`` is a contraction
        a single GEMM computes -- ``sum`` over a product of one operand
        that is batch-gathered and spans exactly the reduce axes (any
        elementwise subtree) and one plain batch-free tensor read spanning
        the reduce axes plus output axes, both the same float dtype -- in
        either operand order.  Otherwise the reason it is not."""
        if red.combiner != "sum":
            return f"{red.combiner} combiner"
        src = red.source
        if not (isinstance(src, E.BinOp) and src.op == "*"):
            return "not a product"
        red_ids = {id(ax) for ax in red.axes}
        a, w = src.a, src.b
        a_span, w_span = self._span(a, red_ids), self._span(w, red_ids)
        if a_span is None or w_span is None:
            return "operand nests a reduce or reads an enclosing axis"
        if a_span[0] and w_span[0]:
            return "batched\u00d7batched"
        if w_span[0]:
            a, w, a_span, w_span = w, a, w_span, a_span
        elif not a_span[0]:
            return "no batched operand"
        (_, a_outs, a_reds), (_, _, w_reds) = a_span, w_span
        if a_outs:
            return "batched operand spans an output axis"
        if a_reds != red_ids or w_reds != red_ids:
            return "operand does not span every reduce axis"
        if not (isinstance(w, E.TensorElem)
                and all(isinstance(ix, E.IterVar) for ix in w.indices)
                and len({id(ix) for ix in w.indices}) == len(w.indices)):
            return "batch-free operand is not a plain tensor read"
        try:
            da, dw = self._infer_dtype(a), self._infer_dtype(w)
        except (VectorizeError, KeyError, ValueError):
            return "operand dtype not inferable"  # compile reports it
        if da != dw or da.kind != "f":
            return f"dtypes {da.name}\u00d7{dw.name}"
        return a, w

    def _expansion_too_large(self, red: "E.Reduce", trip: int):
        """Would vectorizing ``red`` blow up memory traffic?  Compares the
        rank-extended intermediate (all output axes its source references,
        times the reduction trip) against the largest batch-gathered
        operand; returns the comparison that failed, or None.  Sources
        with no batched operand (constant subtrees) are never rejected:
        they fold or broadcast for free."""
        red_ids = {id(ax) for ax in red.axes}
        out_axes: dict[int, int] = {}
        largest_batched = 0
        stack = [red.source]
        while stack:
            node = stack.pop()
            if isinstance(node, E.TensorElem):
                elems, batched = 1, False
                ix_stack = list(node.indices)
                while ix_stack:
                    ix = ix_stack.pop()
                    if isinstance(ix, E.Var):
                        batched = True
                    elif isinstance(ix, E.IterVar):
                        if ix.name in self.axis_pos:
                            out_axes[id(ix)] = ix.extent
                            elems *= ix.extent
                        elif id(ix) in red_ids:
                            elems *= ix.extent
                    elif isinstance(ix, E.BinOp):
                        ix_stack.extend((ix.a, ix.b))
                    elif isinstance(ix, E.Cast):
                        ix_stack.append(ix.value)
                if batched:
                    largest_batched = max(largest_batched, elems)
            elif isinstance(node, E.BinOp):
                stack.extend((node.a, node.b))
            elif isinstance(node, E.Call):
                stack.extend(node.args)
            elif isinstance(node, E.Select):
                stack.extend((node.cond, node.then, node.otherwise))
            elif isinstance(node, E.Cast):
                stack.append(node.value)
            elif isinstance(node, E.Reduce):
                stack.append(node.source)
        if largest_batched == 0:
            return None
        intermediate = trip
        for extent in out_axes.values():
            intermediate *= extent
        if intermediate > _VEC_EXPANSION_LIMIT * largest_batched:
            return (f"expansion {intermediate} > "
                    f"{_VEC_EXPANSION_LIMIT}\u00d7{largest_batched}")
        return None

    # -- naming --------------------------------------------------------
    def _new_reg(self):
        self._reg += 1
        return f"t{self._reg}"

    def _tok(self, v: _Value):
        return _literal(v.const) if v.is_const else v.name

    def _const(self, value):
        return _Value(None, np.asarray(value).dtype, (), self.root,
                      const=value, writable=False)

    # -- CSE memo ------------------------------------------------------
    def _key(self, node):
        k = self._keys.get(id(node))
        if k is not None:
            return k
        if isinstance(node, E.IntImm):
            k = ("i", node.value)
        elif isinstance(node, E.FloatImm):
            k = ("f", repr(node.value), node.dtype)
        elif isinstance(node, E.IterVar):
            k = ("iv", node.name)
        elif isinstance(node, E.Var):
            k = ("v", node.name)
        elif isinstance(node, E.TensorElem):
            k = ("elem", node.tensor.name,
                 tuple(self._key(i) for i in node.indices))
        elif isinstance(node, E.BinOp):
            k = ("bin", node.op, self._key(node.a), self._key(node.b))
        elif isinstance(node, E.Call):
            k = ("call", node.func, tuple(self._key(a) for a in node.args))
        elif isinstance(node, E.Select):
            k = ("sel", self._key(node.cond), self._key(node.then),
                 self._key(node.otherwise))
        elif isinstance(node, E.Cast):
            k = ("cast", node.dtype, self._key(node.value))
        elif isinstance(node, E.Reduce):
            k = ("red", node.combiner,
                 tuple((ax.name, ax.dom) for ax in node.axes),
                 self._key(node.source))
        else:
            raise VectorizeError(
                f"cannot vectorize node of type {type(node).__name__}")
        self._keys[id(node)] = k
        self._keepalive.append(node)
        return k

    def _remember(self, key, value: _Value):
        self._memo[key] = value
        self._block_keys[id(value.block)].append(key)

    # -- block stack ---------------------------------------------------
    def _push_block(self, trip):
        blk = _Block(len(self.stack), trip)
        self.stack.append(blk)
        self._block_keys[id(blk)] = []
        return blk

    def _pop_block(self):
        blk = self.stack.pop()
        for key in self._block_keys.pop(id(blk)):
            self._memo.pop(key, None)
        return blk

    def _target_block(self, operands):
        blk = self.root
        for v in operands:
            if isinstance(v, _Value) and v.block.depth > blk.depth:
                blk = v.block
        return blk

    # -- dtype inference (sampling real numpy ops) ---------------------
    def _sample(self, v: _Value):
        if v.is_const:
            return v.const
        return np.ones((), dtype=v.np_dtype)[()]

    def _infer_dtype(self, node) -> np.dtype:
        """Result dtype of ``node`` without emitting code: run the same
        numpy ops the interpreter would, on unit samples."""
        memo = self._dtype_memo
        d = memo.get(id(node))
        if d is not None:
            return d
        if isinstance(node, E.IntImm):
            d = np.dtype(np.int64)
        elif isinstance(node, E.FloatImm):
            d = np.dtype(np.float32 if node.dtype == "float32"
                         else np.float64)
        elif isinstance(node, (E.IterVar, E.Var)):
            d = np.dtype(np.int64)
        elif isinstance(node, E.TensorElem):
            d = np.dtype(_np_dtype(node.tensor.dtype))
        elif isinstance(node, E.Cast):
            d = np.dtype(_np_dtype(node.dtype))
        elif isinstance(node, E.Reduce):
            if any(ax.extent == 0 for ax in node.axes):
                d = np.dtype(np.float32)
            else:
                d = self._infer_dtype(node.source)
        else:
            with np.errstate(all="ignore"):
                if isinstance(node, E.BinOp):
                    fn = _bin_fn(node.op)
                    r = fn(_unit(self._infer_dtype(node.a)),
                           _unit(self._infer_dtype(node.b)))
                elif isinstance(node, E.Call):
                    args = [_unit(self._infer_dtype(a)) for a in node.args]
                    r = _call_sample(node.func, args)
                elif isinstance(node, E.Select):
                    r = np.where(_unit(self._infer_dtype(node.cond)),
                                 _unit(self._infer_dtype(node.then)),
                                 _unit(self._infer_dtype(node.otherwise)))
                else:
                    raise VectorizeError(
                        f"cannot vectorize node of type "
                        f"{type(node).__name__}")
            d = np.asarray(r).dtype
        memo[id(node)] = d
        self._keepalive.append(node)
        return d

    # -- emission helpers ----------------------------------------------
    def _emit_ufunc(self, fn_tok, sample_fn, operands) -> _Value:
        """Emit ``dest = fn(ops...)``, folding if every operand is const."""
        if all(v.is_const for v in operands):
            with np.errstate(all="ignore"):
                result = sample_fn(*[v.const for v in operands])
            self.stats.constants_folded += 1
            return self._const(result)
        with np.errstate(all="ignore"):
            r = sample_fn(*[self._sample(v) for v in operands])
        dtype = np.asarray(r).dtype
        mask = frozenset().union(*[v.mask for v in operands])
        block = self._target_block(operands)
        dest = _Value(self._new_reg(), dtype, mask, block)
        instr = _Instr(dest, fn_tok, [self._tok(v) for v in operands],
                       [v for v in operands if not v.is_const],
                       inplace_ok=True)
        self._place(instr, block)
        return dest

    def _emit_expr(self, template, dtype, mask, operands,
                   block=None) -> _Value:
        """Emit ``dest = <template>`` (gather/where/astype; no out=)."""
        if block is None:
            block = self._target_block(operands)
        dest = _Value(self._new_reg(), dtype, mask, block)
        instr = _Instr(dest, None, [], [v for v in operands
                                        if isinstance(v, _Value)
                                        and not v.is_const],
                       inplace_ok=False, template=template)
        self._place(instr, block)
        return dest

    def _place(self, instr, block):
        if block is not self.stack[-1]:
            self.stats.hoisted += 1
        block.items.append(instr)
        self.stats.instructions += 1

    # -- node visitors -------------------------------------------------
    def compile(self, node) -> _Value:
        self.stats.ast_nodes += 1
        key = self._key(node)
        hit = self._memo.get(key)
        if hit is not None:
            if not isinstance(node, (E.IntImm, E.FloatImm, E.Var,
                                     E.IterVar)):
                self.stats.cse_hits += 1
            return hit
        val = self._compile_new(node)
        self._remember(key, val)
        return val

    def _compile_new(self, node) -> _Value:
        if isinstance(node, E.IntImm):
            # the interpreter maps every IntImm to np.int64
            return self._const(np.int64(node.value))
        if isinstance(node, E.FloatImm):
            ty = np.float32 if node.dtype == "float32" else np.float64
            return self._const(ty(node.value))
        if isinstance(node, E.IterVar):
            return self._itervar(node)
        if isinstance(node, E.Var):
            return self._batch_var(node)
        if isinstance(node, E.TensorElem):
            return self._gather(node)
        if isinstance(node, E.BinOp):
            a, b = self.compile(node.a), self.compile(node.b)
            return self._emit_ufunc(_BIN_UFUNC[node.op], _bin_fn(node.op),
                                    [a, b])
        if isinstance(node, E.Call):
            return self._call(node)
        if isinstance(node, E.Select):
            return self._select(node)
        if isinstance(node, E.Cast):
            return self._cast(node)
        if isinstance(node, E.Reduce):
            return self._reduce(node)
        raise VectorizeError(
            f"cannot vectorize node of type {type(node).__name__}")

    def _itervar(self, node: E.IterVar) -> _Value:
        if node.name in self._active_loops:
            return self._active_loops[node.name]
        j = self.axis_pos.get(node.name)
        if j is None or node.kind != E.IterVar.DATA:
            raise VectorizeError(
                f"iteration variable {node.name!r} is not an output axis "
                "of this compute op")
        grid = self.grids.get(j)
        if grid is None:
            grid = _Value(f"_g{j}", np.int64, (j,), self.root,
                          writable=False)
            self.grids[j] = grid
        return grid

    def _batch_var(self, node: E.Var) -> _Value:
        v = self.batch_vals.get(node.name)
        if v is None:
            if not node.name.isidentifier():
                raise VectorizeError(
                    f"free variable {node.name!r} is not an identifier")
            v = _Value(f"_b_{node.name}", np.int64, (_BATCH,), self.root,
                       writable=False)
            self.batch_vals[node.name] = v
        return v

    def _call(self, node: E.Call) -> _Value:
        args = [self.compile(a) for a in node.args]
        if node.func == "sigmoid":
            # exactly the interpreter's decomposition:
            #   1.0 / (1.0 + np.exp(-x))      (python-float literals)
            neg = self._emit_ufunc("np.negative", np.negative, [args[0]])
            ex = self._emit_ufunc("np.exp", np.exp, [neg])
            one = self._const(1.0)
            add = self._emit_ufunc("np.add", np.add, [one, ex])
            return self._emit_ufunc("np.true_divide", np.true_divide,
                                    [one, add])
        if node.func == "pow":
            return self._emit_ufunc("np.power", np.power, args)
        fn_tok = _CALL_UFUNC.get(node.func)
        if fn_tok is None:
            raise VectorizeError(f"unknown intrinsic {node.func!r}")
        return self._emit_ufunc(fn_tok, getattr(np, fn_tok[3:]), args)

    def _select(self, node: E.Select) -> _Value:
        cond = self.compile(node.cond)
        if cond.is_const:
            taken, other = ((node.then, node.otherwise) if cond.const
                            else (node.otherwise, node.then))
            # Pruning is exact only when both branches share a dtype
            # (np.where promotes to the common type).
            if self._infer_dtype(taken) == self._infer_dtype(other):
                self.stats.branches_pruned += 1
                return self.compile(taken)
        then = self.compile(node.then)
        other = self.compile(node.otherwise)
        if all(v.is_const for v in (cond, then, other)):
            result = np.where(cond.const, then.const, other.const)[()]
            self.stats.constants_folded += 1
            return self._const(result)
        with np.errstate(all="ignore"):
            r = np.where(self._sample(cond), self._sample(then),
                         self._sample(other))
        mask = cond.mask | then.mask | other.mask
        template = (f"np.where({self._tok(cond)}, {self._tok(then)}, "
                    f"{self._tok(other)})")
        return self._emit_expr(template, np.asarray(r).dtype, mask,
                               [cond, then, other])

    def _cast(self, node: E.Cast) -> _Value:
        val = self.compile(node.value)
        dt = _np_dtype(node.dtype)
        if val.is_const:
            self.stats.constants_folded += 1
            return self._const(np.dtype(dt).type(val.const))
        template = f"{self._tok(val)}.astype(np.{np.dtype(dt).name})"
        return self._emit_expr(template, dt, val.mask, [val])

    # -- tensor reads --------------------------------------------------
    def _tensor_alias(self, tensor: E.Tensor) -> str:
        alias = self.tensors.get(tensor.name)
        if alias is None:
            alias = f"_t{len(self.tensors)}"
            self.tensors[tensor.name] = alias
            self.tensor_shapes[tensor.name] = tensor.shape
        return alias

    def _gather(self, node: E.TensorElem) -> _Value:
        base = self._tensor_alias(node.tensor)
        self._gather_name = node.tensor.name
        dtype = np.dtype(_np_dtype(node.tensor.dtype))
        idx = [self.compile(i) for i in node.indices]
        self.stats.gathers += 1
        block = self._target_block(idx)
        trip = block.trip

        loop_ids = {id(lv): lv for lv in self._active_loops.values()}
        kinds = []
        for v in idx:
            if id(v) in loop_ids:
                kinds.append(("loopvar", v))
            elif any(v is g for g in self.grids.values()):
                j = next(j for j, g in self.grids.items() if v is g)
                kinds.append(("grid", j))
            elif any(v is b for b in self.batch_vals.values()):
                name = next(n for n, b in self.batch_vals.items() if v is b)
                kinds.append(("batch", name))
            elif id(v) in self._rgrids:
                kinds.append(("rgrid", self._rgrids[id(v)]))
            elif v.mask == frozenset():
                kinds.append(("scalar", v))
            else:
                kinds.append(("general", v))

        grid_axes = [j for k, j in kinds if k == "grid"]
        rgrid_info = [info for k, info in kinds if k == "rgrid"]
        has_batch = any(k == "batch" for k, _ in kinds)
        # slice-typed indices (output axes and vectorized reduce axes) must
        # land on strictly increasing result dimensions for the flat gather
        slice_pos = [info if k == "grid" else info[0]
                     for k, info in kinds if k in ("grid", "rgrid")]
        grids_ok = all(a < b for a, b in zip(slice_pos, slice_pos[1:]))
        no_general = not any(k == "general" for k, _ in kinds)
        # the flat forms expect numpy's broadcast (B,) dimension first,
        # which only a leading batch index guarantees: behind a slice
        # (``W[i, src]``) numpy leaves it where it stands
        flat_ok = (no_general and grids_ok
                   and (not has_batch or kinds[0][0] == "batch"))
        loopvars = [v for k, v in kinds if k == "loopvar"]
        mask = frozenset()
        for v in idx:
            mask |= v.mask

        if (loopvars and flat_ok and not rgrid_info
                and self._hoistable(kinds)):
            return self._hoisted_gather(base, dtype, kinds, idx,
                                        has_batch, grid_axes)

        if all(v.mask == frozenset() for v in idx):
            # the interpreter's scalar path: base[tuple(int(i) ...)]
            toks = ", ".join(f"int({self._tok(v)})" for v in idx)
            template = f"{base}[({toks})]" if idx else f"{base}[()]"
            self._record_load(dtype, False, (), trip)
            return self._emit_expr(template, dtype, (), idx, block=block)

        if flat_ok:
            return self._fast_gather(base, dtype, kinds, mask, idx, block,
                                     trip, has_batch, grid_axes)

        toks = []
        for (kind, info), v in zip(kinds, idx):
            if kind == "grid":
                toks.append(f"_g{info}")
            elif kind == "batch":
                toks.append(f"_b_{info}")
            else:
                toks.append(self._tok(v))
        template = f"{base}[{', '.join(toks)}]"
        # vectorized-reduce dims (mask positions >= n) are not output axes:
        # account them as a fixed per-item multiplier, not a sizes[] axis
        extra = 1
        for j in mask:
            if j != _BATCH and j >= self.n:
                extra *= self.red_extents[j - self.n]
        self._record_load(dtype, _BATCH in mask,
                          tuple(sorted(j for j in mask
                                       if j != _BATCH and j < self.n)),
                          trip * extra, extra_extent=extra)
        return self._emit_expr(template, dtype, mask, idx, block=block)

    def _hoistable(self, kinds) -> bool:
        """A loop-var-indexed gather can be pre-gathered outside its
        reduce loops when the remaining indices are loop-invariant (and
        integer-typed, so advanced-index semantics match)."""
        min_loop_depth = min(v.block.depth for k, v in kinds
                             if k == "loopvar")
        for kind, info in kinds:
            if kind == "scalar":
                if info.np_dtype is None or info.np_dtype.kind not in "iu":
                    return False
                if not info.is_const and info.block.depth >= min_loop_depth:
                    return False
        return True

    def _hoisted_gather(self, base, dtype, kinds, idx, has_batch,
                        grid_axes) -> _Value:
        """Pre-gather whole rows spanning the reduce domain(s) outside the
        loop; the in-loop read becomes a basic-index view.  Element values
        are identical to the per-iteration gather, so this is exact."""
        self.stats.fast_gathers += 1
        self.stats.hoisted_gathers += 1
        pre_ops = []     # loop-invariant operands
        pre_toks = []    # pre-gather subscript
        slice_kinds = []  # dims of the pre-gather result after [B?]
        extra_extent = 1
        for (kind, info), v in zip(kinds, idx):
            if kind == "loopvar":
                lo, hi = self._loop_doms[v.name]
                pre_toks.append((lo, hi))
                slice_kinds.append(("loop", v, lo))
                extra_extent *= hi - lo
            elif kind == "grid":
                pre_toks.append((f"_lo{info}", f"_hi{info}"))
                slice_kinds.append(("grid", info, 0))
            elif kind == "batch":
                pre_toks.append(f"_f_{info}")
                pre_ops.append(v)
            else:  # integer scalar (advanced, broadcasts with the flats)
                pre_toks.append(self._tok(v))
                pre_ops.append(v)

        pre_template = _gather_template(base, kinds[0][0] == "batch",
                                        pre_toks)
        pre_block = self._target_block(pre_ops)
        memo_key = (pre_template, id(pre_block))
        pre = self._pre_memo.get(memo_key)
        if pre is None:
            self._record_load(dtype, has_batch, tuple(grid_axes),
                              pre_block.trip * extra_extent,
                              extra_extent=extra_extent)
            pre = self._emit_expr(pre_template, dtype, (), pre_ops,
                                  block=pre_block)
            pre.writable = False
            self._pre_memo[memo_key] = pre
        else:
            self.stats.cse_hits += 1

        view_toks = [":"] if has_batch else []
        for kind, info, lo in slice_kinds:
            if kind == "grid":
                view_toks.append(":")
            else:
                view_toks.append(f"{info.name}" if lo == 0
                                 else f"({info.name} - {lo})")
        template = f"{pre.name}[{', '.join(view_toks)}]"
        mask = (frozenset([_BATCH]) if has_batch else frozenset())
        mask |= frozenset(grid_axes)
        if mask and not (has_batch and len(grid_axes) == self.n
                         and self.n_red == 0):
            lead = "_B" if has_batch else "1"
            dims = ([lead] + [f"_e{j}" if j in grid_axes else "1"
                              for j in range(self.n)]
                    + ["1"] * self.n_red)
            template += f".reshape(({', '.join(dims)}))"
        val = self._emit_expr(template, dtype, mask,
                              [pre] + [v for k, v in kinds
                                       if k == "loopvar"])
        val.writable = False  # a view of the pre-gather buffer
        return val

    def _record_load(self, dtype, has_batch, axes, trip,
                     extra_extent=1) -> None:
        self.stats.loads.append((dtype.itemsize, has_batch, tuple(axes),
                                 trip, getattr(self, "_gather_name", "")))
        if has_batch:
            ws = dtype.itemsize * extra_extent
            for j in axes:
                ws *= self.op.axis[j].extent
            self.stats.workset_bytes_per_item += ws

    def _fast_gather(self, base, dtype, kinds, mask, idx, block, trip,
                     has_batch, grid_axes) -> _Value:
        """Row-gather + slice: batch vars index as flat ``(B,)`` arrays and
        output axes as slices, so numpy gathers rows instead of evaluating
        a pointwise broadcast index."""
        self.stats.fast_gathers += 1
        toks = []
        rgrid_cov = {}
        for (kind, info), v in zip(kinds, idx):
            if kind == "grid":
                toks.append((f"_lo{info}", f"_hi{info}"))
            elif kind == "rgrid":
                pos, lo, hi = info
                toks.append((lo, hi))
                rgrid_cov[pos] = hi - lo
            elif kind == "batch":
                toks.append(f"_f_{info}")
            else:
                toks.append(self._tok(v))
        template = _gather_template(base, kinds[0][0] == "batch", toks)
        # Advanced dims (the broadcast (B,) of flats+scalars) lead, slice
        # dims follow in positional order -- reshape to full rank unless
        # the natural layout already is the full-rank shape.
        if not (has_batch and len(grid_axes) == self.n
                and len(rgrid_cov) == self.n_red):
            lead = "_B" if has_batch else "1"
            dims = [lead] + [f"_e{j}" if j in grid_axes else "1"
                             for j in range(self.n)]
            dims += [str(rgrid_cov.get(self.n + i, 1))
                     for i in range(self.n_red)]
            template += f".reshape(({', '.join(dims)}))"
        extra = 1
        for e in rgrid_cov.values():
            extra *= e
        self._record_load(dtype, has_batch, tuple(grid_axes), trip * extra,
                          extra_extent=extra)
        val = self._emit_expr(template, dtype, mask, idx, block=block)
        # without a (B,) flat the subscript is basic indexing -- the result
        # views the input tensor, so out= must never write into it
        val.writable = has_batch
        return val

    # -- reductions ----------------------------------------------------
    def _reduce(self, node: E.Reduce) -> _Value:
        for ax in node.axes:
            if ax.name in self._active_loops or ax.name in self.axis_pos:
                raise VectorizeError(
                    f"reduce axis {ax.name!r} shadows an enclosing axis")
        if any(ax.extent == 0 for ax in node.axes):
            # interpreter: empty domain yields float32(identity)
            return self._const(np.float32(node.identity))
        gemm = self._gemm[id(node)]
        if all(id(ax) in self.red_pos for ax in node.axes):
            if isinstance(gemm, tuple):
                return self._contraction(node, *gemm)
            return self._vector_reduce(node, gemm)
        why_loop = self._why_loop[id(node)]
        self._note_form(node, "loop", why_loop if isinstance(gemm, tuple)
                        else f"{gemm}; {why_loop}")

        parent = self.stack[-1]
        loops = []
        trip = parent.trip
        for ax in node.axes:
            trip *= ax.extent
            self._loopvar += 1
            var = f"_r{self._loopvar}"
            body = self._push_block(trip)
            lv = _Value(var, np.int64, (), body, writable=False)
            self._active_loops[ax.name] = lv
            self._loop_doms[var] = ax.dom
            self._remember(("iv", ax.name), lv)
            body.items.append(_Raw(f"{var} = np.int64({var})"))
            loops.append((ax, var, body))

        val = self.compile(node.source)

        if val.is_const and trip // parent.trip <= _FOLD_TRIP_LIMIT:
            # all-constant reduction: run the exact combine at compile time
            for ax, _, _ in loops:
                del self._active_loops[ax.name]
            for _ in loops:
                self._pop_block()
            fn = _combine_fn(node.combiner)
            acc = None
            with np.errstate(all="ignore"):
                for _ in range(trip // parent.trip):
                    acc = val.const if acc is None else fn(acc, val.const)
            self.stats.constants_folded += 1
            return self._const(acc)

        self._acc += 1
        acc_name = f"_a{self._acc}"
        innermost = loops[-1][2]
        if val.mask == frozenset():
            init, use_out = "plain", False
        elif val.block is innermost:
            # fresh buffer every iteration: alias it, then combine in place
            init, use_out = "alias", True
        else:
            # loop-invariant array: copy once, then combine in place
            init, use_out = "copy", True
        innermost.items.append(
            _Combine(acc_name, val, self._tok(val),
                     _COMBINE_UFUNC[node.combiner], init, use_out))
        self.stats.instructions += 1

        nest = None
        for ax, var, body in reversed(loops):
            del self._active_loops[ax.name]
            self._pop_block()
            if nest is not None:
                body.items.append(nest)
            lo, hi = ax.dom
            nest = _Loop(var, lo, hi, body)
            self.stats.loops += 1
        parent.items.append(_Init(acc_name))
        parent.items.append(nest)
        acc = _Value(acc_name, val.np_dtype, val.mask, parent)
        return acc

    def _note_form(self, node: E.Reduce, form: str, reason: str) -> None:
        self.stats.reduce_forms.append(
            (tuple(ax.name for ax in node.axes), form, reason))

    def _reduce_grids(self, node: E.Reduce) -> list[int]:
        """Bind ``node``'s (vectorized) axes to their array dimensions;
        returns the mask positions."""
        positions = []
        for ax in node.axes:
            pos = self.red_pos[id(ax)]
            positions.append(pos)
            if self._memo.get(("iv", ax.name)) is None:
                lo, hi = ax.dom
                # defined in the prelude (only if the body references it)
                rg = _Value(f"_rg{pos}", np.int64, (pos,), self.root,
                            writable=False)
                self._rgrids[id(rg)] = (pos, lo, hi)
                self._remember(("iv", ax.name), rg)
        return positions

    def _contraction(self, node: E.Reduce, a_node, w_node) -> _Value:
        """Lower a sum of products to one GEMM: the batched operand
        compiles as usual to ``(B, 1.., K..)`` and flattens to ``(B, K)``;
        the weight is a basic-index view of its tensor arranged
        ``(K, F)`` over the tiled output axes.  BLAS picks the summation
        order (float rounding only, like the pairwise ``add.reduce``)."""
        positions = sorted(self._reduce_grids(node))
        a = self.compile(a_node)
        w_dtype = np.dtype(_np_dtype(w_node.tensor.dtype))
        if (a.is_const or a.np_dtype != w_dtype
                or a.mask != frozenset([_BATCH, *positions])):
            # folding or pruning changed what the operand spans
            return self._vector_reduce(node, "batched operand folded")

        base = self._tensor_alias(w_node.tensor)
        self._gather_name = w_node.tensor.name
        toks, order = [], []
        for ix in w_node.indices:
            if id(ix) in self.red_pos:
                toks.append("{}:{}".format(*ix.dom))
                order.append((0, self.red_pos[id(ix)]))
            else:
                j = self.axis_pos[ix.name]
                toks.append(f"_lo{j}:_hi{j}")
                order.append((1, j))
        view = f"{base}[{', '.join(toks)}]"
        perm = sorted(range(len(order)), key=order.__getitem__)
        if perm != list(range(len(order))):
            view += f".transpose({tuple(perm)!r})"
        trip = 1
        for ax in node.axes:
            trip *= ax.extent
        out_axes = sorted(j for kind, j in order if kind == 1)
        if len(positions) != 1 or len(out_axes) != 1:
            view += f".reshape(({trip}, -1))"
        self.stats.gathers += 1
        self.stats.fast_gathers += 1
        self._record_load(w_dtype, False, out_axes, trip, extra_extent=trip)
        w = self._emit_expr(view, w_dtype, out_axes, [], block=self.root)
        w.writable = False  # views the input tensor

        dims = (["_B"] + [f"_e{j}" if j in out_axes else "1"
                          for j in range(self.n)] + ["1"] * self.n_red)
        template = (f"np.matmul({a.name}.reshape((_B, {trip})), {w.name})"
                    f".reshape(({', '.join(dims)}))")
        self.stats.contractions += 1
        self._note_form(node, "gemm", f"(B, {trip}) @ ({trip}, "
                        f"{' * '.join(f'e{j}' for j in out_axes) or 1})")
        return self._emit_expr(template, w_dtype, [_BATCH, *out_axes],
                               [a, w])

    def _vector_reduce(self, node: E.Reduce, why: str) -> _Value:
        """Lower a small-domain reduction to one call over extra array
        dimensions: ``ufunc.reduce`` (``max``/``min`` exact, ``sum`` and
        ``prod`` in numpy's pairwise order), or -- a float ``sum`` of a
        batched value over its trailing dimensions -- one GEMV with a
        vector of ones (BLAS's order; float rounding only either way)."""
        positions = self._reduce_grids(node)
        self._note_form(node, "vector", why)
        form_slot = len(self.stats.reduce_forms) - 1

        val = self.compile(node.source)
        trip = 1
        for ax in node.axes:
            trip *= ax.extent
        if val.is_const:
            # all-constant reduction: run the exact combine at compile
            # time (the domain is <= _VEC_TRIP_LIMIT by construction)
            fn = _combine_fn(node.combiner)
            acc = None
            with np.errstate(all="ignore"):
                for _ in range(trip):
                    acc = val.const if acc is None else fn(acc, val.const)
            self.stats.constants_folded += 1
            return self._const(acc)

        result = val
        covered = sorted(p for p in positions if p in val.mask)
        if covered:
            tail = [p for p in val.mask if p >= covered[0]]
            if (node.combiner == "sum" and val.np_dtype.kind == "f"
                    and _BATCH in val.mask and len(tail) == len(covered)):
                # ufunc.reduce pays per output element when the reduced
                # rows are short; flattened to 2-D the same sum is one
                # GEMV ((B, h, K) @ (K,) would be B stacked h x K ones)
                k = 1
                for p in covered:
                    k *= self.red_extents[p - self.n]
                ones = f"_ones{k}_{val.np_dtype.name}"
                self.consts[ones] = np.ones(k, dtype=val.np_dtype)
                keep = 1 + covered[0]
                unit = (1,) * (1 + self.n + self.n_red - keep)
                tok = self._tok(val)
                template = (f"np.matmul({tok}.reshape((-1, {k})), {ones})"
                            f".reshape({tok}.shape[:{keep}] + {unit!r})")
                lead = "".join(f"\u00b7{self.op.axis[p].extent}"
                               for p in sorted(val.mask - {_BATCH})
                               if p < self.n)
                self.stats.reduce_forms[form_slot] = (
                    self.stats.reduce_forms[form_slot][0], "gemv",
                    f"{why}: (B{lead}, {k}) @ ({k},)")
            else:
                dims = tuple(1 + p for p in covered)
                template = (f"{_COMBINE_UFUNC[node.combiner]}.reduce("
                            f"{self._tok(val)}, axis={dims!r}, "
                            f"keepdims=True, dtype=np.{val.np_dtype.name})")
            result = self._emit_expr(template, val.np_dtype,
                                     val.mask - frozenset(positions),
                                     [val])
            self.stats.vector_reduces += 1
        # Axes the body does not span: the interpreter still combines
        # ``extent`` copies.  For bool, or/and of copies is the identity.
        missing = 1
        for ax in node.axes:
            if self.red_pos[id(ax)] not in val.mask:
                missing *= ax.extent
        if missing > 1 and val.np_dtype.kind != "b":
            if node.combiner == "sum":
                result = self._emit_ufunc("np.multiply", np.multiply,
                                          [result, self._const(missing)])
            elif node.combiner == "prod":
                result = self._emit_ufunc("np.power", np.power,
                                          [result, self._const(missing)])
        return result


def _gather_template(base: str, batch_leads: bool, toks: list) -> str:
    """Source of a flat gather; ``toks`` holds an index expression per
    dimension, ``(lo, hi)`` for a slice.  Whole rows gathered by the batch
    variable alone -- it leads, every other index is a slice -- go through
    :func:`~repro.tensorir.runtime.take_rows`."""
    if batch_leads and all(isinstance(t, tuple) for t in toks[1:]):
        windows = "".join(f", ({lo}, {hi})" for lo, hi in toks[1:])
        return f"take_rows({base}, {toks[0]}{windows})"
    return "{}[{}]".format(base, ", ".join(
        t if isinstance(t, str) else f"{t[0]}:{t[1]}" for t in toks))


def _np_dtype(dtype: str):
    try:
        return _NP_DTYPES[dtype]
    except KeyError:
        raise ValueError(f"unsupported dtype {dtype!r}") from None


def _unit(dtype: np.dtype):
    return np.ones((), dtype=dtype)[()]


def _bin_fn(op: str):
    return getattr(np, _BIN_UFUNC[op][3:])


def _combine_fn(combiner: str):
    return getattr(np, _COMBINE_UFUNC[combiner][3:])


def _call_sample(func: str, args):
    if func == "sigmoid":
        return 1.0 / (1.0 + np.exp(-args[0]))
    if func == "pow":
        return np.power(args[0], args[1])
    return getattr(np, _CALL_UFUNC[func][3:])(args[0])


# ----------------------------------------------------------------------
# liveness and rendering
# ----------------------------------------------------------------------

def _positions(block: _Block, counter: list, last_use: dict) -> None:
    """Number instructions in execution order and record each register's
    final consumer, so rendering can retire buffers with ``out=``."""
    for item in block.items:
        if isinstance(item, _Instr):
            counter[0] += 1
            item.pos = counter[0]
            for v in item.operands:
                last_use[v.name] = counter[0]
        elif isinstance(item, _Combine):
            counter[0] += 1
            item.pos = counter[0]
            if not item.val.is_const:
                last_use[item.val.name] = counter[0]
        elif isinstance(item, _Loop):
            _positions(item.body, counter, last_use)


def _render_block(block: _Block, indent: int, lines: list,
                  last_use: dict, stats: ProgramStats) -> None:
    pad = "    " * indent
    for item in block.items:
        if isinstance(item, _Raw):
            lines.append(pad + item.text)
        elif isinstance(item, _Init):
            lines.append(pad + f"{item.acc} = None")
        elif isinstance(item, _Loop):
            lines.append(pad + f"for {item.var} in "
                               f"range({item.lo}, {item.hi}):")
            _render_block(item.body, indent + 1, lines, last_use, stats)
        elif isinstance(item, _Combine):
            first = {"alias": item.tok, "copy": f"{item.tok}.copy()",
                     "plain": item.tok}[item.init]
            rest = (f"{item.fn}({item.acc}, {item.tok}, out={item.acc})"
                    if item.use_out else
                    f"{item.fn}({item.acc}, {item.tok})")
            lines.append(pad + f"{item.acc} = {first} "
                               f"if {item.acc} is None else {rest}")
        elif isinstance(item, _Instr):
            if item.fn is None:
                lines.append(pad + f"{item.dest.name} = {item.template}")
                continue
            out_tok = ""
            if item.inplace_ok and item.dest.mask:
                for v in item.operands:
                    if (v.writable and v.block is item.dest.block
                            and v.np_dtype == item.dest.np_dtype
                            and v.mask == item.dest.mask
                            and last_use.get(v.name) == item.pos):
                        out_tok = f", out={v.name}"
                        stats.inplace_ops += 1
                        break
            lines.append(pad + f"{item.dest.name} = "
                               f"{item.fn}({', '.join(item.tokens)}"
                               f"{out_tok})")


# ----------------------------------------------------------------------
# the compiled program
# ----------------------------------------------------------------------


class VectorProgram:
    """A compiled batched-UDF: generated straight-line numpy source.

    ``run`` has the same contract as
    :func:`repro.tensorir.evaluator.evaluate_batched` (non-empty batch):
    bindings for placeholders, 1-D int64 batch variables of equal length,
    optional per-axis ``axis_ranges`` tiling, and a ``(B, *shape)`` result.
    Programs are immutable and thread-safe: execution touches only local
    buffers.
    """

    def __init__(self, name, fn, source, stats, axes, out_dtype,
                 tensor_names, batch_names):
        self.name = name
        self._fn = fn
        self.source = source
        self.stats = stats
        self.axes = tuple(axes)
        self.out_dtype = np.dtype(out_dtype)
        self.tensor_names = tuple(tensor_names)
        self.batch_names = tuple(batch_names)
        self.default_sizes = tuple(ax.extent for ax in self.axes)

    def run(self, bindings: Mapping[str, np.ndarray],
            batch_vars: Mapping[str, np.ndarray],
            axis_ranges: Mapping[str, tuple[int, int]] | None = None,
            ) -> np.ndarray:
        """Execute the program once per batch element (see
        :func:`~repro.tensorir.evaluator.evaluate_batched`)."""
        items = list(batch_vars.items())
        if not items:
            raise ValueError(
                "compiled programs require at least one batch variable")
        batch_len = len(np.asarray(items[0][1]))
        flats = {}
        for name, arr in items:
            arr = np.asarray(arr, dtype=np.int64)
            if arr.ndim != 1 or len(arr) != batch_len:
                raise ValueError(
                    "all batch variables must be 1-D of equal length")
            flats[name] = arr
        for name in self.batch_names:
            if name not in flats:
                raise KeyError(
                    f"unbound variable or placeholder {name!r}")
        for name in self.tensor_names:
            if name not in bindings:
                raise KeyError(
                    f"unbound variable or placeholder {name!r}")
        lohi = []
        for ax in self.axes:
            lo, hi = ax.dom
            if axis_ranges and ax.name in axis_ranges:
                lo, hi = axis_ranges[ax.name]
                if not (ax.dom[0] <= lo <= hi <= ax.dom[1]):
                    raise ValueError(
                        f"axis range {lo, hi} outside domain of {ax.name}")
            lohi.append((int(lo), int(hi)))
        raw = self._fn(bindings, flats, lohi, batch_len)
        full = (batch_len,) + tuple(hi - lo for lo, hi in lohi)
        val = np.asarray(raw)
        if val.shape != full:
            val = np.broadcast_to(val, full)
        if val.dtype == self.out_dtype and val.flags["C_CONTIGUOUS"]:
            return val
        return np.ascontiguousarray(val, dtype=self.out_dtype)

    def bytes_moved(self, batch: int, sizes=None) -> int:
        """Bytes gathered from input tensors plus bytes written to the
        output, for one chunk of ``batch`` elements over ``sizes``-shaped
        output axes (defaults to the full axis extents)."""
        sizes = (tuple(sizes) if sizes is not None
                 else self.default_sizes)
        total = 0
        for itemsize, has_batch, axes, trip, _ in self.stats.loads:
            moved = itemsize * trip * (batch if has_batch else 1)
            for j in axes:
                moved *= sizes[j]
            total += moved
        out_items = batch
        for s in sizes:
            out_items *= s
        return int(total + out_items * self.out_dtype.itemsize)

    def __repr__(self):
        s = self.stats
        return (f"VectorProgram({self.name}, instrs={s.instructions}, "
                f"cse={s.cse_hits}, folded={s.constants_folded}, "
                f"inplace={s.inplace_ops}, "
                f"fast_gathers={s.fast_gathers}/{s.gathers}, "
                f"contractions={s.contractions})")


def _axis_prelude(compiler: _Compiler, body_text: str) -> list[str]:
    """Lines binding lo/hi/extent/grid/batch locals -- only those the
    rendered body actually references."""

    def used(tok: str) -> bool:
        return re.search(rf"\b{re.escape(tok)}\b", body_text) is not None

    n = compiler.n
    rank = 1 + n + compiler.n_red
    lines = []
    for j in range(n):
        need_g = used(f"_g{j}")
        need_e = used(f"_e{j}")
        if need_g or need_e or used(f"_lo{j}"):
            lines.append(f"    _lo{j}, _hi{j} = _lohi[{j}]")
        if need_e:
            lines.append(f"    _e{j} = _hi{j} - _lo{j}")
        if need_g:
            dims = ["1"] * (1 + j) + ["-1"] + ["1"] * (rank - 2 - j)
            lines.append(
                f"    _g{j} = np.arange(_lo{j}, _hi{j}, "
                f"dtype=np.int64).reshape(({', '.join(dims)}))")
    for pos, lo, hi in compiler._rgrids.values():
        if used(f"_rg{pos}"):
            dims = ["1"] * (1 + pos) + ["-1"] + ["1"] * (rank - 2 - pos)
            lines.append(
                f"    _rg{pos} = np.arange({lo}, {hi}, "
                f"dtype=np.int64).reshape(({', '.join(dims)}))")
    for name in compiler.batch_vals:
        need_b = used(f"_b_{name}")
        if need_b or used(f"_f_{name}"):
            lines.append(f"    _f_{name} = _flat[{name!r}]")
        if need_b:
            btup = "(_B," + " 1," * (rank - 1) + ")"
            lines.append(f"    _b_{name} = _f_{name}.reshape({btup})")
    return lines


def compile_batched(tensor: E.Tensor) -> VectorProgram:
    """Compile a compute tensor's body into a :class:`VectorProgram`.

    Raises :class:`VectorizeError` for expressions outside the supported
    subset and ``TypeError`` if ``tensor`` is not a compute tensor.
    """
    op = tensor.op
    if not isinstance(op, E.ComputeOp):
        raise TypeError("compile_batched requires a compute tensor")
    out_dtype = np.dtype(_np_dtype(tensor.dtype))

    compiler = _Compiler(op)
    root = compiler.compile(op.body)

    last_use: dict[str, float] = {}
    _positions(compiler.root, [0], last_use)
    if not root.is_const:
        last_use[root.name] = float("inf")

    body_lines: list[str] = []
    _render_block(compiler.root, 1, body_lines, last_use, compiler.stats)
    tok = compiler._tok(root)
    if compiler.n_red and root.mask:
        # drop the (size-1) vectorized-reduce dims from the result
        body_lines.append(
            f"    return {tok}.reshape({tok}.shape[:{1 + compiler.n}])")
    else:
        body_lines.append(f"    return {tok}")
    body_text = "\n".join(body_lines)

    lines = [f"def _udf(_T, _flat, _lohi, _B):"]
    for tname, alias in compiler.tensors.items():
        lines.append(f"    {alias} = np.asarray(_T[{tname!r}])")
    lines.extend(_axis_prelude(compiler, body_text))
    lines.append(body_text)
    source = "\n".join(lines) + "\n"

    namespace = {"np": np, "inf": float("inf"), "nan": float("nan"),
                 "take_rows": take_rows, **compiler.consts}
    # shape and reduce extents in the pseudo-filename keep one UDF's
    # programs apart in a profile (GAT's 4-head and 1-head u_dot_v)
    shape = "".join(f"{ax.extent}," for ax in op.axis)
    reds = "".join(f"k{ax.extent}" for ax in op.reduce_axis)
    code = compile(source, f"<vectorize:{tensor.name}({shape}){reds}>",
                   "exec")
    exec(code, namespace)

    return VectorProgram(
        name=tensor.name,
        fn=namespace["_udf"],
        source=source,
        stats=compiler.stats,
        axes=op.axis,
        out_dtype=out_dtype,
        tensor_names=tuple(compiler.tensors),
        batch_names=tuple(compiler.batch_vals),
    )
