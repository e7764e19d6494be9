"""Optimization passes over traced programs.

Four classic straight-line passes, run in order by
:func:`repro.compile.executor.compile_program`:

* **constant folding** — a node whose operands are all constants is
  evaluated once at compile time and its output becomes a constant
  (bounded by :data:`FOLD_LIMIT_BYTES` so folding can never balloon a
  plan's resident memory);
* **dead-code elimination** — ops that do not contribute to any program
  output are dropped (derivative traces leave large dead regions: e.g.
  the forward tail that only produced the loss value);
* **value numbering** (common-subexpression elimination) — two nodes of
  the same op class, built with the same static arguments, over the same
  operands are one computation; the first is kept and every later one is
  rewritten to read it.  Derivative traces are full of these because each
  ``backward`` call re-derives what it needs (``Softplus.backward`` calls
  ``sigmoid(a)`` afresh in every sweep, ``MatMul.backward`` re-transposes
  the same weight, every ``sub(1.0, s)`` coerces a new scalar constant).
  Constants are distinct values unless they are 0-d and snapshottable
  under constant folding's own rule (:func:`_may_snapshot`); those merge
  by ``(dtype, bytes)``;
* **liveness analysis** — the last use of every value, with alias chains
  (reshape/transpose/slice views) resolved to their storage root, which
  is what lets the executor's buffer arena reuse and write in place
  safely.  It runs on the merged program, so a value two consumers now
  share is not overwritten by the first.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ops as _ops
from ..autodiff.ops import _is_basic_index
from .tracer import CONSTANT, Node, Program

__all__ = ["constant_fold", "dead_code_elim", "common_subexpr_elim", "alias_roots",
           "last_uses", "FOLD_LIMIT_BYTES"]

#: Upper bound on the size of an array materialised by constant folding.
FOLD_LIMIT_BYTES = 16 << 20

#: Ops whose output is a *view* of their (single) input: no kernel runs,
#: no buffer is assigned, and liveness of the output is charged to the
#: input's storage root.  ``GetIndex`` is only a view for basic indexing;
#: the executor decides per-node (see ``_is_basic_index``).
VIEW_OPS = (_ops.Reshape, _ops.Transpose)


def is_view_node(node: Node) -> bool:
    """Whether ``node`` produces a view of its input (no computation)."""
    if isinstance(node.op, VIEW_OPS):
        return True
    return isinstance(node.op, _ops.GetIndex) and _is_basic_index(node.op.index)


def _may_snapshot(value, pinned) -> bool:
    """Whether a pass may bake in the *current contents* of constant ``value``.

    Never for a *live* captured constant whose array the module may update
    in place (weights, running statistics): those are excluded via the
    ``foldable`` flag set at capture time (Parameter tensors) and via
    ``pinned`` — arrays the caller declares live (a compiled module passes
    its parameters and buffers; ``np.may_share_memory`` is used, so views
    of pinned storage are caught too, at worst disabling a legal fold or
    merge).  Values produced by earlier folds are always safe.
    """
    if not value.foldable:
        return False
    if value.data is None:
        return True
    return not any(np.may_share_memory(value.data, arr) for arr in pinned)


def constant_fold(program: Program, pinned=()) -> int:
    """Evaluate all-constant nodes at compile time; returns the fold count.

    Folding re-runs the recorded op's ``forward`` on the constant arrays —
    identical numerics to eager execution — and rewrites the node's output
    value into a constant, letting later passes drop the node entirely.
    Folding **snapshots** its operands, so every one of them must pass
    :func:`_may_snapshot`.
    """
    values = program.values
    pinned = tuple(pinned)
    folded = 0
    kept: list[Node] = []
    for node in program.nodes:
        ins = [values[i] for i in node.in_ids]
        out = values[node.out_id]
        if (all(v.kind == CONSTANT for v in ins) and out.nbytes <= FOLD_LIMIT_BYTES
                and all(_may_snapshot(v, pinned) for v in ins)):
            out.data = node.op.forward(*(v.data for v in ins))
            out.kind = CONSTANT
            folded += 1
        else:
            kept.append(node)
    program.nodes = kept
    return folded


def dead_code_elim(program: Program) -> int:
    """Drop nodes whose outputs are unreachable from the program outputs."""
    needed: set[int] = set(program.output_ids)
    kept_reversed: list[Node] = []
    removed = 0
    for node in reversed(program.nodes):
        if node.out_id in needed:
            needed.update(node.in_ids)
            kept_reversed.append(node)
        else:
            removed += 1
    program.nodes = kept_reversed[::-1]
    return removed


def _static_key(arg):
    """Hashable stand-in for one static op argument; ``TypeError`` if none.

    Scalars key on ``(type, repr)`` so ``1`` / ``True`` / ``1.0`` and
    ``0.0`` / ``-0.0`` stay apart; ``slice`` objects (unhashable before
    Python 3.12) key on their three fields; index arrays on
    dtype / shape / bytes.
    """
    if isinstance(arg, (tuple, list)):
        return (type(arg).__name__, *(_static_key(item) for item in arg))
    if isinstance(arg, slice):
        return ("slice", _static_key(arg.start), _static_key(arg.stop), _static_key(arg.step))
    if isinstance(arg, np.ndarray):
        return ("ndarray", arg.dtype.str, arg.shape, arg.tobytes())
    if arg is None or arg is Ellipsis or isinstance(arg, (bool, int, float, str, np.generic)):
        return (type(arg).__name__, repr(arg))
    raise TypeError(f"no value-numbering key for a {type(arg).__name__}")


def common_subexpr_elim(program: Program, pinned=()) -> int:
    """Keep the first node of every value number; returns the merge count.

    One forward walk numbers each node ``(op class, static arguments,
    canonical operand ids)`` — an op's output depends on nothing else — and
    rewrites the operands of later nodes, and ``program.output_ids``,
    through the alias map of dropped values.  A merged node is the same
    kernel on the same operands, so replays stay bit-identical to eager.
    View nodes and eager-fallback ops merge like any other; a node whose
    arguments have no key (an op carrying a live object) never does.

    Distinct constants are distinct values — two byte-equal weights or
    buffers may diverge at the next in-place update — except 0-d constants
    that pass :func:`_may_snapshot`, which are interned by ``(dtype,
    bytes)``: the scalar every ``sub(1.0, s)`` coerces afresh.
    """
    values = program.values
    pinned = tuple(pinned)
    alias: dict[int, int] = {}  # value id -> the id that stands for it
    first: dict[tuple, int] = {}  # value number -> first value id

    def canonical(vid: int) -> int:
        found = alias.get(vid)
        if found is None:  # decided once per value
            value = values[vid]
            found = vid
            if value.kind == CONSTANT and value.shape == () and _may_snapshot(value, pinned):
                found = first.setdefault((value.dtype.str, value.data.tobytes()), vid)
            alias[vid] = found
        return found

    kept: list[Node] = []
    for node in program.nodes:
        node.in_ids = tuple(canonical(vid) for vid in node.in_ids)
        try:
            static = tuple((name, _static_key(arg)) for name, arg in sorted(node.kwargs.items()))
        except TypeError:
            kept.append(node)
            continue
        found = alias[node.out_id] = first.setdefault(
            (type(node.op), static, node.in_ids), node.out_id)
        if found == node.out_id:
            kept.append(node)
    merged = len(program.nodes) - len(kept)
    program.nodes = kept
    program.output_ids = [canonical(vid) for vid in program.output_ids]
    return merged


def alias_roots(program: Program) -> dict[int, int]:
    """Map every value id to its storage root through view chains."""
    root: dict[int, int] = {}

    def resolve(vid: int) -> int:
        while vid in root and root[vid] != vid:
            vid = root[vid]
        return vid

    for node in program.nodes:
        if is_view_node(node):
            root[node.out_id] = resolve(node.in_ids[0])
    return {vid: resolve(vid) for vid in list(root)}


def last_uses(program: Program, roots: dict[int, int]) -> dict[int, int]:
    """Last node index at which each *storage root* is read.

    Program outputs (and roots of views over them) are pinned with a
    sentinel beyond the last node, so their storage is never recycled and
    the returned arrays stay valid until the next plan execution.
    """
    sentinel = len(program.nodes)
    last: dict[int, int] = {}
    for j, node in enumerate(program.nodes):
        for vid in node.in_ids:
            last[roots.get(vid, vid)] = j
    for vid in program.output_ids:
        last[roots.get(vid, vid)] = sentinel
    return last
