"""Optimization passes over traced programs.

Three classic straight-line passes, run in order by
:func:`repro.compile.executor.compile_program`:

* **constant folding** — a node whose operands are all constants is
  evaluated once at compile time and its output becomes a constant
  (bounded by :data:`FOLD_LIMIT_BYTES` so folding can never balloon a
  plan's resident memory);
* **dead-code elimination** — ops that do not contribute to any program
  output are dropped (derivative traces leave large dead regions: e.g.
  the forward tail that only produced the loss value);
* **liveness analysis** — the last use of every value, with alias chains
  (reshape/transpose/slice views) resolved to their storage root, which
  is what lets the executor's buffer arena reuse and write in place
  safely.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ops as _ops
from .tracer import CONSTANT, Node, Program

__all__ = ["constant_fold", "dead_code_elim", "alias_roots", "last_uses", "FOLD_LIMIT_BYTES"]

#: Upper bound on the size of an array materialised by constant folding.
FOLD_LIMIT_BYTES = 16 << 20

#: Ops whose output is a *view* of their (single) input: no kernel runs,
#: no buffer is assigned, and liveness of the output is charged to the
#: input's storage root.  ``GetIndex`` is only a view for basic indexing;
#: the executor decides per-node (see ``_is_basic_index``).
VIEW_OPS = (_ops.Reshape, _ops.Transpose)


def _is_basic_index(index) -> bool:
    """Whether a ``GetIndex`` index expression yields a NumPy view."""
    items = index if isinstance(index, tuple) else (index,)
    return all(isinstance(i, (int, np.integer, slice, type(None), type(Ellipsis)))
               for i in items)


def is_view_node(node: Node) -> bool:
    """Whether ``node`` produces a view of its input (no computation)."""
    if isinstance(node.op, VIEW_OPS):
        return True
    return isinstance(node.op, _ops.GetIndex) and _is_basic_index(node.op.index)


def constant_fold(program: Program, pinned=()) -> int:
    """Evaluate all-constant nodes at compile time; returns the fold count.

    Folding re-runs the recorded op's ``forward`` on the constant arrays —
    identical numerics to eager execution — and rewrites the node's output
    value into a constant, letting later passes drop the node entirely.

    Folding **snapshots** its operands, so it must never consume a *live*
    captured constant whose array the module may update in place (weights,
    running statistics): those are excluded via the ``foldable`` flag set
    at capture time (Parameter tensors) and via ``pinned`` — arrays the
    caller declares live (a compiled module passes its parameters and
    buffers; ``np.may_share_memory`` is used, so views of pinned storage
    are caught too, at worst disabling a legal fold).  Values produced by
    earlier folds are always safe.
    """
    values = program.values
    pinned = tuple(pinned)

    def safe(value) -> bool:
        if not value.foldable:
            return False
        if value.data is None:
            return True
        return not any(np.may_share_memory(value.data, arr) for arr in pinned)

    folded = 0
    kept: list[Node] = []
    for node in program.nodes:
        ins = [values[i] for i in node.in_ids]
        out = values[node.out_id]
        if (all(v.kind == CONSTANT for v in ins) and out.nbytes <= FOLD_LIMIT_BYTES
                and all(safe(v) for v in ins)):
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
