"""Generated plan steps: every lowered op is one call of its own kernel.

An op lowers when it is a :class:`~repro.autodiff.ops.KernelOp`: its
eager forward is one ``kernel(*operands, out, *scratch)`` call, and a
plan step makes that same call on arena buffers, so eager and compiled
agree bit for bit by construction.  The op class also states the two
facts the executor reads, ``inplace`` (``out`` may be a dying same-shape
operand's buffer) and ``elementwise`` (it may join a region).
:data:`LOWERINGS` lists the lowered classes, read off the op classes;
nothing in :mod:`repro.compile` lists op classes by hand, and any other
op runs as an eager-fallback step.

:class:`StepFunction` accumulates the calls of consecutive nodes into one
generated Python function, compiled once and kept on the plan.  Its body
is a flat sequence of kernel calls on arena buffers, so steady-state
execution allocates nothing.  A one-kernel op (``kernel_name``) is called
by that name, ``add(x1, x2, out=x0)``; any other op's bound ``kernel``.

Operand binding rules
---------------------

* **Stable** objects — trace constants, arena buffers (outputs and
  transient scratch) and kernels — are the function's default
  arguments, local variables at run time.  Parameters are named by
  position, so structurally equal functions (the repeated layers of a
  derivative graph) share one source and one code object.
* **Unstable** slots — program inputs, view-step outputs and
  eager-fallback outputs — are loaded from ``env`` in the function
  preamble, because :meth:`CompiledPlan.run` rebinds them on every call.
* Scratch is taken from the arena while the node is emitted and handed
  back before the next node's output is assigned: it is free for any later
  node's storage, and no generated function owns memory of its own.
"""

from __future__ import annotations

import functools
import types
from typing import Callable

from ..autodiff import nn_ops as _nn_ops  # noqa: F401 - its op classes join LOWERINGS
from ..autodiff.ops import KernelOp

__all__ = ["LOWERINGS", "StepFunction"]

_NO_GLOBALS: dict = {}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: Every lowered op class: the :class:`KernelOp` subclasses that have a kernel.
LOWERINGS: tuple[type, ...] = tuple(cls for cls in _subclasses(KernelOp) if hasattr(cls, "kernel"))


@functools.lru_cache(maxsize=4096)
def _code(source: str):
    """Code object of the ``_step`` function ``source`` defines."""
    namespace: dict = {}
    exec(compile(source, "<repro.compile.codegen>", "exec"), namespace)
    return namespace["_step"].__code__


class StepFunction:
    """Source of one generated plan step, built node by node."""

    def __init__(self, values, env, arena):
        self.values, self.env, self.arena = values, env, arena
        self.op_names: list[str] = []
        self._bindings: dict[str, object] = {}  # default-argument name -> object
        self._names: dict[int, str] = {}        # value id -> local name
        self._preamble: list[str] = []
        self._body: list[str] = []

    @property
    def label(self) -> str:
        """The op name of a one-op function, ``fused[N]`` for a region."""
        n = len(self.op_names)
        return self.op_names[0] if n == 1 else f"fused[{n}]"

    def bind(self, obj) -> str:
        """Bind ``obj`` as a default argument; returns its local name."""
        name = f"x{len(self._bindings)}"
        self._bindings[name] = obj
        return name

    def name_of(self, vid: int) -> str:
        """Local name of value ``vid``, binding or loading it on first use."""
        name = self._names.get(vid)
        if name is None:
            array = self.env[vid]
            if array is not None:
                name = self.bind(array)
            else:  # unstable slot: re-read on every run
                name = f"u{len(self._preamble)}"
                self._preamble.append(f"{name} = env[{self.bind(vid)}]")
            self._names[vid] = name
        return name

    def add(self, node) -> None:
        """Emit ``node``'s kernel call (its output buffer is already in ``env``)."""
        op = node.op
        args = [self.name_of(vid) for vid in node.in_ids]
        out = self.name_of(node.out_id)
        if op.kernel_name is not None:
            self._bindings[op.kernel_name] = op.kernel
            self._body.append(f"{op.kernel_name}({', '.join(args)}, out={out})")
        else:
            operands = [self.values[vid] for vid in node.in_ids]
            scratch = [self.arena.acquire(shape, dtype)
                       for shape, dtype in op.scratch_shapes(*operands)]
            args += [out, *map(self.bind, scratch)]
            self._body.append(f"{self.bind(op.kernel)}({', '.join(args)})")
            for array in scratch:
                self.arena.release(array)
        self.op_names.append(node.op_name)

    def build(self) -> Callable:
        """Compile the accumulated lines into ``step(env)``."""
        lines = [f"def _step(env, {', '.join(self._bindings)}):"]
        lines.extend("    " + line for line in self._preamble + self._body)
        # Every name is a parameter: the function needs no globals of its own.
        return types.FunctionType(_code("\n".join(lines) + "\n"), _NO_GLOBALS, "_step",
                                  tuple(self._bindings.values()))
