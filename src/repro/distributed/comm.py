"""Simulated communicator for in-process multi-rank execution."""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from ..faults import plan as _faults
from .allreduce import naive_allreduce, ring_allreduce

__all__ = ["SimulatedCommunicator"]


class SimulatedCommunicator:
    """An in-process stand-in for ``torch.distributed`` / NCCL.

    All "ranks" live in the same process; collectives operate on per-rank
    lists of NumPy buffers.  The communicator keeps running totals of the
    bytes moved and collective calls issued so experiments can report
    communication volume alongside timing from the analytic performance
    model.

    Every primitive declares a fault-injection site (``comm.allreduce``,
    ``comm.broadcast``, ``comm.barrier``, ``comm.send``, ``comm.recv``) at
    entry — *before* any counter is advanced, so an injected comm fault
    leaves the statistics exactly as they were.
    """

    def __init__(self, world_size: int, algorithm: str = "ring"):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if algorithm not in ("ring", "naive"):
            raise ValueError(f"unknown all-reduce algorithm '{algorithm}'")
        self.world_size = int(world_size)
        self.algorithm = algorithm
        self.total_bytes = 0
        self.num_collectives = 0
        self._mailboxes: dict = {}  # (src, dst, tag) -> deque of arrays

    # ------------------------------------------------------------ collectives
    def allreduce(self, buffers: Sequence[np.ndarray], average: bool = False) -> list[np.ndarray]:
        """All-reduce (sum or mean) across ranks; ``buffers[i]`` belongs to rank ``i``."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("comm.allreduce")
        buffers = list(buffers)
        if len(buffers) != self.world_size:
            raise ValueError(f"expected {self.world_size} buffers, got {len(buffers)}")
        fn = ring_allreduce if self.algorithm == "ring" else naive_allreduce
        results, stats = fn(buffers, average=average)
        self.total_bytes += stats.total_bytes
        self.num_collectives += 1
        return results

    def broadcast(self, buffer: np.ndarray, root: int = 0) -> list[np.ndarray]:
        """Broadcast a buffer from ``root`` to all ranks."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("comm.broadcast")
        if not 0 <= root < self.world_size:
            raise ValueError(f"root {root} out of range for world_size {self.world_size}")
        arr = np.asarray(buffer)
        self.total_bytes += arr.nbytes * (self.world_size - 1)
        self.num_collectives += 1
        return [arr.copy() for _ in range(self.world_size)]

    def barrier(self) -> None:
        """No-op apart from its injection site (ranks are lock-stepped)."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("comm.barrier")

    # ----------------------------------------------------------- point-to-point
    def send(self, buffer: np.ndarray, src: int, dst: int, tag: int = 0) -> None:
        """Post a copy of ``buffer`` from rank ``src`` to rank ``dst``.

        Matched by :meth:`recv` in FIFO order per ``(src, dst, tag)``
        channel.  The payload is copied at send time (wire semantics: the
        receiver can never alias the sender's buffer).
        """
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("comm.send")
        for name, rank in (("src", src), ("dst", dst)):
            if not 0 <= rank < self.world_size:
                raise ValueError(f"{name} {rank} out of range for world_size {self.world_size}")
        arr = np.asarray(buffer).copy()
        self._mailboxes.setdefault((src, dst, tag), deque()).append(arr)
        self.total_bytes += arr.nbytes
        self.num_collectives += 1

    def recv(self, src: int, dst: int, tag: int = 0) -> np.ndarray:
        """Receive the oldest unmatched :meth:`send` on ``(src, dst, tag)``."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("comm.recv")
        mailbox = self._mailboxes.get((src, dst, tag))
        if not mailbox:
            raise RuntimeError(
                f"recv(src={src}, dst={dst}, tag={tag}) has no matching send")
        return mailbox.popleft()

    # ------------------------------------------------------------------ stats
    def reset_stats(self) -> None:
        self.total_bytes = 0
        self.num_collectives = 0
        self._mailboxes.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SimulatedCommunicator(world_size={self.world_size}, "
                f"algorithm='{self.algorithm}', collectives={self.num_collectives})")
