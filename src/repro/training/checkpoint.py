"""Training state and its checkpoints: ``.npz`` archives with JSON metadata.

:class:`TrainState` is everything a training run continues from; the
trainers produce it with ``snapshot()`` and apply it with ``restore()``.
A checkpoint is the same state on disk: ``model/``, ``optimizer/`` and
``scheduler/`` arrays plus a JSON ``__metadata__`` entry.  Files are
written to a temporary sibling and renamed into place, so a crash
mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ..nn.module import Module
from ..optim.optimizers import Optimizer
from ..optim.schedulers import LRScheduler

__all__ = ["TrainState", "save_checkpoint", "load_checkpoint", "read_metadata"]

#: Version tag of the trainer checkpoint layout (stored in the metadata).
CHECKPOINT_FORMAT = 2


def _resolve(path) -> Path:
    return Path(path) if str(path).endswith(".npz") else Path(str(path) + ".npz")


def _write(path, model_state: dict, optimizer_state: Optional[dict],
           scheduler_state: dict, metadata: dict) -> None:
    """Write the three state dicts and ``metadata`` as one ``.npz``, atomically."""
    arrays = {f"model/{name}": np.asarray(value) for name, value in model_state.items()}
    if optimizer_state is not None:
        arrays["optimizer/lr"] = np.asarray(optimizer_state["lr"])
        arrays["optimizer/step_count"] = np.asarray(optimizer_state["step_count"])
        for idx, sub in optimizer_state["state"].items():
            for key, value in sub.items():
                arrays[f"optimizer/state/{idx}/{key}"] = np.asarray(value)
    for key, value in scheduler_state.items():
        arrays[f"scheduler/{key}"] = np.asarray(value)
    arrays["__metadata__"] = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    path = _resolve(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _decode_metadata(data) -> dict:
    raw = data.get("__metadata__")
    if raw is None:
        return {}
    return json.loads(bytes(raw.tolist()).decode("utf-8"))


def _read(path) -> tuple[dict, Optional[dict], dict, dict]:
    """The model, optimizer (``None`` if absent) and scheduler state dicts and
    the metadata of a checkpoint; the archive is closed before returning."""
    model_state: dict = {}
    optimizer_state: dict = {"lr": None, "step_count": 0, "state": {}}
    scheduler_state: dict = {}
    with np.load(_resolve(path)) as data:
        for key in data.files:
            if key.startswith("model/"):
                model_state[key[len("model/"):]] = data[key]
            elif key == "optimizer/lr":
                optimizer_state["lr"] = float(data[key])
            elif key == "optimizer/step_count":
                optimizer_state["step_count"] = int(data[key])
            elif key.startswith("optimizer/state/"):
                _, _, idx, name = key.split("/", 3)
                optimizer_state["state"].setdefault(int(idx), {})[name] = data[key]
            elif key.startswith("scheduler/"):
                value = data[key]
                scheduler_state[key[len("scheduler/"):]] = value.item() if value.ndim == 0 else value
        metadata = _decode_metadata(data)
    if optimizer_state["lr"] is None:
        optimizer_state = None
    return model_state, optimizer_state, scheduler_state, metadata


def save_checkpoint(path, model: Module, optimizer: Optimizer | None = None,
                    scheduler: LRScheduler | None = None,
                    metadata: dict | None = None) -> None:
    """Save model parameters/buffers (and optionally optimizer/scheduler state).

    The archive is a plain ``.npz`` with JSON metadata, so it can be inspected
    without this library.  Arrays keep their exact dtypes, which is what makes
    bit-identical resume possible.
    """
    _write(path, model.state_dict(),
           optimizer.state_dict() if optimizer is not None else None,
           scheduler.state_dict() if scheduler is not None else {}, metadata or {})


def load_checkpoint(path, model: Module, optimizer: Optimizer | None = None,
                    scheduler: LRScheduler | None = None,
                    strict_dtype: bool = False) -> dict:
    """Load a checkpoint saved by :func:`save_checkpoint`; return its metadata.

    The archive file handle is closed before returning.  Model loading is
    dtype-preserving (see :meth:`Module.load_state_dict`); pass
    ``strict_dtype=True`` to instead raise when the checkpoint and module
    precisions differ.  Optimizer state is likewise cast back to the
    precision the optimizer computes in (see
    :meth:`Optimizer.load_state_dict`).
    """
    model_state, optimizer_state, scheduler_state, metadata = _read(path)
    model.load_state_dict(model_state, strict_dtype=strict_dtype)
    if optimizer is not None and optimizer_state is not None:
        optimizer.load_state_dict(optimizer_state)
    if scheduler is not None and scheduler_state:
        scheduler.load_state_dict(scheduler_state)
    return metadata


def read_metadata(path) -> dict:
    """Read only the JSON metadata of a checkpoint (cheap; no state is loaded)."""
    with np.load(_resolve(path)) as data:
        return _decode_metadata(data)


@dataclass
class TrainState:
    """Everything a training run continues from, as deep copies.

    ``model`` / ``optimizer`` / ``scheduler`` are the three ``state_dict``s
    (the optimizer's includes float64 master weights); ``config`` is the
    JSON form of the ``TrainerConfig``.  ``rng`` holds the data-parallel
    trainer's per-worker RNG streams and shard cursors.  ``comm`` holds its
    communicator byte / collective counters and per-epoch marker; it is
    not written to disk — epoch rollback rewinds the counters, a resumed
    process counts its own traffic.
    """

    model: dict
    optimizer: Optional[dict]
    scheduler: dict
    epoch: int
    history: dict
    dtype: Optional[str]
    config: dict
    rng: dict = field(default_factory=dict)
    comm: Optional[tuple] = None
    format: int = CHECKPOINT_FORMAT

    def save(self, path, extra_metadata: Optional[dict] = None) -> None:
        """Write this state as a checkpoint; ``extra_metadata`` joins its metadata."""
        metadata = {"format": self.format, "epoch": self.epoch, "history": self.history,
                    "dtype": self.dtype, "config": self.config, "rng": self.rng}
        if extra_metadata:
            collisions = sorted(set(extra_metadata) & set(metadata))
            if collisions:
                raise ValueError(f"extra_metadata keys collide with trainer metadata: {collisions}")
            metadata.update(extra_metadata)
        _write(path, self.model, self.optimizer, self.scheduler, metadata)

    @classmethod
    def load(cls, path) -> tuple["TrainState", dict]:
        """Read a checkpoint written by :meth:`save`; returns it and its metadata."""
        model, optimizer, scheduler, meta = _read(path)
        state = cls(model=model, optimizer=optimizer, scheduler=scheduler,
                    epoch=int(meta.get("epoch", 0)), history=meta.get("history", {}),
                    dtype=meta.get("dtype"), config=meta.get("config", {}),
                    rng=meta.get("rng") or {}, format=meta.get("format", CHECKPOINT_FORMAT))
        return state, meta
