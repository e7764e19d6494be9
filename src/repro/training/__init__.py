"""Training loops (serial + data-parallel), evaluation, checkpointing, history."""

from .checkpoint import TrainState, load_checkpoint, read_metadata, save_checkpoint
from .distributed import DistributedTrainer
from .evaluation import eval_mode, evaluate_model, pointwise_errors
from .history import TrainingHistory
from .trainer import Trainer, TrainerConfig

__all__ = [
    "Trainer",
    "TrainerConfig",
    "TrainState",
    "DistributedTrainer",
    "TrainingHistory",
    "eval_mode",
    "evaluate_model",
    "pointwise_errors",
    "save_checkpoint",
    "load_checkpoint",
    "read_metadata",
]
