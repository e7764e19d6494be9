"""Simulated data-parallel distributed training (the NCCL / DDP substitute)."""

from .allreduce import AllReduceStats, naive_allreduce, reduce_scatter_allgather_cost, ring_allreduce
from .buckets import GradientBuckets
from .comm import SimulatedCommunicator
from .perf_model import ClusterSpec, ScalingPerformanceModel, ScalingPoint
from .sampler import DistributedSampler

__all__ = [
    "ring_allreduce",
    "naive_allreduce",
    "reduce_scatter_allgather_cost",
    "AllReduceStats",
    "GradientBuckets",
    "SimulatedCommunicator",
    "DistributedSampler",
    "ClusterSpec",
    "ScalingPerformanceModel",
    "ScalingPoint",
]
