"""Functional partitioning: the partition model and partitioners."""

from repro.partition.auto import (
    annealed_partition,
    greedy_partition,
    kl_partition,
    movable_objects,
)
from repro.partition.metrics import (
    PartitionObjective,
    balance_penalty,
    cut_weight,
    load_by_component,
    partition_cost,
)
from repro.partition.partition import Partition

__all__ = [
    "Partition",
    "PartitionObjective",
    "annealed_partition",
    "greedy_partition",
    "kl_partition",
    "movable_objects",
    "balance_penalty",
    "cut_weight",
    "load_by_component",
    "partition_cost",
]
