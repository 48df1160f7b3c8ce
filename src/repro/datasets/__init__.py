"""Dataset stand-ins and sampling utilities for the experiments.

The paper evaluates on seven SNAP graphs (Table 1).  Those downloads are
unavailable offline, so :mod:`repro.datasets.registry` provides seeded
synthetic analogs with matching structural *flavor* (its module
docstring gives the substitution rationale);
:mod:`repro.datasets.samplers` implements the vertex/edge sampling
protocol of the scalability study (Figure 13);
:mod:`repro.datasets.mutations` generates deterministic edge-churn
streams for the dynamic-graph (incremental maintenance) workloads.
"""

from repro.datasets.mutations import apply_mutations, mutation_stream
from repro.datasets.registry import (
    DATASETS,
    dataset_names,
    load_dataset,
    scaled_k_values,
)
from repro.datasets.samplers import sample_edges, sample_vertices

__all__ = [
    "DATASETS",
    "apply_mutations",
    "dataset_names",
    "load_dataset",
    "mutation_stream",
    "sample_edges",
    "sample_vertices",
    "scaled_k_values",
]
