"""Scalability study: Figure 13 (Section 6.3).

Sample 20%..100% of a dataset's vertices (induced subgraph) or edges
(incident-vertex subgraph) and time all four variants at a fixed k.
Expected shape: every variant's time grows with sample size; VCCE* stays
fastest at every fraction and the VCCE / VCCE* gap widens as |E| grows -
the paper quotes a 20x gap at 100% on Cit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.kvcc import enumerate_kvccs
from repro.core.stats import RunStats
from repro.core.variants import VARIANTS
from repro.datasets.registry import (
    SCALABILITY_DATASETS,
    load_dataset,
    scaled_k_values,
)
from repro.datasets.samplers import DEFAULT_FRACTIONS, sample_edges, sample_vertices
from repro.experiments.tables import render_table


@dataclass
class ScalabilityRow:
    """One (dataset, axis, fraction, variant) timing sample."""

    dataset: str
    axis: str  # "vertices" or "edges"
    fraction: float
    variant: str
    seconds: float
    kvccs: int


def run_scalability(
    datasets: Sequence[str] = SCALABILITY_DATASETS,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    variants: Sequence[str] = tuple(VARIANTS),
    k_per_dataset: Optional[Dict[str, int]] = None,
    seed: int = 0,
) -> List[ScalabilityRow]:
    """Time the variants across vertex- and edge-sampled graphs."""
    rows: List[ScalabilityRow] = []
    for name in datasets:
        base = load_dataset(name)
        k = (k_per_dataset or {}).get(name) or scaled_k_values(base, 3)[1]
        for axis, sampler in (("vertices", sample_vertices),
                              ("edges", sample_edges)):
            for fraction in fractions:
                graph = sampler(base, fraction, seed=seed)
                for variant in variants:
                    stats = RunStats(k=k)
                    result = enumerate_kvccs(
                        graph, k, VARIANTS[variant], stats
                    )
                    rows.append(
                        ScalabilityRow(
                            dataset=name,
                            axis=axis,
                            fraction=fraction,
                            variant=variant,
                            seconds=stats.elapsed_seconds,
                            kvccs=len(result),
                        )
                    )
    return rows


def format_scalability(rows: List[ScalabilityRow]) -> str:
    """Render Figure 13 as one table per (dataset, axis)."""
    variants = list(dict.fromkeys(r.variant for r in rows))
    cells = {
        (r.dataset, r.axis, r.fraction, r.variant): r for r in rows
    }
    keys = sorted({(r.dataset, r.axis, r.fraction) for r in rows})
    table_rows = []
    for dataset, axis, fraction in keys:
        row: List[object] = [dataset, axis, f"{int(fraction * 100)}%"]
        for variant in variants:
            r = cells.get((dataset, axis, fraction, variant))
            row.append(f"{r.seconds:.3f}s" if r else "-")
        table_rows.append(row)
    return render_table(["dataset", "axis", "sample", *variants], table_rows)


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI entry point: print this experiment's output."""
    print("Figure 13: scalability (vary |V| and |E|)")
    print(format_scalability(run_scalability()))


if __name__ == "__main__":  # pragma: no cover
    main()
