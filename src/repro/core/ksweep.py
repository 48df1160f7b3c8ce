"""Multi-k enumeration with nesting reuse.

The experiment drivers (Figures 10-12) and any parameter-tuning user
run KVCC-ENUM for a whole range of k on the same graph.  Because every
k'-VCC with ``k' > k`` lies inside exactly one k-VCC (it is k-connected,
and containment in two would violate Property 1's overlap bound), the
level-k results confine the level-k' search: enumerate at the smallest
k once, then recurse only inside the found components.

The graph is interned **once** into an immutable
:class:`~repro.graph.csr.CSRGraph`; each level's components are carried
as sorted member-id lists and re-entered as zero-copy mask views, with
every level's independent parents drained by one
:meth:`~repro.core.engine.SerialEngine.run_many` call.  A component
proven connected up to a requested level (its connectivity floor,
probed once when it is found) is its own k-VCC there and skips the
engine, so a gap such as ``[2, 5]`` costs one probe, not a re-run.

On the bundled stand-ins the nesting reuse cuts a 5-value sweep's work
roughly in half versus independent runs; the test suite checks the
output equals flat enumeration and the brute-force oracle at every k.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.core.engine import Component, SerialEngine
from repro.core.hierarchy import _label_set
from repro.core.options import KVCCOptions
from repro.core.stats import RunStats
from repro.graph.graph import Graph, Vertex


def enumerate_kvccs_sweep(
    graph: Graph,
    ks: Iterable[int],
    options: Optional[KVCCOptions] = None,
    stats: Optional[RunStats] = None,
) -> Dict[int, List[Set[Vertex]]]:
    """k-VCC vertex sets for every k in ``ks``, reusing nesting.

    Parameters
    ----------
    graph:
        Any undirected :class:`~repro.graph.graph.Graph`; not modified.
    ks:
        Any iterable of thresholds >= 1; duplicates are collapsed, order
        does not matter.  An empty iterable returns ``{}``.
    options:
        :class:`~repro.core.options.KVCCOptions`.
    stats:
        Optional :class:`~repro.core.stats.RunStats` sink accumulated
        across all levels.

    Returns
    -------
    dict
        ``k -> list of vertex sets`` in ``graph``'s labels, identical (as
        families of sets) to running
        :func:`~repro.core.kvcc.kvcc_vertex_sets` independently per k.

    Examples
    --------
    >>> from repro.graph.generators import complete_graph
    >>> sweep = enumerate_kvccs_sweep(complete_graph(4), [2, 3, 4])
    >>> [sorted(c) for c in sweep[3]]
    [[0, 1, 2, 3]]
    >>> sweep[4]
    []
    """
    levels = sorted(set(ks))
    if not levels:
        return {}
    if levels[0] < 1:
        raise ValueError(f"k must be at least 1, got {levels[0]}")
    options = options or KVCCOptions()
    base = graph.to_csr()
    engine = SerialEngine()
    stats = stats if stats is not None else RunStats(k=levels[0])

    results: Dict[int, List[Set[Vertex]]] = {}
    parents: List[Component] = [(range(base.n), 0)]
    for i, k in enumerate(levels):
        next_k = levels[i + 1] if i + 1 < len(levels) else None
        groups = engine.run_level(
            base, parents, k, options, stats,
            next_k=next_k, max_k=levels[-1],
        )
        found = [child for group in groups for child in group]
        results[k] = [_label_set(base, m) for m, _ in found]
        # A k-VCC needs more than k vertices (Definition 4).
        parents = [c for c in found if next_k and len(c[0]) > next_k]
    return results
