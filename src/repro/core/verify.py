"""Independent verification of a claimed k-VCC decomposition.

``enumerate_kvccs`` is validated by the test suite, but a downstream
user running on their own data may want a certificate that a particular
output is right.  :func:`verify_kvccs` re-checks the claimed family
against the definitions, one component at a time:

1. each component is an induced subgraph with more than ``k`` vertices;
2. each component is k-vertex-connected (a fresh
   :func:`~repro.core.connectivity_api.is_k_connected` call on the
   induced subgraph - which runs the enumeration's own GLOBAL-CUT, with
   the sparse certificate on and the sweeps off);
3. no component is contained in another (Lemma 3);
4. pairwise overlaps are below ``k`` (Property 1);
5. maximality: no component can be grown by any single outside vertex
   (again through ``is_k_connected``).

Checks 2 and 5 share the flow and certificate code with the enumeration
they verify.  The independent check is ``thorough=True``: it compares
the family against the brute-force oracle
(:func:`~repro.baselines.naive.naive_kvccs`, an exhaustive cut search
with no flow, certificate or sweeps), which also proves completeness.
It is exponential in k - small graphs only.

Returns a :class:`VerificationReport`; ``report.ok`` aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set

from repro.baselines.naive import naive_kvccs
from repro.core.connectivity_api import is_k_connected
from repro.graph.graph import Graph, Vertex


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_kvccs`; empty ``problems`` means valid."""

    k: int
    num_components: int
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, message: str) -> None:
        """Record one violation."""
        self.problems.append(message)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        lines = [f"k={self.k}, {self.num_components} component(s): {status}"]
        lines += [f"  - {p}" for p in self.problems]
        return "\n".join(lines)


def verify_kvccs(
    graph: Graph,
    components: Iterable[Iterable[Vertex]],
    k: int,
    thorough: bool = False,
) -> VerificationReport:
    """Check that ``components`` is a valid k-VCC family of ``graph``.

    Parameters
    ----------
    components:
        Vertex collections (Graphs are accepted via their vertex sets).
    thorough:
        Also compare against the brute-force oracle, which checks
        completeness independently of the enumeration's code.
        Exponential in ``k``; intended for graphs of at most a few dozen
        vertices.
    """
    sets: List[Set[Vertex]] = []
    for comp in components:
        if isinstance(comp, Graph):
            sets.append(comp.vertex_set())
        else:
            sets.append(set(comp))
    report = VerificationReport(k=k, num_components=len(sets))

    for i, comp in enumerate(sets):
        missing = [v for v in comp if v not in graph]
        if missing:
            report.add(f"component {i} has vertices not in the graph: {missing[:5]}")
            continue
        if len(comp) <= k:
            report.add(f"component {i} has only {len(comp)} vertices (need > k={k})")
            continue
        sub = graph.induced_subgraph(comp)
        if not is_k_connected(sub, k):
            report.add(f"component {i} is not {k}-vertex-connected")

    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i < j and len(a & b) >= k:
                report.add(
                    f"components {i} and {j} overlap in {len(a & b)} >= k vertices"
                )
            if i != j and a <= b:
                report.add(f"component {i} is contained in component {j}")

    # Single-vertex growth check: a valid k-VCC admits no outside vertex
    # x such that the component plus x is still k-connected.
    for i, comp in enumerate(sets):
        if any(p.startswith(f"component {i} ") for p in report.problems):
            continue
        candidates = set()
        for v in comp:
            if v in graph:
                candidates |= graph.neighbors(v)
        for x in candidates - comp:
            grown = graph.induced_subgraph(comp | {x})
            if is_k_connected(grown, k):
                report.add(
                    f"component {i} is not maximal: vertex {x!r} extends it"
                )
                break

    if thorough:
        expected = {frozenset(s) for s in naive_kvccs(graph, k)}
        got = {frozenset(s) for s in sets}
        if got != expected:
            only_expected = expected - got
            only_got = got - expected
            if only_expected:
                report.add(
                    f"missing {len(only_expected)} k-VCC(s) the oracle finds"
                )
            if only_got:
                report.add(
                    f"{len(only_got)} claimed component(s) are not k-VCCs"
                )
    return report
