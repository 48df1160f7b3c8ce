"""Configuration knobs for the enumeration algorithms.

The experiments in Section 6.2 compare four variants that differ only in
which pruning strategies are active; :class:`KVCCOptions` captures those
switches plus the lower-level choices the paper fixes implicitly (source
selection, phase-1 test order, sparse certification).  The presets live
in :mod:`repro.core.variants`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass(frozen=True)
class KVCCOptions:
    """Switches for GLOBAL-CUT / KVCC-ENUM.

    Attributes
    ----------
    use_certificate:
        Compute the sparse certificate and run connectivity testing on it
        (Algorithm 2 line 1 / Algorithm 3 line 1).  Both the basic and the
        optimized algorithms use it in the paper; turning it off is an
        ablation.
    neighbor_sweep:
        Section 5.1: strong side-vertex rule (NS 1) and vertex-deposit
        rule (NS 2).
    group_sweep:
        Section 5.2: side-groups from ``F_k``, group deposits (GS 1-2)
        and same-group pair skipping in phase 2 (GS 3).
    farthest_first:
        Process phase-1 vertices in non-ascending BFS distance from the
        source (Algorithm 3 line 11).  The basic Algorithm 2 iterates in
        natural order instead.
    source_strong_side_vertex:
        Pick the source vertex among strong side-vertices when any exist,
        which makes phase 2 unnecessary (Algorithm 3 lines 4-7).  Only
        meaningful when side-vertices are being computed at all, i.e.
        when ``neighbor_sweep`` or ``group_sweep`` is on.
    maintain_side_vertices:
        Restrict strong side-vertex detection in partitioned subgraphs to
        candidates inherited from the parent (Lemmas 15-16), rechecking
        only vertices whose 2-hop structure may have changed.
    seed:
        Tie-break seed for the (paper: random) choice among strong
        side-vertex sources.  The default picks deterministically.

    Examples
    --------
    >>> KVCCOptions().describe()
    'NS+GS'
    >>> KVCCOptions(use_certificate=False).describe()
    'NS+GS+nocert'
    >>> KVCCOptions.from_dict(KVCCOptions(seed=7).to_dict()).seed
    7
    """

    use_certificate: bool = True
    neighbor_sweep: bool = True
    group_sweep: bool = True
    farthest_first: bool = True
    source_strong_side_vertex: bool = True
    maintain_side_vertices: bool = True
    seed: int = 0

    @property
    def side_vertices_enabled(self) -> bool:
        """Strong side-vertices are needed by either sweep family."""
        return self.neighbor_sweep or self.group_sweep

    def describe(self) -> str:
        """Short human-readable tag, e.g. for benchmark labels."""
        parts = []
        if self.neighbor_sweep:
            parts.append("NS")
        if self.group_sweep:
            parts.append("GS")
        if not parts:
            parts.append("basic")
        if not self.use_certificate:
            parts.append("nocert")
        return "+".join(parts)

    def to_dict(self) -> dict:
        """All fields as a plain dict (JSON-friendly round-trip form)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "KVCCOptions":
        """Rebuild options from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` (loud failure on configs
        written by a different version) and missing keys keep their
        defaults, so old configs keep loading after new fields appear.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown KVCCOptions fields: {sorted(unknown)}"
            )
        return cls(**data)
