"""Read-side combiners.

Per-core structures shard one logical value across cores; these helpers
fold the shards back together through any driver session's public scan.
They only read: combining never writes, locks, or coordinates, and a scan
that races an in-flight flush just reports a slightly stale total.
"""

from __future__ import annotations

from ..keys import StructureType


def _shards(
    session, nf_id: str, instance_id: str, stype: StructureType, structure_id: str
):
    """(key, snapshot) of each core's stored shard of one structure."""
    for key, snapshot in session.scan_prefix(nf_id, instance_id):
        if (
            key.structure_type is stype
            and key.structure_id == structure_id
            and snapshot is not None
        ):
            yield key, snapshot


def combine_counters(session, nf_id: str, instance_id: str, structure_id: str) -> int:
    """Sum one counter id across every core of an instance."""
    shards = _shards(session, nf_id, instance_id, StructureType.COUNTER, structure_id)
    return sum(snapshot for _key, snapshot in shards)


def combine_counter_maps(
    session, nf_id: str, instance_id: str, structure_id: str
) -> dict[bytes, int]:
    """Entry-wise sum of one CounterMap id across every core."""
    totals: dict[bytes, int] = {}
    for _key, snapshot in _shards(
        session, nf_id, instance_id, StructureType.COUNTER_MAP, structure_id
    ):
        for entry, value in snapshot.items():
            totals[entry] = totals.get(entry, 0) + value
    return totals


def merge_maps(
    session, nf_id: str, instance_id: str, structure_id: str
) -> dict[bytes, bytes]:
    """Union of one Map id across cores. Writers own disjoint key ranges,
    so a plain union is exact; on overlap the highest core wins."""
    merged: dict[bytes, bytes] = {}
    for _key, snapshot in _shards(
        session, nf_id, instance_id, StructureType.MAP, structure_id
    ):
        merged.update(snapshot)
    return merged


def per_core_counters(
    session, nf_id: str, instance_id: str, structure_id: str
) -> dict[int, int]:
    """The unsummed shards, keyed by core id."""
    shards = _shards(session, nf_id, instance_id, StructureType.COUNTER, structure_id)
    return {key.core_id: snapshot for key, snapshot in shards}


def per_core_counter_maps(
    session, nf_id: str, instance_id: str, structure_id: str
) -> dict[int, dict[bytes, int]]:
    """Per-core CounterMap shards, keyed by core id."""
    shards = _shards(
        session, nf_id, instance_id, StructureType.COUNTER_MAP, structure_id
    )
    return {key.core_id: dict(snapshot) for key, snapshot in shards}
