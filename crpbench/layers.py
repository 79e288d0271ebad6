"""The layer spans the traced run records, and the per-layer metric names.

Every workload reports the same per-layer metrics; a layer a workload
bypasses reports zero calls, which is itself the measurement (for
example, ``netsim.base_rtt.calls`` is 0 on ``serve_mix``).
"""

from __future__ import annotations

from typing import Dict, List

#: Span names, each reported as ``<name>.calls`` and ``<name>.self_s``.
SPANS = (
    "netsim.measure_rtt",
    "netsim.base_rtt",
    "cdn.ranking",
    "cdn.select_replicas",
    "cdn.candidate_pool",
    "cdn.select",
    "dnssim.resolve",
    "dnssim.authority",
    "dnssim.cache.get",
    "dnssim.cache.sweeps",
    "core.probe",
    "core.tracker.observe",
    "core.ratio_map",
    "core.rank",
    "core.engine.pack",
    "sim.loop",
    "exec.snapshot.put",
    "exec.snapshot.get",
    "exec.snapshot.prefix",
    "exec.snapshot.capture",
    "exec.snapshot.restore",
    "workloads.scenario.build",
    "experiments.orderings",
    "serve.submit",
    "serve.handle",
)

#: Per-layer metrics beyond the span pairs: ``name -> unit``.
EXTRA = {
    "dnssim.resolve.failures": "count",
    "dnssim.cache.hits": "count",
    "dnssim.cache.misses": "count",
    "dnssim.cache.hit_ratio": "ratio",
    "sim.loop.events": "count",
    "exec.snapshot.put.bytes": "B",
    "exec.snapshot.get.bytes": "B",
    "exec.snapshot.prefix.bytes": "B",
    "exec.full_runs": "count",
    "exec.prefix_hits": "count",
    "exec.rounds_saved": "count",
    "serve.handle_us_p50": "us",
    "serve.handle_us_p99": "us",
    "serve.queue_wait_us_p50": "us",
    "serve.queue_wait_us_p99": "us",
    "serve.queue_depth_max": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
    "host.ref_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    return units


def snapshot_bytes(args, result) -> int:
    """Scenario payload bytes a snapshot put, get or prefix lookup moved.

    ``put`` returns nothing (its snapshot is the third argument), ``get``
    the snapshot or None, ``best_prefix`` a ``(rounds, snapshot)`` pair
    or None.
    """
    value = result if result is not None else (args[2] if len(args) > 2 else None)
    if isinstance(value, tuple):
        value = value[1]
    return len(getattr(value, "payload", b""))


def is_none(result) -> bool:
    return result is None


def probe_patches() -> List[tuple]:
    """``(owner, attribute, span name[, options])`` for the probe path."""
    from repro.cdn import mapping as cdn_mapping
    from repro.cdn.mapping import MappingSystem
    from repro.core import service as core_service
    from repro.core.service import CRPService
    from repro.core.tracker import RedirectionTracker
    from repro.dnssim.authoritative import AuthoritativeServer
    from repro.dnssim.cache import TtlCache
    from repro.dnssim.resolver import RecursiveResolver
    from repro.exec.snapshots import SnapshotStore
    from repro.experiments import fig8_interval
    from repro.netsim.network import Network
    from repro.sim.loop import EventLoop
    from repro.workloads.scenario import EventWindowSnapshot, Scenario, ScenarioSnapshot

    return [
        (Network, "measure_rtt_ms", "netsim.measure_rtt"),
        (Network, "base_rtt_ms", "netsim.base_rtt"),
        (MappingSystem, "ranking", "cdn.ranking"),
        (MappingSystem, "candidate_pool", "cdn.candidate_pool"),
        (MappingSystem, "select", "cdn.select"),
        (cdn_mapping, "select_replicas", "cdn.select_replicas"),
        (RecursiveResolver, "resolve", "dnssim.resolve"),
        (AuthoritativeServer, "answer", "dnssim.authority"),
        (TtlCache, "get", "dnssim.cache.get", {"miss": is_none}),
        (TtlCache, "sweep", "dnssim.cache.sweeps"),
        (CRPService, "probe", "core.probe"),
        (RedirectionTracker, "observe", "core.tracker.observe"),
        (CRPService, "ratio_map", "core.ratio_map"),
        (core_service, "rank_packed", "core.rank"),
        (core_service, "select_top_k", "core.rank"),
        (fig8_interval, "rank_packed", "core.rank"),
        (fig8_interval, "packed_for", "core.engine.pack"),
        (fig8_interval, "base_orderings_for", "experiments.orderings"),
        (EventLoop, "run", "sim.loop"),
        (SnapshotStore, "put", "exec.snapshot.put", {"nbytes": snapshot_bytes}),
        (SnapshotStore, "get", "exec.snapshot.get", {"nbytes": snapshot_bytes}),
        (SnapshotStore, "best_prefix", "exec.snapshot.prefix",
         {"nbytes": snapshot_bytes}),
        (ScenarioSnapshot, "capture", "exec.snapshot.capture"),
        (EventWindowSnapshot, "capture", "exec.snapshot.capture"),
        (ScenarioSnapshot, "restore", "exec.snapshot.restore"),
        (EventWindowSnapshot, "restore", "exec.snapshot.restore"),
        (Scenario, "__init__", "workloads.scenario.build"),
    ]
