"""The probe-path workloads: ``probe_dense`` and ``probe_sparse``.

Both run the default-scale selection world (400 DNS-server clients and
240 candidates, 640 probing nodes) built from the workload seed.

``probe_dense`` times one fig8 20-minute cell (``run_fig8_point``) over
a window truncated to two probe rounds: cold against a fresh in-memory
``SnapshotStore`` (probing, checkpoint snapshots, Top-1 evaluation),
then warm against the store the cold cell filled (restore and evaluate,
no probing).  The process computes the world's base-RTT orderings once
before the first unit, as a runner worker does on its first cell.

``probe_sparse`` drives one 600 s ``Scenario.run_events`` window with a
Poisson/Zipf workload at 20 lookups/s over the same 640 nodes through
``driven_scenario_events``: cold against a fresh store (build, simulate,
snapshot), warm as the median of three restores from the store it
filled.

A unit is one timed world build (``setup_s``) and one cold plus one warm
pass; a run repeats units until its time is spent and reports per-unit
medians (``common.Run``).  Stores stay in memory, so no timed section
touches the disk or spawns a process.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time
from typing import Dict, List

from common import CheckFailed, Run, median, peak_rss_mb, sub_seed
from layers import SPANS, probe_patches

#: fig8's densest probe interval, and the rounds the cell is cut to.
FIG8_INTERVAL_MIN = 20.0
FIG8_ROUNDS = 2
#: The sparse window: aggregate lookup rate and simulated length.
SPARSE_RATE_PER_S = 20.0
SPARSE_UNTIL_S = 600.0
#: Restores timed per warm sparse pass (one restore is ~0.1 s).
SPARSE_WARM_REPEATS = 3


def world_params(seed: int):
    """The fig8 cell's scenario parameters (meridian off, as fig8 runs)."""
    from repro.experiments.harness import scenario_params_for

    params = scenario_params_for("default", sub_seed(seed, "world"))
    return dataclasses.replace(params, build_meridian=False)


def time_setup(params) -> float:
    """Wall of one world build (the ready state), after a full collection."""
    from repro.workloads.scenario import Scenario

    gc.collect()
    started = time.perf_counter()
    Scenario(params)
    return time.perf_counter() - started


def digest(*parts: object) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def scenario_digest(scenario) -> str:
    """Every node's redirection log plus the probe count and sim clock."""
    crp = scenario.crp
    logs = [(node, crp.tracker(node).observations) for node in sorted(crp.nodes)]
    return digest(crp.probes_issued, scenario.clock.now, logs)


def invariant_violations(scenario) -> List[str]:
    """Trackers, ratio maps, resolver caches and health, checked live."""
    from repro.check.invariants import default_registry

    registry = default_registry()
    crp = scenario.crp
    now = scenario.clock.now
    found = []
    for node in crp.nodes:
        found += registry.check("tracker", node, crp.tracker(node), now=now)
        ratio_map = crp.ratio_map(node)
        if ratio_map is not None:
            found += registry.check("ratio_map", node, ratio_map, now=now)
    for node, resolver in sorted(scenario.resolvers.items()):
        found += registry.check("ttl_cache", node, resolver.cache, now, now=now)
    found += registry.check("service_health", "crp", crp, now=now)
    return [str(v) for v in found]


def probe_unit(params, tracer, body):
    """A unit for :meth:`Run.loop`: one timed world build, then ``body``.

    ``body()`` returns ``(end-to-end row, per-layer row, timed seconds)``;
    the timed seconds are the walls of its timed sections, the unit wall
    spans are set against, so the benchmark's own checks and collections
    never count as uncovered time.  A traced unit runs ``body`` under the
    probe-path spans.
    """

    def unit(traced: bool):
        setup_s = time_setup(params)
        if not traced:
            return (setup_s, *body())
        tracer.begin_unit()
        tracer.install(probe_patches())
        try:
            row, layer_row, wall = body()
        finally:
            tracer.uninstall()
        layer_row.update(tracer.unit_totals(SPANS))
        layer_row["dnssim.resolve.failures"] = float(tracer.failures.get("dnssim.resolve", 0))
        gets = tracer.calls.get("dnssim.cache.get", 0)
        misses = tracer.misses.get("dnssim.cache.get", 0)
        layer_row["dnssim.cache.hits"] = float(gets - misses)
        layer_row["dnssim.cache.misses"] = float(misses)
        layer_row["dnssim.cache.hit_ratio"] = (gets - misses) / gets if gets else 0.0
        for name in ("exec.snapshot.put", "exec.snapshot.get", "exec.snapshot.prefix"):
            layer_row[f"{name}.bytes"] = float(tracer.nbytes.get(name, 0))
        layer_row["trace.uncovered_share"] = 1.0 - tracer.covered_s / wall
        return setup_s, row, layer_row, wall

    return unit


def store_counts(store) -> Dict[str, float]:
    stats = store.stats()
    return {
        "exec.full_runs": float(stats["full_runs"]),
        "exec.prefix_hits": float(stats["prefix_hits"]),
        "exec.rounds_saved": float(stats["rounds_saved"]),
    }


def probe_dense(seed: int, seconds: float, tracer=None) -> dict:
    from repro.exec.snapshots import SnapshotStore
    from repro.experiments.fig8_interval import base_orderings_for, run_fig8_point
    from repro.workloads.scenario import Scenario

    params = world_params(seed)
    base_orderings_for(Scenario(params))
    duration = FIG8_ROUNDS * FIG8_INTERVAL_MIN
    run = Run(seconds, tracer is not None)

    def body():
        store = SnapshotStore()
        gc.collect()
        started = time.perf_counter()
        cold = run_fig8_point(params, FIG8_INTERVAL_MIN, duration, store=store)
        cold_s = time.perf_counter() - started
        full_runs = store.full_runs
        gc.collect()
        started = time.perf_counter()
        warm = run_fig8_point(params, FIG8_INTERVAL_MIN, duration, store=store)
        warm_s = time.perf_counter() - started
        run.attempted += 2
        if store.full_runs != full_runs:
            raise CheckFailed("the warm cell re-simulated a window")
        cold_out = digest(cold.label, cold.avg_rank_by_client, cold.unplottable_clients)
        warm_out = digest(warm.label, warm.avg_rank_by_client, warm.unplottable_clients)
        if cold_out != warm_out:
            raise CheckFailed("warm cell result differs from the cold cell's")
        if not cold.avg_rank_by_client:
            raise CheckFailed("the cell ranked no client")
        run.check_output(cold_out)
        layer_row = store_counts(store)
        layer_row["sim.loop.events"] = 0.0
        return {"cold_s": cold_s, "warm_s": warm_s}, layer_row, cold_s + warm_s

    run.loop(probe_unit(params, tracer, body))
    return run.finish(peak_rss_mb(), {"output": run.outputs})


class ZipfBuilder:
    """Builds the sparse window's workload from a world (keyed for the store)."""

    def __init__(self, names, seed: int) -> None:
        from repro.sim.workload import PoissonZipfWorkload

        self.seed = seed
        self.built = 0
        self.key = PoissonZipfWorkload(
            names, seed, aggregate_rate_per_s=SPARSE_RATE_PER_S
        ).key

    def __call__(self, scenario):
        from repro.sim.workload import PoissonZipfWorkload

        self.built += 1
        return PoissonZipfWorkload(
            scenario.crp.active_nodes, self.seed, aggregate_rate_per_s=SPARSE_RATE_PER_S
        )


def probe_sparse(seed: int, seconds: float, tracer=None) -> dict:
    from repro.exec.snapshots import SnapshotStore
    from repro.workloads.scenario import Scenario, driven_scenario_events

    params = world_params(seed)
    names = list(Scenario(params).crp.active_nodes)
    arrival_seed = sub_seed(seed, "arrivals")
    run = Run(seconds, tracer is not None)
    info: Dict[str, object] = {}

    def body():
        store = SnapshotStore()
        builder = ZipfBuilder(names, arrival_seed)
        gc.collect()
        started = time.perf_counter()
        scenario, stats = driven_scenario_events(
            params, builder, SPARSE_UNTIL_S, store=store
        )
        cold_s = time.perf_counter() - started
        stable = {k: v for k, v in stats.items() if not k.startswith("wall")}
        output = digest(scenario_digest(scenario), stable)
        if "lookups" not in info:
            violations = invariant_violations(scenario)
            if violations:
                raise CheckFailed(f"invariant violations: {violations[:3]}")
            info["lookups"] = scenario.crp.probes_issued
            info["events"] = stats["dispatched"]
        layer_row = {"sim.loop.events": float(stats["dispatched"])}
        scenario = None
        warm = []
        for _ in range(SPARSE_WARM_REPEATS):
            gc.collect()
            started = time.perf_counter()
            restored, restored_stats = driven_scenario_events(
                params, builder, SPARSE_UNTIL_S, store=store
            )
            warm.append(time.perf_counter() - started)
            stable_warm = {k: v for k, v in restored_stats.items() if not k.startswith("wall")}
            if digest(scenario_digest(restored), stable_warm) != output:
                raise CheckFailed("restored window differs from the simulated one")
            restored = None
        run.attempted += 1 + SPARSE_WARM_REPEATS
        if builder.built != 1:
            raise CheckFailed("a warm pass re-simulated the window")
        run.check_output(output)
        layer_row.update(store_counts(store))
        return {"cold_s": cold_s, "warm_s": median(warm)}, layer_row, cold_s + sum(warm)

    run.loop(probe_unit(params, tracer, body))
    info["output"] = run.outputs
    info["lookups_per_cold_s"] = info["lookups"] / median([r["cold_s"] for r in run.rows])
    return run.finish(peak_rss_mb(), info)

