"""The persistent snapshot cache and split-shard scheduling."""

from repro.exec import Cell, run_cells
from repro.exec.cells import equivalence_cells, sweep_fields

CELLS = equivalence_cells("quick")

# Cells that actually consult the snapshot store (equivalence_cells
# are fig8/chaos points, which drive their scenarios directly): two
# sparse event windows over one tiny population.
STORE_CELLS = [
    Cell(
        kind="events.point",
        scale="quick",
        seed=8,
        overrides=(("dns_servers", 10), ("planetlab_nodes", 6)),
        options=(("rate_factor", factor), ("duration_minutes", 40.0)),
        group="events",
    )
    for factor in (0.1, 0.5)
]


def test_disk_store_persists_across_invocations(tmp_path):
    cold = run_cells(STORE_CELLS, jobs=1, manifest=False, store_dir=str(tmp_path))
    assert cold.ok, [r.error for r in cold.failures()]
    assert cold.snapshot_misses > 0
    assert any(tmp_path.iterdir())  # snapshots landed on disk

    warm = run_cells(STORE_CELLS, jobs=1, manifest=False, store_dir=str(tmp_path))
    assert warm.ok
    assert warm.snapshot_misses == 0
    assert warm.snapshot_hits >= cold.snapshot_misses
    assert sweep_fields(cold.results) == sweep_fields(warm.results)


def test_split_groups_matches_grouped_scheduling(tmp_path):
    grouped = run_cells(CELLS, jobs=1, manifest=False)
    split = run_cells(
        CELLS, jobs=4, manifest=False, store_dir=str(tmp_path), split_groups=True
    )
    assert grouped.ok and split.ok
    assert sweep_fields(grouped.results) == sweep_fields(split.results)
    assert [r.cell_key for r in split.results] == [c.cell_key for c in CELLS]


def test_split_groups_defaults_to_store_dir_presence(tmp_path):
    # Without a shared store, splitting silently trades the warm start
    # away — so it must stay off; with one, it defaults on.  Both
    # regimes must still produce identical outputs.
    no_store = run_cells(CELLS, jobs=4, manifest=False)
    with_store = run_cells(CELLS, jobs=4, manifest=False, store_dir=str(tmp_path))
    assert no_store.ok and with_store.ok
    assert sweep_fields(no_store.results) == sweep_fields(with_store.results)


def test_runner_snapshot_cache_flag(tmp_path, capsys):
    from repro.experiments.runner import main

    cache = tmp_path / "cache"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main(
            [
                "fig4",
                "--scale",
                "quick",
                "--jobs",
                "1",
                "--no-manifest",
                "--snapshot-cache",
                str(cache),
                "--out",
                str(out),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert any(cache.iterdir())
    reports_a = sorted(p.name for p in out_a.glob("*.txt"))
    assert reports_a == sorted(p.name for p in out_b.glob("*.txt"))
    for name in reports_a:
        assert (out_a / name).read_text() == (out_b / name).read_text()


# -- damaged payloads fail safe ------------------------------------------------


def _window_files(directory):
    """``{key: payload path}`` for every probe-window entry on disk."""
    return {
        sidecar.read_text(encoding="utf-8"): sidecar.with_suffix(".pkl")
        for sidecar in directory.glob("*.key")
    }


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def test_damaged_payload_is_a_counted_miss(tmp_path):
    from repro.exec import SnapshotStore

    store = SnapshotStore(directory=tmp_path)
    store.put("artifact", {"answer": 42})
    path = next(tmp_path.glob("*.pkl"))
    path.write_bytes(b"not a pickle")
    fresh = SnapshotStore(directory=tmp_path)
    assert fresh.get("artifact") is None
    assert fresh.stats()["corrupt"] == 1 and fresh.misses == 1 and fresh.hits == 0
    assert not path.exists()  # removed, so the next put rewrites it
    assert fresh.get_or_compute("artifact", lambda: {"answer": 42}) == {"answer": 42}
    assert SnapshotStore(directory=tmp_path).get("artifact") == {"answer": 42}


def test_best_prefix_skips_a_damaged_prefix(tmp_path):
    from repro.exec import SnapshotStore
    from repro.obs.manifest import fingerprint_params
    from repro.workloads.scenario import ScenarioParams, driven_scenario, probe_window_key

    params = ScenarioParams(seed=42, dns_servers=10, planetlab_nodes=6, build_meridian=False)
    store = SnapshotStore(directory=tmp_path)
    for rounds in (2, 4):
        driven_scenario(params, rounds=rounds, store=store)
    files = _window_files(tmp_path)
    _truncate(files[probe_window_key(params, 4, 10.0)])

    fresh = SnapshotStore(directory=tmp_path)
    rounds, snapshot = fresh.best_prefix(fingerprint_params(params), 10.0, 6)
    assert rounds == 2 and snapshot.rounds == 2
    assert fresh.corrupt == 1 and fresh.prefix_hits == 1
    assert probe_window_key(params, 4, 10.0) not in _window_files(tmp_path)

    _truncate(files[probe_window_key(params, 2, 10.0)])
    assert SnapshotStore(directory=tmp_path).best_prefix(
        fingerprint_params(params), 10.0, 6
    ) is None


def test_truncated_window_resimulates_warm_fig8_cell(tmp_path):
    from repro.exec import SnapshotStore
    from repro.experiments.fig8_interval import run_fig8_point
    from repro.workloads.scenario import ScenarioParams

    params = ScenarioParams(seed=23, dns_servers=10, planetlab_nodes=10, build_meridian=False)
    cold = run_fig8_point(params, 20.0, 200.0, evaluations=2, store=SnapshotStore(directory=tmp_path))
    files = _window_files(tmp_path)
    assert len(files) == 2  # one window per evaluation checkpoint
    for path in files.values():
        _truncate(path)

    warm = SnapshotStore(directory=tmp_path)
    assert run_fig8_point(params, 20.0, 200.0, evaluations=2, store=warm) == cold
    assert warm.corrupt == 2 and warm.full_runs == 1
    # The re-simulated windows replaced the damaged files.
    again = SnapshotStore(directory=tmp_path)
    assert run_fig8_point(params, 20.0, 200.0, evaluations=2, store=again) == cold
    assert again.corrupt == 0 and again.full_runs == 0
