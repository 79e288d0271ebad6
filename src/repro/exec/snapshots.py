"""Content-addressed snapshot/artifact store for the executor.

A :class:`SnapshotStore` maps stable string keys to pickled values.
Values go in as pickle bytes and come out as fresh unpickled copies,
so no consumer can mutate what a later consumer restores — the store
is a cache of *states*, not of live objects.  Two families of entries
share it:

* **probe-trace snapshots** — :class:`~repro.workloads.scenario.ScenarioSnapshot`
  payloads keyed by :func:`~repro.workloads.scenario.probe_window_key`
  (params fingerprint + rounds + interval), written by
  :func:`~repro.workloads.scenario.driven_scenario`;
* **derived artifacts** — expensive post-probing results (a
  :class:`~repro.experiments.harness.ClosestNodeOutcome`, a
  :class:`~repro.experiments.clustering.ClusteringStudy`) keyed by the
  same fingerprint scheme, via :meth:`SnapshotStore.get_or_compute`.

Probe-trace snapshots are additionally **prefix-extensible**: a
window at ``(params, rounds=R, interval=I)`` can be satisfied by
restoring any cached ``(params, rounds=r<R, interval=I)`` snapshot and
probing only the remaining ``R−r`` rounds (the round loop is
stateless across iterations, so the split is behaviourally identical
to a straight run).  :meth:`SnapshotStore.best_prefix` serves the
longest such prefix; :func:`~repro.workloads.scenario.driven_scenario`
and :func:`~repro.workloads.scenario.driven_checkpoints` consume it.

Hit/miss counters feed the sweep manifest and
``BENCH_pipeline.json``, alongside prefix accounting: ``prefix_hits``
(windows satisfied by a shorter cached prefix), ``rounds_saved``
(rounds restored instead of simulated), ``rounds_extended`` (rounds
probed on top of a prefix), and ``full_runs`` (scenarios built from
scratch).  An optional directory makes entries survive the process
(one file per key, written atomically), which lets repeat bench runs
skip re-simulation entirely; probe-window entries also get a sidecar
``.key`` file so a fresh process can discover usable prefixes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

T = TypeVar("T")

_PROBE_WINDOW_PREFIX = "probe-window:"
#: Window payloads are full scenario pickles — by far the largest
#: entries — so disk-backed stores write them through instead of also
#: retaining them in memory (see :meth:`SnapshotStore.put`).
_WINDOW_KEY_PREFIXES = (_PROBE_WINDOW_PREFIX, "event-window:")


#: No usable payload: absent, or damaged and dropped by ``_load``.
_MISSING = object()


def _parse_probe_window_key(key: str) -> Optional[Tuple[str, str, int]]:
    """``(params_fp, interval_label, rounds)`` for a probe-window key."""
    if not key.startswith(_PROBE_WINDOW_PREFIX):
        return None
    try:
        params_fp, rounds_part, interval_part = key[
            len(_PROBE_WINDOW_PREFIX):
        ].rsplit(":", 2)
        if not rounds_part.startswith("r") or not interval_part.startswith("i"):
            return None
        return params_fp, interval_part[1:], int(rounds_part[1:])
    except ValueError:
        return None


class SnapshotStore:
    """Keyed pickle store with hit/miss accounting (see module doc)."""

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self._entries: Dict[str, bytes] = {}
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Payloads that failed to unpickle (also counted as misses).
        self.corrupt = 0
        self.puts = 0
        #: Prefix-extension accounting (see module doc); the window
        #: drivers in :mod:`repro.workloads.scenario` increment the
        #: round counters, the store itself counts ``prefix_hits``.
        self.prefix_hits = 0
        self.rounds_saved = 0
        self.rounds_extended = 0
        self.full_runs = 0
        #: ``(params_fp, interval_label) -> {rounds: key}`` over every
        #: probe-window entry this store knows about.
        self._probe_index: Dict[Tuple[str, str], Dict[int, str]] = {}
        self._disk_index_loaded = False

    @staticmethod
    def key_for(*parts: object) -> str:
        """A stable content key from reprs of the parts."""
        joined = "|".join(repr(part) for part in parts)
        return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).hexdigest()

    def _path_for(self, key: str) -> Path:
        assert self.directory is not None
        safe = hashlib.blake2b(key.encode("utf-8"), digest_size=16).hexdigest()
        return self.directory / f"{safe}.pkl"

    def _retains(self, key: str) -> bool:
        """Whether this key's payload is kept in memory after disk I/O.

        Disk-backed window payloads (full scenario pickles, tens of MB
        at paper scale) are write-through: the directory is
        authoritative and re-reads are rare, so holding every
        checkpoint of every interval in ``_entries`` would only grow
        the resident set linearly in checkpoints.
        """
        return self.directory is None or not key.startswith(_WINDOW_KEY_PREFIXES)

    def _payload(self, key: str) -> Optional[bytes]:
        """The raw payload from memory or disk, with no hit/miss count."""
        payload = self._entries.get(key)
        if payload is None and self.directory is not None:
            path = self._path_for(key)
            if path.exists():
                payload = path.read_bytes()
                if self._retains(key):
                    self._entries[key] = payload
        return payload

    def _load(self, key: str, payload: bytes) -> object:
        """Unpickle a payload; a damaged one is dropped (``_MISSING``).

        A truncated or garbage entry (an interrupted writer, a full
        disk, a foreign file) costs a re-simulation, never a failed
        cell: the entry and its files are removed and ``corrupt``
        counts it.
        """
        try:
            return pickle.loads(payload)
        except Exception:
            self.corrupt += 1
            self._entries.pop(key, None)
            parsed = _parse_probe_window_key(key)
            if parsed is not None:
                params_fp, interval_label, rounds = parsed
                self._probe_index.get((params_fp, interval_label), {}).pop(rounds, None)
            if self.directory is not None:
                path = self._path_for(key)
                path.unlink(missing_ok=True)
                path.with_suffix(".key").unlink(missing_ok=True)
            return _MISSING

    def get(self, key: str) -> Optional[object]:
        """A fresh copy of the stored value, or None (counted).

        A payload that fails to unpickle counts as a miss (and on
        ``corrupt``) and is removed.
        """
        payload = self._payload(key)
        value = _MISSING if payload is None else self._load(key, payload)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        """Store a value (pickled immediately; later mutation is moot)."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        if self._retains(key):
            self._entries[key] = payload
        self.puts += 1
        if self.directory is not None:
            path = self._path_for(key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(payload)
            tmp.replace(path)
            if key.startswith(_PROBE_WINDOW_PREFIX):
                sidecar = path.with_suffix(".key")
                tmp = sidecar.with_suffix(f".tmp.{os.getpid()}")
                tmp.write_text(key, encoding="utf-8")
                tmp.replace(sidecar)
        self._index_probe_key(key)

    def _index_probe_key(self, key: str) -> None:
        parsed = _parse_probe_window_key(key)
        if parsed is None:
            return
        params_fp, interval_label, rounds = parsed
        self._probe_index.setdefault((params_fp, interval_label), {})[rounds] = key

    def _load_disk_index(self) -> None:
        """Index probe-window keys left on disk by earlier processes.

        Scanned once, lazily: stores are per-shard and short-lived, so
        entries written by *concurrent* processes after the scan are
        simply not offered as prefixes (duplicate simulation at worst,
        never corruption).
        """
        if self.directory is None or self._disk_index_loaded:
            return
        self._disk_index_loaded = True
        for sidecar in self.directory.glob("*.key"):
            try:
                key = sidecar.read_text(encoding="utf-8").strip()
            except OSError:
                continue
            if key in self._entries or self._path_for(key).exists():
                self._index_probe_key(key)

    def best_prefix(
        self, params_fp: str, interval_minutes: float, max_rounds: int
    ) -> Optional[Tuple[int, object]]:
        """The longest cached probing prefix usable for a larger window.

        Returns ``(rounds, snapshot)`` for the probe-window entry with
        the most rounds ``<= max_rounds`` under exactly this params
        fingerprint and interval, or None.  Counted on ``prefix_hits``
        (not ``hits``/``misses`` — those stay exact-lookup counters).
        """
        self._load_disk_index()
        bucket = self._probe_index.get((params_fp, f"{interval_minutes:g}"))
        if not bucket:
            return None
        for rounds in sorted(bucket, reverse=True):
            if rounds > max_rounds:
                continue
            key = bucket[rounds]
            payload = self._payload(key)
            snapshot = _MISSING if payload is None else self._load(key, payload)
            if snapshot is _MISSING:
                continue
            self.prefix_hits += 1
            return rounds, snapshot
        return None

    def get_or_compute(self, key: str, compute: Callable[[], T]) -> T:
        """The stored value, or ``compute()`` stored and returned.

        On a miss the computed object itself is returned (not a pickle
        round-trip): the store already holds an immutable copy, and the
        fresh object is bit-equal to what a later ``get`` restores.
        """
        cached = self.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        value = compute()
        self.put(key, value)
        return value

    def __contains__(self, key: str) -> bool:
        if key in self._entries:
            return True
        return self.directory is not None and self._path_for(key).exists()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (the bench and manifest rollup).

        ``entries``/``bytes`` cover the in-memory side only; with a
        directory, window payloads live on disk (write-through).
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
            "prefix_hits": self.prefix_hits,
            "rounds_saved": self.rounds_saved,
            "rounds_extended": self.rounds_extended,
            "full_runs": self.full_runs,
            "entries": len(self._entries),
            "bytes": sum(len(p) for p in self._entries.values()),
        }
