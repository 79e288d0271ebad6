"""Shared helpers: seeds, host block, reference loop, statistics, unit loop."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent

#: Where the traced run dumps its spans; inside the checkout, git-ignored.
OUT_DIR = ROOT / ".bench_out"

#: Units every run completes, however short its time budget.
MIN_UNITS = 3


class CheckFailed(RuntimeError):
    """An output check failed: the run reports ``correct: false``."""


def sub_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one input family, derived from the CLI seed."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2**31 - 1)


def host_block() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def ref_seconds() -> float:
    """Wall time of a fixed pure-Python loop that uses no repo code.

    Timed between units as a host-speed diagnostic; it never divides or
    corrects a reported metric.
    """
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += (i * 7) % 13
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def import_repro() -> None:
    """Put the checkout's ``src`` on the path; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def medians_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over per-unit dicts (keys of the first row)."""
    return {key: median([row.get(key, 0.0) for row in rows]) for key in rows[0]}


#: ``unit(traced) -> (setup seconds, end-to-end row, per-layer row, timed seconds)``.
Unit = Callable[[bool], Tuple[float, Dict[str, float], Dict[str, float], float]]


class Run:
    """The unit loop every workload shares.

    A unit first builds the workload's ready state once (one ``setup_s``
    sample, after ``gc.collect()``), then runs its timed sections; so the
    set-up samples are spread over the whole run like the walls.  A run
    repeats units until its time is spent and reports per-unit medians.
    With tracing, units alternate untraced and traced: the untraced ones
    give the end-to-end rows and the overhead baseline, the traced ones
    the per-layer rows.  ``host.ref_s`` is sampled between units.
    """

    def __init__(self, seconds: float, traced: bool) -> None:
        self.seconds = seconds
        self.traced = traced
        self.setups: List[float] = []
        self.rows: List[Dict[str, float]] = []
        self.layer_rows: List[Dict[str, float]] = []
        self.plain_walls: List[float] = []
        self.traced_walls: List[float] = []
        self.refs: List[float] = []
        self.outputs: Optional[str] = None
        self.attempted = 0

    def check_output(self, output: str) -> None:
        if self.outputs is None:
            self.outputs = output
        elif output != self.outputs:
            raise CheckFailed("a unit's outputs differ from the first unit's")

    def loop(self, unit: Unit) -> None:
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index < MIN_UNITS or time.perf_counter() < deadline:
            traced = self.traced and index % 2 == 1
            setup_s, row, layer_row, wall = unit(traced)
            self.setups.append(setup_s)
            if traced:
                self.layer_rows.append(layer_row)
                self.traced_walls.append(wall)
            else:
                self.rows.append(row)
                self.plain_walls.append(wall)
            self.refs.append(ref_seconds())
            index += 1

    def per_layer(self) -> Dict[str, float]:
        """Per-unit medians; call and byte counts must repeat exactly."""
        layers = medians_of(self.layer_rows)
        for key in layers:
            if key.endswith((".calls", ".bytes")):
                if len({row.get(key, 0.0) for row in self.layer_rows}) != 1:
                    raise CheckFailed(f"{key} differs across traced units")
        layers["trace.overhead_s"] = median(self.traced_walls) - median(self.plain_walls)
        layers["host.ref_s"] = median(self.refs)
        return layers

    def finish(self, peak_rss: float, info: Dict[str, object]) -> dict:
        """The run's end-to-end metrics, per-layer metrics and diagnostics."""
        walls = medians_of(self.rows)
        info["units"] = len(self.setups)
        for key in ("setup_s", "cold_s", "warm_s"):
            values = self.setups if key == "setup_s" else [r[key] for r in self.rows]
            info[f"{key}_units"] = [round(v, 4) for v in values]
        info["host.ref_s"] = median(self.refs)
        return {
            "end_to_end": {
                "setup_s": metric(median(self.setups), "s"),
                "cold_s": metric(walls["cold_s"], "s"),
                "warm_s": metric(walls["warm_s"], "s"),
                "peak_rss_mb": metric(peak_rss, "MB"),
            },
            "per_layer": self.per_layer() if self.traced else None,
            "attempted": self.attempted,
            "info": info,
        }
