"""The static part of the RTT model.

The base (time-invariant) round-trip time between two hosts is

    base(a, b) = access(a) + access(b)
               + propagation(a, b) * stretch(a, b)
               + per_hop_ms * as_hops(a, b)

* ``propagation`` is fiber-speed great-circle RTT (:mod:`repro.netsim.geo`).
* ``stretch`` models routing inflation and is a stable per-pair value in
  ``[stretch_min, stretch_max]`` so that two equidistant host pairs can
  see persistently different paths — the source of triangle-inequality
  violations in the model.
* ``as_hops`` is the AS-graph distance; each hop adds queueing and
  router transit delay.

Time-varying components (congestion, diurnal load, jitter) live in
:mod:`repro.netsim.dynamics` and are composed by
:class:`repro.netsim.network.Network`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.asn import ASRegistry
from repro.netsim.geo import EARTH_RADIUS_KM, FIBER_KM_PER_MS, propagation_rtt_ms
from repro.netsim.rng import hashed_seed, seed_hasher, unit_float
from repro.netsim.topology import Host

#: Relative amount :meth:`LatencyModel.lower_bounds_ms` shrinks its
#: bounds by.  numpy's vectorised haversine may differ from the scalar
#: ``math`` one by a few ulps, and near antipodal distances ``asin``
#: amplifies an ulp of its argument to ~1e-8 relative; 1e-6 covers both
#: with room to spare while costing the pruning nothing measurable.
BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class LatencyParams:
    """Tunables for the static RTT model."""

    #: Minimum routing-stretch multiplier on great-circle propagation.
    stretch_min: float = 1.15
    #: Maximum routing-stretch multiplier.
    stretch_max: float = 1.70
    #: Milliseconds added per AS-level hop.
    per_hop_ms: float = 1.6
    #: RTT floor — even loopback-adjacent hosts are not at 0 ms.
    floor_ms: float = 0.2

    def __post_init__(self) -> None:
        if self.stretch_min < 1.0:
            raise ValueError("stretch_min must be >= 1")
        if self.stretch_max < self.stretch_min:
            raise ValueError("stretch_max must be >= stretch_min")
        if self.per_hop_ms < 0 or self.floor_ms < 0:
            raise ValueError("latency parameters cannot be negative")


class HostColumns:
    """Location, access and AS columns of a fixed host sequence.

    The vectorised input of :meth:`LatencyModel.lower_bounds_ms`; build
    it once per host set and reuse it across queries.
    """

    def __init__(self, hosts: Sequence[Host]) -> None:
        self.hosts: Tuple[Host, ...] = tuple(hosts)
        self.lat = np.radians([h.location.lat for h in self.hosts])
        self.lon = np.radians([h.location.lon for h in self.hosts])
        self.access = np.array([h.access_ms for h in self.hosts], dtype=float)
        self.asn = np.array([h.asn for h in self.hosts], dtype=np.int64)
        self.host_id = np.array([h.host_id for h in self.hosts], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.hosts)


class LatencyModel:
    """Computes base RTTs between hosts; caches per-pair values."""

    def __init__(
        self,
        registry: ASRegistry,
        params: LatencyParams = LatencyParams(),
        seed: int = 0,
    ) -> None:
        self.registry = registry
        self.params = params
        self._seed = seed
        self._cache: Dict[Tuple[int, int], float] = {}
        #: blake2b state after ``str(seed)/stretch``; hashers do not
        #: pickle, so it is dropped from the state and rebuilt lazily.
        self._stretch_prefix = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_stretch_prefix"] = None
        return state

    def stretch(self, a: Host, b: Host) -> float:
        """Stable routing-stretch multiplier for an unordered host pair."""
        lo, hi = (a.host_id, b.host_id) if a.host_id < b.host_id else (b.host_id, a.host_id)
        if self._stretch_prefix is None:
            self._stretch_prefix = seed_hasher(self._seed, "stretch")
        u = unit_float(hashed_seed(self._stretch_prefix, str(lo), str(hi)))
        return self.params.stretch_min + u * (self.params.stretch_max - self.params.stretch_min)

    def _uncached_rtt_ms(self, a: Host, b: Host, hops: int) -> float:
        prop = propagation_rtt_ms(a.location, b.location, stretch=self.stretch(a, b))
        rtt = a.access_ms + b.access_ms + prop + self.params.per_hop_ms * hops
        return max(rtt, self.params.floor_ms)

    def base_rtt_ms(self, a: Host, b: Host) -> float:
        """Time-invariant RTT between two hosts, in milliseconds.

        Symmetric by construction; results are cached per unordered
        pair.
        """
        if a.host_id == b.host_id:
            return 0.0
        key = (a.host_id, b.host_id) if a.host_id < b.host_id else (b.host_id, a.host_id)
        cached = self._cache.get(key)
        if cached is None:
            hops = self.registry.hops(a.asn, b.asn)
            cached = self._cache[key] = self._uncached_rtt_ms(a, b, hops)
        return cached

    def _base_rtt_from_ms(self, a: Host, b: Host) -> float:
        """:meth:`base_rtt_ms` with hops from ``b``'s BFS row.

        For one host against many: the rows stay few when the many side
        has few distinct ASes (a replica fleet).
        """
        if a.host_id == b.host_id:
            return 0.0
        key = (a.host_id, b.host_id) if a.host_id < b.host_id else (b.host_id, a.host_id)
        cached = self._cache.get(key)
        if cached is None:
            hops = self.registry.hops_from(b.asn, a.asn)
            cached = self._cache[key] = self._uncached_rtt_ms(a, b, hops)
        return cached

    def lower_bounds_ms(
        self, a: Host, columns: HostColumns, index: np.ndarray
    ) -> np.ndarray:
        """A lower bound on ``base_rtt_ms(a, h)`` for each ``columns.hosts[index]``.

        Both access links, fiber propagation over the great circle at
        the minimum stretch, and one AS hop when the ASes differ: every
        term is at most its counterpart in the exact formula, and the
        sum is shrunk by :data:`BOUND_SLACK` so float rounding cannot
        make it exceed the exact value.
        """
        lat1 = math.radians(a.location.lat)
        lat2 = columns.lat[index]
        dlat = lat2 - lat1
        dlon = columns.lon[index] - math.radians(a.location.lon)
        h = np.sin(dlat / 2.0) ** 2 + math.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
        km = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
        params = self.params
        bound = (
            a.access_ms
            + columns.access[index]
            + 2.0 * km * params.stretch_min / FIBER_KM_PER_MS
            + params.per_hop_ms * (columns.asn[index] != a.asn)
        ) * (1.0 - BOUND_SLACK)
        bound[columns.host_id[index] == a.host_id] = 0.0
        return bound

    def nearest_ms(
        self,
        a: Host,
        columns: HostColumns,
        k: int,
        index: Optional[Sequence[int]] = None,
    ) -> List[Tuple[int, float]]:
        """The ``k`` hosts nearest ``a`` by base RTT, best first.

        Returns ``(position in columns.hosts, base RTT)`` pairs over the
        positions in ``index`` (default: all), equal to
        ``sorted(index, key=base RTT)[:k]`` — ties keep ``index`` order.
        Exact RTTs are computed (and cached) only for hosts whose lower
        bound does not exceed the k-th smallest exact RTT among the
        ``k`` best-bounded hosts; no other host can enter the top ``k``.
        """
        positions = np.arange(len(columns)) if index is None else np.asarray(index, dtype=np.int64)
        if len(positions) == 0:
            return []
        bounds = self.lower_bounds_ms(a, columns, positions)
        order = np.argsort(bounds, kind="stable")
        hosts = columns.hosts
        # Keyed by offset into ``positions``, so ties sort in index order.
        exact: Dict[int, float] = {}
        for j in order[:k].tolist():
            exact[j] = self._base_rtt_from_ms(a, hosts[positions[j]])
        kth = max(exact.values())
        rest = order[k:]
        cut = int(np.searchsorted(bounds[rest], kth, side="right"))
        for j in rest[:cut].tolist():
            exact[j] = self._base_rtt_from_ms(a, hosts[positions[j]])
        best = sorted(exact, key=lambda j: (exact[j], j))[:k]
        return [(int(positions[j]), exact[j]) for j in best]
