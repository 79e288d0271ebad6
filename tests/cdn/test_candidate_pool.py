"""Pruned candidate pools against the brute-force definition.

``MappingSystem.candidate_pool`` computes exact base RTTs only for
replicas whose lower bound can still reach the top ``k``.  These tests
hold it to the definition it replaces — every eligible replica sorted by
base RTT, first ``k`` kept, ties in deployment order — and hold every
cached latency value to the original scalar formula.  The references
live here only.
"""

import pickle

import networkx as nx
import numpy as np
import pytest

from repro.cdn import MappingSystem
from repro.cdn.mapping import MappingParams
from repro.cdn.replica import ReplicaDeployment, ReplicaServer
from repro.experiments.harness import scenario_params_for
from repro.netsim import HostKind, Network, SimClock
from repro.netsim.geo import GeoPoint, propagation_rtt_ms
from repro.netsim.latency import HostColumns
from repro.netsim.rng import stable_unit_float
from repro.workloads.scenario import Scenario, ScenarioParams


def reference_rtt_ms(model, a, b, hops_memo=None):
    """``LatencyModel.base_rtt_ms`` as first written: no caches, no rows.

    ``hops_memo`` (a dict) only saves repeating the same AS-pair search.
    """
    if a.host_id == b.host_id:
        return 0.0
    params = model.params
    lo, hi = sorted((a.host_id, b.host_id))
    u = stable_unit_float(model._seed, "stretch", str(lo), str(hi))
    stretch = params.stretch_min + u * (params.stretch_max - params.stretch_min)
    prop = propagation_rtt_ms(a.location, b.location, stretch=stretch)
    memo = {} if hops_memo is None else hops_memo
    pair = (a.asn, b.asn)
    if pair not in memo:
        graph = model.registry._graph
        memo[pair] = 0 if a.asn == b.asn else nx.shortest_path_length(graph, a.asn, b.asn)
    hops = memo[pair]
    rtt = a.access_ms + b.access_ms + prop + params.per_hop_ms * hops
    return max(rtt, params.floor_ms)


def reference_pool(mapping, ldns):
    """The pool by definition: every eligible replica sorted, ``k`` kept."""
    registry = mapping.network.topology.registry
    providers = set(registry.transit_providers_of(ldns.asn))
    eligible = [
        r for r in mapping.deployment if not r.isp_restricted or r.host.asn in providers
    ]
    if ldns.region.value in mapping.rehomed_regions:
        rehomed = [r for r in eligible if r.host.region is not ldns.region]
        if rehomed:
            eligible = rehomed
    model = mapping.network.latency
    memo = {}
    by_base = sorted(eligible, key=lambda r: reference_rtt_ms(model, ldns, r.host, memo))
    return by_base[: mapping.params.candidate_pool_size]


def resolver_hosts(scenario):
    return [resolver.host for _, resolver in sorted(scenario.resolvers.items())]


def assert_cache_matches_formula(network):
    model = network.latency
    topology = network.topology
    assert model._cache
    for (lo, hi), value in model._cache.items():
        a, b = topology.host(lo), topology.host(hi)
        assert value == reference_rtt_ms(model, a, b) == reference_rtt_ms(model, b, a)


@pytest.fixture(scope="module", params=[11, 12, 13])
def default_world(request):
    params = scenario_params_for("default", request.param)
    return Scenario(params)


def test_pools_equal_brute_force_on_default_worlds(default_world):
    mapping = default_world.cdn.mapping
    hosts = resolver_hosts(default_world)
    assert len(hosts) >= 400
    restricted_seen = False
    for ldns in hosts:
        pool = mapping.candidate_pool(ldns)
        assert pool == reference_pool(mapping, ldns), ldns.name
        restricted_seen |= any(r.isp_restricted for r in pool)
    # ISP-restricted replicas do reach pools, so eligibility is exercised.
    assert restricted_seen
    assert_cache_matches_formula(default_world.network)


def test_pools_equal_brute_force_after_rehome(default_world):
    mapping = default_world.cdn.mapping
    hosts = resolver_hosts(default_world)
    region = hosts[0].region
    mapping.rehome_region(region.value)
    try:
        for ldns in hosts[:150]:
            pool = mapping.candidate_pool(ldns)
            assert pool == reference_pool(mapping, ldns), ldns.name
            if ldns.region is region:
                assert all(r.host.region is not region for r in pool)
    finally:
        mapping._rehomed_regions.discard(region.value)
        mapping.invalidate()


def test_pool_follows_deployment_changes(topology, host_rng):
    from repro.cdn.replica import deploy_replicas

    network = Network(topology, SimClock(), seed=5)
    deployment = deploy_replicas(topology, host_rng)
    mapping = MappingSystem(network, deployment, seed=5)
    ldns = topology.create_host(
        "ldns-paris", HostKind.DNS_SERVER, topology.world.metro("paris"), host_rng
    )
    first = mapping.candidate_pool(ldns)
    # Move the nearest replica next door to nobody, retire the second.
    far = topology.create_host(
        "far-away", HostKind.REPLICA, topology.world.metro("sydney"), host_rng
    )
    deployment.migrate(first[0].address, far)
    deployment.retire(first[1].address)
    mapping.invalidate()
    assert mapping.candidate_pool(ldns) == reference_pool(mapping, ldns)
    assert first[0].address not in {r.address for r in mapping.candidate_pool(ldns)}


def test_deployment_smaller_than_pool_size(topology, host_rng):
    network = Network(topology, SimClock(), seed=3)
    metros = ["tokyo", "london", "new-york", "paris", "sydney"]
    replicas = [
        ReplicaServer(
            topology.create_host(f"r-{m}", HostKind.REPLICA, topology.world.metro(m), host_rng),
            f"10.9.0.{i}",
        )
        for i, m in enumerate(metros)
    ]
    mapping = MappingSystem(network, ReplicaDeployment(replicas), seed=3)
    assert mapping.params.candidate_pool_size > len(replicas)
    ldns = topology.create_host(
        "ldns-berlin", HostKind.DNS_SERVER, topology.world.metro("berlin"), host_rng
    )
    pool = mapping.candidate_pool(ldns)
    assert len(pool) == len(replicas)
    assert pool == reference_pool(mapping, ldns)


def test_exact_ties_keep_deployment_order(topology, host_rng):
    """Replicas co-located with the resolver, equal access, two ASes.

    Zero distance makes the stretch irrelevant, so RTTs tie exactly
    within each AS; the pool must list tied replicas in deployment
    order, as a stable sort does.
    """
    network = Network(topology, SimClock(), seed=9)
    metro = topology.world.metro("london")
    spot = GeoPoint(metro.location.lat, metro.location.lon)
    ldns = topology.create_host(
        "ldns", HostKind.DNS_SERVER, metro, host_rng, access_ms=1.0, location=spot
    )
    stubs = [s.asn for s in topology.registry.stubs_for_metro(metro.region, metro.name)]
    far_asn = next(s for s in stubs if s != ldns.asn)
    replicas = []
    for i in range(30):
        asn = ldns.asn if i % 3 == 0 else far_asn
        host = topology.create_host(
            f"tie-{i}", HostKind.REPLICA, metro, host_rng, asn=asn, access_ms=0.5, location=spot
        )
        replicas.append(ReplicaServer(host, f"10.8.0.{i}"))
    # Interleave so deployment order is not creation order.
    replicas = replicas[1::2] + replicas[0::2]
    params = MappingParams(candidate_pool_size=12)
    mapping = MappingSystem(network, ReplicaDeployment(replicas), params=params, seed=9)
    pool = mapping.candidate_pool(ldns)
    assert pool == reference_pool(mapping, ldns)
    same_as = [r for r in replicas if r.host.asn == ldns.asn]
    assert pool[: len(same_as)] == same_as
    assert pool[len(same_as):] == [r for r in replicas if r.host.asn != ldns.asn][
        : 12 - len(same_as)
    ]


def test_nearest_ms_matches_sorted_with_index_subset(network, topology, host_rng):
    hosts = topology.create_hosts("h", HostKind.PLANETLAB, 60, host_rng)
    columns = HostColumns(hosts)
    origin = hosts[0]
    index = list(range(0, 60, 2))
    for k in (1, 5, 30, 100):
        got = network.latency.nearest_ms(origin, columns, k, index)
        want = sorted(index, key=lambda i: reference_rtt_ms(network.latency, origin, hosts[i]))
        assert [i for i, _ in got] == want[:k]
        assert [rtt for _, rtt in got] == [
            reference_rtt_ms(network.latency, origin, hosts[i]) for i in want[:k]
        ]
    assert network.latency.nearest_ms(origin, columns, 3, []) == []


def test_lower_bounds_never_exceed_exact(network, topology, host_rng):
    hosts = topology.create_hosts("b", HostKind.REPLICA, 120, host_rng)
    columns = HostColumns(hosts)
    for origin in hosts[:20]:
        bounds = network.latency.lower_bounds_ms(origin, columns, np.arange(len(hosts)))
        exact = [reference_rtt_ms(network.latency, origin, h) for h in hosts]
        assert all(b <= e for b, e in zip(bounds, exact))


def test_select_fallback_equals_sorted_customer_pool(topology, host_rng, monkeypatch):
    from repro.cdn import mapping as cdn_mapping
    from repro.cdn.replica import deploy_replicas

    network = Network(topology, SimClock(), seed=21)
    deployment = deploy_replicas(topology, host_rng)
    mapping = MappingSystem(network, deployment, seed=21)
    client = topology.create_host(
        "client-ny", HostKind.DNS_SERVER, topology.world.metro("new-york"), host_rng
    )
    in_pool = {r.address for r in mapping.candidate_pool(client)}
    customer = [r for r in deployment.edge if r.address not in in_pool]
    seen = []
    real = cdn_mapping.select_replicas
    monkeypatch.setattr(
        cdn_mapping, "select_replicas", lambda ranked, *a, **kw: seen.append(ranked) or real(ranked, *a, **kw)
    )
    mapping.select(client, pool=customer)
    # The expression the fallback used to evaluate.
    by_base = sorted(customer, key=lambda r: network.base_rtt_ms(client, r.host))
    expected = [
        (r, network.base_rtt_ms(client, r.host))
        for r in by_base[: mapping.params.candidate_pool_size]
    ]
    assert seen == [expected]


def test_scenario_with_pruned_pools_pickles_and_continues():
    params = ScenarioParams(seed=31, dns_servers=16, planetlab_nodes=10, build_meridian=False)
    scenario = Scenario(params)
    scenario.run_probe_rounds(2, interval_minutes=10.0)
    assert scenario.registry._hop_rows  # rows were built by the pools
    assert scenario.network.latency._stretch_prefix is not None
    restored = pickle.loads(pickle.dumps(scenario, protocol=pickle.HIGHEST_PROTOCOL))
    assert restored.registry._hop_rows == {}
    assert restored.network.latency._stretch_prefix is None

    def digest(s):
        crp = s.crp
        logs = [(n, crp.tracker(n).observations) for n in sorted(crp.nodes)]
        return crp.probes_issued, s.clock.now, repr(logs)

    for s in (scenario, restored):
        s.cdn.mapping.invalidate()  # rebuild every pool from the restored state
        s.run_probe_rounds(2, interval_minutes=10.0)
    assert digest(restored) == digest(scenario)
    assert restored.network.latency._cache == scenario.network.latency._cache
    assert_cache_matches_formula(restored.network)
