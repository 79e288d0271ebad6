import numpy as np
import pytest

from repro.netsim import ASRegistry, AutonomousSystem, Region, default_world


@pytest.fixture(scope="module")
def registry():
    world = default_world()
    rng = np.random.default_rng(42)
    return ASRegistry.generate(world, rng, tier1_count=6, tier2_per_region=4, stubs_per_region=30)


def test_tier_validation():
    with pytest.raises(ValueError):
        AutonomousSystem(1, "x", tier=4, region=None)


def test_tier1_must_be_global():
    with pytest.raises(ValueError):
        AutonomousSystem(1, "x", tier=1, region=Region.EUROPE)


def test_tier2_needs_region():
    with pytest.raises(ValueError):
        AutonomousSystem(1, "x", tier=2, region=None)


def test_duplicate_asn_rejected():
    registry = ASRegistry()
    registry.add(AutonomousSystem(100, "a", tier=1, region=None))
    with pytest.raises(ValueError):
        registry.add(AutonomousSystem(100, "b", tier=1, region=None))


def test_link_requires_registered_ases():
    registry = ASRegistry()
    registry.add(AutonomousSystem(100, "a", tier=1, region=None))
    with pytest.raises(KeyError):
        registry.link(100, 200)


def test_self_link_rejected():
    registry = ASRegistry()
    registry.add(AutonomousSystem(100, "a", tier=1, region=None))
    with pytest.raises(ValueError):
        registry.link(100, 100)


def test_generated_graph_is_connected(registry):
    asns = registry.all_asns()
    # Every AS can reach every other (spot-check a sample).
    for other in asns[:: max(1, len(asns) // 25)]:
        registry.hops(asns[0], other)


def test_hops_zero_for_same_as(registry):
    asn = registry.all_asns()[0]
    assert registry.hops(asn, asn) == 0


def test_hops_symmetric(registry):
    asns = registry.all_asns()
    assert registry.hops(asns[0], asns[-1]) == registry.hops(asns[-1], asns[0])


def test_stub_regions_partition(registry):
    for region in Region:
        for stub in registry.stubs_in_region(region):
            assert stub.tier == 3
            assert stub.region == region


def test_tier2_lookup(registry):
    providers = registry.tier2_in_region(Region.EUROPE)
    assert providers
    assert all(p.tier == 2 for p in providers)


def test_stubs_one_hop_from_a_provider(registry):
    stub = registry.stubs_in_region(Region.EUROPE)[0]
    providers = registry.tier2_in_region(Region.EUROPE)
    assert any(registry.hops(stub.asn, p.asn) == 1 for p in providers)


def test_metro_stub_slice_is_stable(registry):
    a = registry.stubs_for_metro(Region.EUROPE, "london")
    b = registry.stubs_for_metro(Region.EUROPE, "london")
    assert [s.asn for s in a] == [s.asn for s in b]


def test_metro_stub_slices_differ_between_metros(registry):
    london = {s.asn for s in registry.stubs_for_metro(Region.EUROPE, "london")}
    warsaw = {s.asn for s in registry.stubs_for_metro(Region.EUROPE, "warsaw")}
    assert london != warsaw


def test_sample_stub_respects_metro_slice(registry):
    rng = np.random.default_rng(1)
    allowed = {s.asn for s in registry.stubs_for_metro(Region.ASIA, "tokyo")}
    for _ in range(30):
        stub = registry.sample_stub(Region.ASIA, rng, metro_name="tokyo")
        assert stub.asn in allowed


def test_sample_stub_without_metro_uses_whole_region(registry):
    rng = np.random.default_rng(1)
    seen = {registry.sample_stub(Region.ASIA, rng).asn for _ in range(200)}
    assert len(seen) > 8  # more than one metro slice's worth


def test_hop_rows_match_shortest_path_length(registry):
    import networkx as nx

    asns = registry.all_asns()
    for source in asns[:: max(1, len(asns) // 12)]:
        for target in asns:
            expected = nx.shortest_path_length(registry._graph, source, target)
            assert registry.hops_from(source, target) == expected
            assert registry.hops(target, source) == expected


def _chain_registry():
    registry = ASRegistry()
    for asn in (100, 101, 102, 103):
        registry.add(AutonomousSystem(asn, f"as{asn}", tier=1, region=None))
    registry.add(AutonomousSystem(104, "island", tier=1, region=None))
    for a, b in ((100, 101), (101, 102), (102, 103)):
        registry.link(a, b)
    return registry


def test_link_after_query_invalidates_hop_rows():
    registry = _chain_registry()
    assert registry.hops_from(100, 103) == 3
    assert registry.hops(100, 103) == 3
    registry.link(100, 103)
    assert registry.hops_from(100, 103) == 1
    assert registry.hops_from(103, 101) == 2
    assert registry.hops(100, 103) == 1


def test_hop_rows_unreachable_and_pickling():
    import pickle

    import networkx as nx

    registry = _chain_registry()
    with pytest.raises(nx.NetworkXNoPath):
        registry.hops_from(100, 104)
    with pytest.raises(nx.NetworkXNoPath):
        registry.hops(100, 104)
    restored = pickle.loads(pickle.dumps(registry))
    assert restored._hop_rows == {}  # derived state is rebuilt, not stored
    assert restored.hops_from(100, 103) == 3
