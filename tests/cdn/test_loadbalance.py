from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.loadbalance import SelectionPolicy, select_replicas, weighted_sample
from repro.cdn.replica import ReplicaServer
from repro.netsim import HostKind


@pytest.fixture()
def ranked(topology, host_rng):
    metro = topology.world.metro("london")
    ranked = []
    for i in range(10):
        host = topology.create_host(f"r{i}", HostKind.REPLICA, metro, host_rng)
        ranked.append((ReplicaServer(host, f"172.1.0.{i}"), 10.0 + 2.0 * i))
    return ranked


def test_empty_ranking_gives_empty_answer():
    rng = np.random.default_rng(0)
    assert select_replicas([], rng) == []


def test_answer_size_respected(ranked):
    rng = np.random.default_rng(0)
    answer = select_replicas(ranked, rng, answer_size=3)
    assert len(answer) == 3
    assert len({r.address for r in answer}) == 3


def test_answer_smaller_when_few_candidates(ranked):
    rng = np.random.default_rng(0)
    answer = select_replicas(ranked[:1], rng, answer_size=2)
    assert len(answer) == 1


def test_best_only_policy_is_deterministic(ranked):
    rng = np.random.default_rng(0)
    answer = select_replicas(
        ranked, rng, answer_size=2, policy=SelectionPolicy.BEST_ONLY
    )
    assert [r.address for r in answer] == ["172.1.0.0", "172.1.0.1"]


def test_softmax_prefers_lower_latency(ranked):
    rng = np.random.default_rng(0)
    counts = Counter()
    for _ in range(500):
        for replica in select_replicas(ranked, rng, answer_size=1, spread=6):
            counts[replica.address] += 1
    assert counts["172.1.0.0"] > counts.get("172.1.0.5", 0)


def test_softmax_still_rotates(ranked):
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(200):
        for replica in select_replicas(ranked, rng, answer_size=2, spread=4):
            seen.add(replica.address)
    assert len(seen) >= 3


def test_spread_limits_candidates(ranked):
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(300):
        for replica in select_replicas(ranked, rng, answer_size=1, spread=2):
            seen.add(replica.address)
    assert seen <= {"172.1.0.0", "172.1.0.1"}


def test_uniform_policy_flattens(ranked):
    rng = np.random.default_rng(0)
    counts = Counter()
    for _ in range(600):
        for replica in select_replicas(
            ranked, rng, answer_size=1, spread=3, policy=SelectionPolicy.UNIFORM
        ):
            counts[replica.address] += 1
    values = [counts[f"172.1.0.{i}"] for i in range(3)]
    assert max(values) < 2 * min(values)


def test_parameter_validation(ranked):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        select_replicas(ranked, rng, answer_size=0)
    with pytest.raises(ValueError):
        select_replicas(ranked, rng, spread=0)
    with pytest.raises(ValueError):
        select_replicas(ranked, rng, temperature_ms=0.0)


# -- the draw equals Generator.choice --------------------------------------------


def _choice_reference(ranked, rng, answer_size, spread, temperature_ms, policy):
    """``select_replicas`` as first written, drawing with ``rng.choice``."""
    window = list(ranked[: max(spread, answer_size)])
    take = min(answer_size, len(window))
    if policy is SelectionPolicy.BEST_ONLY:
        return [replica for replica, _ in window[:take]]
    if policy is SelectionPolicy.UNIFORM:
        weights = np.ones(len(window))
    else:
        best_rtt = window[0][1]
        gaps = np.array([rtt - best_rtt for _, rtt in window])
        weights = np.exp(-gaps / temperature_ms)
    weights = weights / weights.sum()
    chosen = rng.choice(len(window), size=take, replace=False, p=weights)
    return [window[int(i)][0] for i in chosen]


@settings(max_examples=400, deadline=None)
@given(
    policy=st.sampled_from(list(SelectionPolicy)),
    spread=st.integers(1, 12),
    answer_size=st.integers(1, 6),
    temperature_ms=st.floats(0.05, 50.0),
    gaps=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=14),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_equals_generator_choice(policy, spread, answer_size, temperature_ms, gaps, seed):
    ranked = [(f"replica-{i}", 10.0 + g) for i, g in enumerate(sorted(gaps))]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = _choice_reference(ranked, theirs, answer_size, spread, temperature_ms, policy)
    except ValueError:
        # Weights underflowed to zero for too many candidates: the
        # reference refuses, and so must the replacement.
        with pytest.raises(ValueError):
            select_replicas(ranked, ours, answer_size, spread, temperature_ms, policy)
        return
    got = select_replicas(ranked, ours, answer_size, spread, temperature_ms, policy)
    assert got == expected
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_draw_redraws_like_generator_choice():
    # One dominant weight: the first pass draws it repeatedly, so later
    # answers come from redraws.
    p = [0.97, 0.01, 0.01, 0.01]
    for seed in range(200):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [int(i) for i in theirs.choice(4, size=3, replace=False, p=np.array(p))]
        assert weighted_sample(ours, list(p), 3) == expected
        assert ours.bit_generator.state == theirs.bit_generator.state
