"""Unit + property tests for multi-datacenter path selection."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paths import (
    MultiPathSelector,
    PathAllocation,
    TransferSchema,
    path_bottleneck,
    widest_path,
)


def mesh(weights: dict[tuple[str, str], float]):
    return dict(weights)


SIMPLE = {
    ("A", "B"): 5.0,
    ("A", "C"): 8.0,
    ("C", "B"): 9.0,
    ("A", "D"): 2.0,
    ("D", "B"): 2.0,
}


# ----------------------------------------------------------------------
# widest_path
# ----------------------------------------------------------------------
def test_widest_prefers_relay_when_wider():
    # Direct A->B has width 5; A->C->B has width 8.
    assert widest_path(SIMPLE, "A", "B") == ["A", "C", "B"]


def test_widest_prefers_direct_when_wider():
    g = dict(SIMPLE)
    g[("A", "B")] = 10.0
    assert widest_path(g, "A", "B") == ["A", "B"]


def test_widest_unreachable_is_none():
    assert widest_path({("A", "B"): 1.0}, "B", "A") is None
    assert widest_path({}, "A", "B") is None


def test_widest_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        widest_path(SIMPLE, "A", "A")


def test_widest_respects_max_hops():
    g = {("A", "X"): 10.0, ("X", "Y"): 10.0, ("Y", "B"): 10.0, ("A", "B"): 1.0}
    assert widest_path(g, "A", "B", max_hops=3) == ["A", "X", "Y", "B"]
    assert widest_path(g, "A", "B", max_hops=1) == ["A", "B"]


def test_widest_skips_nan_and_zero_links():
    g = {("A", "B"): float("nan"), ("A", "C"): 1.0, ("C", "B"): 1.0}
    assert widest_path(g, "A", "B") == ["A", "C", "B"]


def test_path_bottleneck():
    assert path_bottleneck(SIMPLE, ["A", "C", "B"]) == 8.0
    assert path_bottleneck(SIMPLE, ["A", "B"]) == 5.0
    assert path_bottleneck(SIMPLE, ["A", "Z"]) != path_bottleneck(
        SIMPLE, ["A", "B"]
    )  # NaN for unknown link
    with pytest.raises(ValueError):
        path_bottleneck(SIMPLE, ["A"])


def brute_force_widest(graph, src, dst, max_hops):
    nodes = {n for pair in graph for n in pair}
    best, best_width = None, -1.0
    for k in range(0, max_hops):
        for mids in itertools.permutations(nodes - {src, dst}, k):
            path = [src, *mids, dst]
            width = float("inf")
            ok = True
            for a, b in zip(path[:-1], path[1:]):
                w = graph.get((a, b), 0.0)
                if w <= 0 or w != w:
                    ok = False
                    break
                width = min(width, w)
            if ok and width > best_width:
                best, best_width = path, width
    return best, best_width


@given(
    st.dictionaries(
        st.tuples(
            st.sampled_from(["A", "B", "C", "D", "E"]),
            st.sampled_from(["A", "B", "C", "D", "E"]),
        ).filter(lambda p: p[0] != p[1]),
        st.floats(min_value=0.1, max_value=100.0),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=120, deadline=None)
def test_property_widest_matches_brute_force_width(graph):
    """Dijkstra-widest finds a path of maximal width (brute-force check).

    Note: unrestricted hops — the greedy settle is exact without a hop
    limit, which is how the selector calls it for ≤ 6 regions.
    """
    expected_path, expected_width = brute_force_widest(graph, "A", "B", 5)
    got = widest_path(graph, "A", "B", max_hops=None)
    if expected_path is None:
        assert got is None
    else:
        assert got is not None
        assert path_bottleneck(graph, got) == pytest.approx(expected_width)


# ----------------------------------------------------------------------
# PathAllocation / TransferSchema
# ----------------------------------------------------------------------
def test_allocation_vm_accounting():
    direct = PathAllocation(["A", "B"], instances=3, base_throughput=5.0)
    assert direct.vm_cost_per_instance() == 1
    assert direct.vms_used() == 3
    relay = PathAllocation(["A", "C", "B"], instances=2, base_throughput=4.0)
    assert relay.vm_cost_per_instance() == 2
    assert relay.vms_used() == 4


def test_allocation_throughput_diminishing():
    alloc = PathAllocation(["A", "B"], instances=4, base_throughput=10.0)
    assert alloc.estimated_throughput(gain=0.5) == pytest.approx(25.0)


def test_schema_aggregates():
    schema = TransferSchema(
        [
            PathAllocation(["A", "B"], 2, 5.0),
            PathAllocation(["A", "C", "B"], 1, 8.0),
        ]
    )
    assert schema.vms_used() == 4
    assert schema.estimated_throughput(0.5) == pytest.approx(5 * 1.5 + 8)
    assert "A->B×2" in schema.describe()


# ----------------------------------------------------------------------
# MultiPathSelector
# ----------------------------------------------------------------------
def test_selector_single_node_budget_gives_one_direct_instance():
    sel = MultiPathSelector(gain=0.5)
    schema = sel.select(SIMPLE, "A", "B", node_budget=1)
    assert len(schema.allocations) == 1
    # Widest path is the relay (cost 2 > budget) — still granted, as a
    # transfer must happen.
    assert schema.allocations[0].instances == 1


def test_selector_grows_widest_then_opens_next():
    sel = MultiPathSelector(gain=0.5)
    schema = sel.select(SIMPLE, "A", "B", node_budget=12)
    paths = [tuple(a.path) for a in schema.allocations]
    assert ("A", "C", "B") in paths  # widest first
    assert len(paths) >= 2  # opened an alternative
    assert schema.vms_used() <= 12 + 2  # within budget (+1 final growth)


def test_selector_uses_multiple_paths_at_scale():
    sel = MultiPathSelector(gain=0.3)  # strong diminishing returns
    schema = sel.select(SIMPLE, "A", "B", node_budget=20)
    assert len(schema.allocations) >= 2
    assert schema.estimated_throughput(0.3) > 8.0  # beats single path width


def test_selector_unmonitored_falls_back_to_direct():
    sel = MultiPathSelector(gain=0.5)
    schema = sel.select({}, "A", "B", node_budget=5)
    assert schema.allocations[0].path == ["A", "B"]


def test_selector_validation():
    with pytest.raises(ValueError):
        MultiPathSelector(gain=0.0)
    with pytest.raises(ValueError):
        MultiPathSelector(gain=0.5).select(SIMPLE, "A", "B", node_budget=0)


@given(
    st.dictionaries(
        st.tuples(
            st.sampled_from(["A", "B", "C", "D"]),
            st.sampled_from(["A", "B", "C", "D"]),
        ).filter(lambda p: p[0] != p[1]),
        st.floats(min_value=0.5, max_value=50.0),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=100, deadline=None)
def test_property_selector_budget_and_structure(graph, budget, gain):
    """Selector always returns ≥1 allocation; instance counts positive;
    total VM usage stays within budget + one growth step."""
    sel = MultiPathSelector(gain=gain)
    schema = sel.select(graph, "A", "B", node_budget=budget)
    assert len(schema.allocations) >= 1
    assert all(a.instances >= 1 for a in schema.allocations)
    worst_step = max(a.vm_cost_per_instance() for a in schema.allocations)
    assert schema.vms_used() <= budget + worst_step
    # No duplicate paths in one schema.
    paths = [tuple(a.path) for a in schema.allocations]
    assert len(set(paths)) == len(paths)


# ----------------------------------------------------------------------
# Memoised path searches
# ----------------------------------------------------------------------
REGIONS = ["A", "B", "C", "D"]
LINKS = st.tuples(st.sampled_from(REGIONS), st.sampled_from(REGIONS)).filter(
    lambda p: p[0] != p[1]
)
LIVE_VALUES = st.floats(min_value=0.5, max_value=50.0)
DEAD_VALUES = st.sampled_from([0.0, float("nan")])
LINK_VALUES = LIVE_VALUES | DEAD_VALUES
# Mostly live links, so relay paths (and thus max_hops) matter, plus a few
# zero / NaN links the searches must skip.
GRAPHS = st.builds(
    lambda live, dead: {**live, **dead},
    st.dictionaries(LINKS, LIVE_VALUES, max_size=12),
    st.dictionaries(LINKS, DEAD_VALUES, max_size=3),
)


def allocations(schema: TransferSchema) -> list[tuple]:
    return [(a.path, a.instances, a.base_throughput) for a in schema]


class UnmemoisedSelector(MultiPathSelector):
    """The reference: every path search runs, nothing is remembered."""

    def _memo_best_path(self, graph, src, dst, removed):
        return self._best_path(graph, src, dst)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_property_memoised_select_matches_a_fresh_selector(data):
    """One long-lived selector plans exactly what a fresh one would.

    The sequence repeats snapshots (as a copy, so the memo is found by
    equality), changes one link at a time, redraws the whole map, and
    varies the endpoints, the budget, the capacities and ``max_hops``
    under a fixed snapshot — every input the memo key must or must not
    cover. The fresh selector searches without a memo, so a key that
    misses the links removed within one call fails too.
    """
    selector = MultiPathSelector(gain=0.5)
    graph = data.draw(GRAPHS)
    src, dst = data.draw(LINKS)
    for _ in range(data.draw(st.integers(min_value=2, max_value=10))):
        change = data.draw(
            st.sampled_from(["repeat", "repeat", "tweak", "redraw"])
        )
        if change == "tweak":
            graph = dict(graph)
            graph[data.draw(LINKS)] = data.draw(LINK_VALUES)
        elif change == "redraw":
            graph = data.draw(GRAPHS)
        if data.draw(st.integers(min_value=0, max_value=3)) == 0:
            src, dst = data.draw(LINKS)
        budget = data.draw(st.integers(min_value=1, max_value=12))
        capacities = data.draw(
            st.none()
            | st.dictionaries(LINKS, st.floats(min_value=0.5, max_value=200.0),
                              max_size=6)
        )
        selector.max_hops = data.draw(st.sampled_from([1, 2, 3]))
        fresh = UnmemoisedSelector(gain=0.5, max_hops=selector.max_hops)
        got = selector.select(dict(graph), src, dst, budget, capacities)
        want = fresh.select(dict(graph), src, dst, budget, capacities)
        assert allocations(got) == allocations(want)


def test_memo_keeps_only_the_latest_snapshot():
    selector = MultiPathSelector(gain=0.5)
    selector.select(SIMPLE, "A", "B", node_budget=12)
    entries = len(selector._memo)
    assert entries >= 2  # the first path and at least one alternative
    selector.select(dict(SIMPLE), "A", "B", node_budget=3)
    assert len(selector._memo) == entries  # same snapshot: all hits
    changed = dict(SIMPLE)
    changed[("A", "B")] = 6.0
    selector.select(changed, "A", "B", node_budget=12)
    fresh = MultiPathSelector(gain=0.5)
    fresh.select(changed, "A", "B", node_budget=12)
    assert selector._memo == fresh._memo  # the old snapshot was dropped
