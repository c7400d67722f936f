"""Unit + property tests for named RNG streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.random import RngRegistry


def test_same_name_returns_same_generator():
    r = RngRegistry(seed=1)
    assert r.get("a") is r.get("a")


def test_streams_are_independent_of_creation_order():
    r1 = RngRegistry(seed=5)
    a_first = r1.get("a").random(4).tolist()
    r2 = RngRegistry(seed=5)
    r2.get("zzz").random(100)  # interleave another consumer
    a_second = r2.get("a").random(4).tolist()
    assert a_first == a_second


def test_different_names_differ():
    r = RngRegistry(seed=0)
    assert r.get("x").random(8).tolist() != r.get("y").random(8).tolist()


def test_different_seeds_differ():
    a = RngRegistry(seed=1).get("s").random(8).tolist()
    b = RngRegistry(seed=2).get("s").random(8).tolist()
    assert a != b


def test_contains():
    r = RngRegistry(seed=0)
    assert "foo" not in r
    r.get("foo")
    assert "foo" in r


def test_seed_type_checked():
    with pytest.raises(TypeError):
        RngRegistry(seed="42")  # type: ignore[arg-type]


def test_spawn_is_deterministic_and_distinct():
    parent = RngRegistry(seed=3)
    c1 = parent.spawn("child").get("s").random(4).tolist()
    c2 = RngRegistry(seed=3).spawn("child").get("s").random(4).tolist()
    assert c1 == c2
    assert c1 != parent.get("s").random(4).tolist()


@given(st.text(min_size=1, max_size=40), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_property_reproducible_for_any_name(name, seed):
    a = RngRegistry(seed=seed).get(name).random(3).tolist()
    b = RngRegistry(seed=seed).get(name).random(3).tolist()
    assert a == b


@given(
    st.lists(st.text(min_size=1, max_size=20), min_size=2, max_size=6, unique=True)
)
@settings(max_examples=50, deadline=None)
def test_property_distinct_names_distinct_streams(names):
    r = RngRegistry(seed=9)
    draws = [tuple(r.get(n).random(4).tolist()) for n in names]
    assert len(set(draws)) == len(draws)
