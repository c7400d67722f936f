"""Deterministic shard-seed derivation, including across process boundaries."""

from __future__ import annotations

import json
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.seeds import SEED_BITS, derive_seed, shard_key

KEYS = st.one_of(
    st.text(max_size=40),
    st.integers(),
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=4),
)


@given(st.integers(min_value=0, max_value=2**63 - 1), KEYS)
@settings(max_examples=200, deadline=None)
def test_derive_seed_is_pure_and_bounded(root, key):
    a = derive_seed(root, key)
    b = derive_seed(root, key)
    assert a == b
    assert 0 <= a < 2**SEED_BITS


@given(st.integers(min_value=0, max_value=2**32), st.text(max_size=30))
@settings(max_examples=100, deadline=None)
def test_distinct_roots_give_distinct_streams(root, key):
    assert derive_seed(root, key) != derive_seed(root + 1, key)


def test_distinct_shard_names_give_distinct_seeds():
    root = 2013
    seeds = [derive_seed(root, f"shard-{i}") for i in range(512)]
    assert len(set(seeds)) == len(seeds)


def test_shard_key_ignores_dict_order():
    assert shard_key({"a": 1, "b": 2}) == shard_key({"b": 2, "a": 1})
    assert derive_seed(7, {"a": 1, "b": 2}) == derive_seed(7, {"b": 2, "a": 1})


def test_known_vector_pinned():
    # A golden value: if this moves, every cached sweep result and every
    # recorded experiment seed silently changes meaning.
    assert derive_seed(2013, "overload-block") == 7789164181496474646
    assert derive_seed(2013, "chaos-inject") == 3086190878288531820
    assert derive_seed(2013, "overload-shed") == 6663205192737219134
    assert derive_seed(2013, "soak-gen-000") == 7869196251137331181


def test_seeds_stable_across_process_boundary():
    """The same derivation in a fresh interpreter yields the same seeds.

    This is what makes ``--jobs N`` reproducible: workers re-derive
    nothing, but nothing would save us if ``derive_seed`` depended on
    interpreter state (e.g. salted ``hash()``).
    """
    cases = [
        (0, ["shard-0"]),
        (2013, ["overload-block"]),
        (2013, [{"policy": "shed", "duration": 120.0}]),
        (2**62, ["x" * 64, 17]),
    ]
    expected = [derive_seed(root, *parts) for root, parts in cases]
    prog = (
        "import json, sys\n"
        "from repro.runner.seeds import derive_seed\n"
        "cases = json.load(sys.stdin)\n"
        "print(json.dumps([derive_seed(r, *p) for r, p in cases]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", prog],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == expected
