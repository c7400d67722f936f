"""Config dataclasses, entry-point surfaces, and the ScenarioReport surface."""

from __future__ import annotations

import json
import warnings
from hashlib import sha256

import pytest

from repro.baselines.blob_relay import BlobRelay
from repro.baselines.direct import EndPoint2EndPoint
from repro.baselines.gridftp import GridFtpLike
from repro.baselines.parallel_static import StaticParallel
from repro.baselines.shortest_path import (
    StaticShortestPath,
)
from repro.config import (
    BlobRelayConfig,
    ChaosConfig,
    DirectConfig,
    GridFtpConfig,
    OverloadConfig,
    ParallelStaticConfig,
    ServeConfig,
    ShortestPathConfig,
    SoakConfig,
)
from repro.report import ScenarioReport, canonical_json
from repro.scenarios import run_chaos, run_overload

FAST_OVERLOAD = dict(duration=60.0, crash_at=40.0, burst_window=(20.0, 30.0))
FAST_CHAOS = dict(duration=60.0)


# ----------------------------------------------------------------------
# Dict round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cls",
    [
        ChaosConfig,
        OverloadConfig,
        DirectConfig,
        ParallelStaticConfig,
        ShortestPathConfig,
        BlobRelayConfig,
        GridFtpConfig,
    ],
)
def test_config_json_roundtrip(cls):
    cfg = cls()
    wire = json.loads(json.dumps(cfg.to_dict()))  # tuples become lists
    assert cls.from_dict(wire) == cfg


@pytest.mark.parametrize(
    ("cls", "digest"),
    [
        (ChaosConfig, "10751f215ebe52fb"),
        (OverloadConfig, "0af6513391b7b311"),
        (SoakConfig, "66429903c93e607e"),
        (ServeConfig, "e3fb350e73c74bdd"),
    ],
)
def test_scenario_config_defaults_keep_their_dict_form(cls, digest):
    # Recorded before the seed/SLO block moved into ``ScenarioConfig``: the
    # dict form (key set and values) is the sweep cache key.
    wire = canonical_json(cls().to_dict())
    assert sha256(wire.encode()).hexdigest().startswith(digest)


def test_tuple_fields_restored_from_json_lists():
    cfg = OverloadConfig.from_dict(
        {"burst_window": [10.0, 20.0], "site_regions": ["SEA", "SEA2"]}
    )
    assert cfg.burst_window == (10.0, 20.0)
    assert cfg.site_regions == ("SEA", "SEA2")


def test_unknown_keys_rejected():
    with pytest.raises(TypeError, match="unknown fields"):
        ChaosConfig.from_dict({"typo_field": 1})


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        ChaosConfig(duration=-1.0)
    with pytest.raises(ValueError):
        OverloadConfig(burst_factor=0.5)
    with pytest.raises(ValueError):
        DirectConfig(streams=0)


# ----------------------------------------------------------------------
# Scenario entry points: config | dict | None, nothing else
# ----------------------------------------------------------------------
def test_scenario_entry_points_take_a_config_and_nothing_else():
    with pytest.raises(TypeError):
        run_chaos(seed=7)  # the pre-dataclass keyword surface is gone
    with pytest.raises(TypeError, match="expected ChaosConfig"):
        run_chaos(11)  # ... and so is the positional seed
    with pytest.raises(TypeError, match="expected OverloadConfig"):
        run_overload("shed")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        report = run_chaos({"seed": 7, "inject": False, **FAST_CHAOS})
    assert report.config == ChaosConfig(seed=7, inject=False, **FAST_CHAOS).to_dict()


# ----------------------------------------------------------------------
# Baseline constructors: config | dict | None, nothing else
# ----------------------------------------------------------------------
BASELINE_FIELDS = [
    (EndPoint2EndPoint, "streams", 3),
    (StaticParallel, "n_nodes", 2),
    (StaticShortestPath, "max_hops", 2),
    (BlobRelay, "parallel_objects", 3),
    (GridFtpLike, "endpoints", 3),
]


@pytest.mark.parametrize(
    ("cls", "field", "value"),
    BASELINE_FIELDS,
    ids=[cls.__name__ for cls, _, _ in BASELINE_FIELDS],
)
def test_baseline_takes_a_config_and_nothing_else(cls, field, value):
    with pytest.raises(TypeError):
        cls(**{field: value})  # the keyword surface is gone
    assert getattr(cls({field: value}), field) == value


def test_baseline_config_path_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        baseline = EndPoint2EndPoint(DirectConfig(streams=2))
    assert baseline.streams == 2
    assert baseline.config == DirectConfig(streams=2)


# ----------------------------------------------------------------------
# ScenarioReport
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def overload_report():
    return run_overload(OverloadConfig(policy="block", seed=5, **FAST_OVERLOAD))


def test_scenario_report_shape(overload_report):
    r = overload_report
    assert isinstance(r, ScenarioReport)
    assert r.scenario == "overload"
    assert r.seed == 5
    assert r.config["policy"] == "block"
    assert r.virtual_seconds > 0
    assert r.wall_seconds > 0


def test_scenario_report_delegates_to_details(overload_report):
    # Legacy attribute access must keep working on the wrapped result.
    assert overload_report.policy == "block"
    assert overload_report.ingested > 0
    with pytest.raises(AttributeError, match="no attribute"):
        _ = overload_report.definitely_not_a_field


def test_canonical_dict_excludes_host_dependent_fields(overload_report):
    canon = overload_report.canonical_dict()
    assert "wall_seconds" not in canon
    assert "metrics" not in canon
    assert canon["scenario"] == "overload"
    assert canon["seed"] == 5
    # Must be pure JSON (no tuples, NaN, or dataclasses left).
    parsed = json.loads(overload_report.canonical_json())
    assert parsed == json.loads(canonical_json(canon))


def test_describe_is_human_readable(overload_report):
    text = overload_report.describe()
    assert "overload" in text
    assert "seed" in text
