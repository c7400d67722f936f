"""Unit tests for the region catalog and latency model."""

import pytest

from repro.cloud.regions import (
    DEFAULT_REGIONS,
    RegionCatalog,
    default_catalog,
    great_circle_km,
    pair_bias,
)


@pytest.fixture
def catalog():
    return default_catalog()


def test_default_has_six_regions(catalog):
    assert len(catalog) == 6
    assert set(catalog.codes()) == {"NEU", "WEU", "NUS", "SUS", "EUS", "WUS"}


def test_get_unknown_region(catalog):
    with pytest.raises(KeyError, match="unknown region"):
        catalog.get("MARS")


def test_duplicate_codes_rejected():
    r = DEFAULT_REGIONS[0]
    with pytest.raises(ValueError, match="duplicate"):
        RegionCatalog((r, r))


def test_rtt_symmetry(catalog):
    for a in catalog:
        for b in catalog:
            assert catalog.rtt(a, b) == pytest.approx(catalog.rtt(b, a))


def test_rtt_ordering_eu_us(catalog):
    """EU↔EU < US coasts < transatlantic — the ordering path selection uses."""
    eu_eu = catalog.rtt("NEU", "WEU")
    us_us = catalog.rtt("EUS", "WUS")
    eu_us = catalog.rtt("NEU", "WUS")
    assert eu_eu < us_us < eu_us


def test_rtt_plausible_magnitudes(catalog):
    # Transatlantic RTT should land in the tens of ms, not seconds.
    assert 0.05 < catalog.rtt("NEU", "NUS") < 0.2
    assert catalog.rtt("NEU", "NEU") == pytest.approx(0.001)


def test_great_circle_known_distance():
    dublin = next(r for r in DEFAULT_REGIONS if r.code == "NEU")
    amsterdam = next(r for r in DEFAULT_REGIONS if r.code == "WEU")
    assert 600 < great_circle_km(dublin, amsterdam) < 900


def test_pairs_ordered_count(catalog):
    assert len(list(catalog.pairs(ordered=True))) == 30
    assert len(list(catalog.pairs(ordered=False))) == 15


def test_pair_bias_bounded_and_stable():
    b = pair_bias("NEU", "NUS", spread=0.2)
    assert 0.8 <= b <= 1.2
    assert b == pair_bias("NEU", "NUS", spread=0.2)
    # Direction matters (asymmetric links).
    assert pair_bias("NEU", "NUS") != pair_bias("NUS", "NEU")


def test_region_str():
    assert str(DEFAULT_REGIONS[0]) == "NEU"
