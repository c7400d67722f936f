"""Unit tests for statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import confidence_interval95, summarize


def test_summarize_basics():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
    assert s.cv == pytest.approx(s.std / 2.5)
    assert "n=4" in str(s)


def test_summarize_single_value():
    s = summarize([7.0])
    assert s.std == 0.0
    assert s.ci95 == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_ci95_formula():
    vals = list(range(100))
    expected = 1.96 * np.std(vals, ddof=1) / 10.0
    assert confidence_interval95(vals) == pytest.approx(expected)
    assert confidence_interval95([1.0]) == 0.0
