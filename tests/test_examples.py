"""Every script in ``examples/`` runs to completion in-process."""

import contextlib
import hashlib
import io
import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

#: sha256 of the stdout of ``python examples/continental_hubs.py``, recorded
#: at the last commit that had a separate hub runtime class (running the
#: script there with ``PYTHONPATH=src``): moving hubs into
#: ``GeoStreamRuntime`` changed no byte of it.
CONTINENTAL_HUBS_STDOUT = (
    "77eb22a899a74f0a2860a72746a30b4d1583dde11e58fb124eb1f4ab9b886761"
)


def test_every_example_is_collected():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    stdout = out.getvalue()
    assert stdout.strip()
    if path.stem == "continental_hubs":
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        assert digest == CONTINENTAL_HUBS_STDOUT
