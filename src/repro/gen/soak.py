"""Re-export only: the frozen ``perfbench/_sut.py`` wraps
``repro.gen.soak:SoakRunner.run`` by name. The soak lives in
:mod:`repro.scenarios.soak`; this file goes when the benchmark is re-based
(ROADMAP item 1(d))."""

from repro.scenarios.soak import SoakResult, SoakRunner, run_soak  # noqa: F401
