"""The repository's benchmark: long-running workloads measured from outside.

Run ``python -m perfbench`` from the repository root; ``perfbench/README.md``
says what is measured and why. Only :mod:`perfbench._sut` imports the system.
"""
