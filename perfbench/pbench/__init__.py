"""The repository benchmark: cold sweeps, a warm service loop, traced layers.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
