"""Ablation studies beyond the paper's figures (``benchmarks/results/``)."""
