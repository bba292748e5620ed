"""Runtime configuration shared by the kernel and the combinatorics lab."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Config:
    k_max: int = 4        # bound on the directions of a canonicalized stuck comp
    dim: int = 3          # cubelab truncation dimension D
    budget: int = 500_000  # node cap for combinatorial searches
    json_output: bool = False


CONFIG = Config()
