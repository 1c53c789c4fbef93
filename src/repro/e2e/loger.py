"""LOGER-lite [3]: epsilon-beam search for robust plan generation.

LOGER's candidate generation deliberately keeps *randomized* entries in
each beam step (the epsilon-beam), so the learned model keeps seeing --
and learning from -- plans outside its current preference, which [3]
credits for robustness.  The value model here is the shared tree-conv
network (standing in for LOGER's graph transformer over tables and
predicates).
"""

from __future__ import annotations

from repro.e2e.neo import _ValueSearchOptimizer
from repro.optimizer.planner import Optimizer

__all__ = ["LogerOptimizer"]


class LogerOptimizer(_ValueSearchOptimizer):
    """Value-guided epsilon-beam search optimizer (LOGER-lite)."""

    name = "loger"

    def __init__(self, optimizer: Optimizer, *, seed: int = 0) -> None:
        """A beam of 4; each level keeps a random entry with probability 0.25."""
        super().__init__(optimizer, seed=seed, beam_width=4, epsilon=0.25)
