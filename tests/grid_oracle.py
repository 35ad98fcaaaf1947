"""Brute-force grid oracle for the weight problem, used only by tests.

Enumerates every weight vector on a grid over the feasible box and keeps an
objective maximizer, so it cross-checks the greedy solver on small universes
without sharing its algorithm.
"""

from __future__ import annotations

import numpy as np

from backtest_reference import _check_keys
from sentindex.optimizer import InfeasibleProblemError, OptimizerConfig

MAX_ORACLE_NAMES = 4


def brute_force_oracle(
    s: dict[str, float],
    w_prev: dict[str, float],
    cfg: OptimizerConfig,
    grid_step: float = 0.005,
) -> dict[str, float]:
    """Exhaustive grid search over the feasible box, for tests only.

    Enumerates all weight vectors whose entries are multiples of grid_step up
    to the cap, keeps those inside the budget band, and returns an objective
    maximizer. Refuses more than 4 names; grid_step must divide the cap.
    """
    keys = _check_keys(s, w_prev)
    n = len(keys)
    if n > MAX_ORACLE_NAMES:
        raise ValueError(f"oracle refuses n > {MAX_ORACLE_NAMES} (got {n})")
    units = cfg.cap / grid_step
    if abs(units - round(units)) > 1e-9:
        raise ValueError(f"grid_step {grid_step} does not divide cap {cfg.cap}")
    units = int(round(units))

    axes = [np.arange(units + 1, dtype=np.int64) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1).astype(np.float64) * grid_step
    totals = grid.sum(axis=1)
    feasible = (totals >= cfg.budget_lo - 1e-12) & (totals <= cfg.budget_hi + 1e-12)
    if not feasible.any():
        raise InfeasibleProblemError("no grid point lies inside the budget band")
    grid = grid[feasible]
    s_vec = np.array([s[k] for k in keys])
    prev_vec = np.array([w_prev[k] for k in keys])
    objective = grid @ s_vec - cfg.delta * np.abs(grid - prev_vec).sum(axis=1)
    best = grid[int(np.argmax(objective))]
    return {k: float(best[i]) for i, k in enumerate(keys)}
