"""Independent LP route for the weight problem, used only to cross-check tests.

Splits the turnover term into buy/sell slack variables u, v >= 0 with
w - u + v = prior, minimizes -s.w + delta (sum u + sum v) over the box and
budget band, and solves with scipy's HiGHS backend. Deliberately shares no
code with the package's greedy solver. HiGHS's default feasibility tolerance
(1e-7) would let it return an all-zero portfolio for a budget floor below
that, so the tolerance is tightened to 1e-10.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from sentindex.optimizer import OptimizerConfig


def solve_lp(s: dict[str, float], w_prev: dict[str, float], cfg: OptimizerConfig) -> dict[str, float]:
    keys = sorted(s)
    n = len(keys)
    s_vec = np.array([s[k] for k in keys])
    prev = np.array([w_prev[k] for k in keys])
    c = np.concatenate([-s_vec, cfg.delta * np.ones(n), cfg.delta * np.ones(n)])
    a_eq = np.hstack([np.eye(n), -np.eye(n), np.eye(n)])
    a_ub = np.zeros((2, 3 * n))
    a_ub[0, :n] = -1.0
    a_ub[1, :n] = 1.0
    b_ub = np.array([-cfg.budget_lo, cfg.budget_hi])
    bounds = [(0.0, cfg.cap)] * n + [(0.0, None)] * (2 * n)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=prev, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"LP reference failed: {res.message}")
    return {k: float(res.x[i]) for i, k in enumerate(keys)}
