"""Exact solver for the daily weight problem.

Maximize sum_i w_i s_i - delta * sum_i |w_prev_i - w_i| subject to
0 <= w_i <= cap and budget_lo <= sum w <= budget_hi.

The objective is separable and concave piecewise-linear in each w_i: below
the (clipped) prior weight the marginal value of holding is s_i + delta,
above it s_i - delta. A global greedy over all linear pieces sorted by slope
is therefore exact: fill to budget_lo unconditionally (feasibility), then
keep consuming pieces only while their slope is positive, stopping at
budget_hi. Pieces consumed in full snap the weight to the piece's upper
bound, so a prior that should be held is returned bit-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


class InfeasibleProblemError(ValueError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    delta: float = 1.0
    cap: float = 0.10
    budget_lo: float = 0.99
    budget_hi: float = 0.999
    trade_epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if not (0.0 < self.cap <= 1.0):
            raise ValueError(f"cap must be in (0, 1], got {self.cap}")
        if not (0.0 <= self.budget_lo <= self.budget_hi <= 1.0):
            raise ValueError(
                f"need 0 <= budget_lo <= budget_hi <= 1, got "
                f"[{self.budget_lo}, {self.budget_hi}]")
        if self.trade_epsilon < 0:
            raise ValueError(f"trade_epsilon must be nonnegative, got {self.trade_epsilon}")


def load_optimizer_config(path: str | Path) -> OptimizerConfig:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return optimizer_config_from_dict(obj)


def optimizer_config_from_dict(obj: dict) -> OptimizerConfig:
    defaults = OptimizerConfig()
    return OptimizerConfig(
        delta=float(obj.get("delta", defaults.delta)),
        cap=float(obj.get("cap", defaults.cap)),
        budget_lo=float(obj.get("budget_lo", defaults.budget_lo)),
        budget_hi=float(obj.get("budget_hi", defaults.budget_hi)),
        trade_epsilon=float(obj.get("trade_epsilon", defaults.trade_epsilon)),
    )


def _check_keys(*vectors: dict[str, float]) -> list[str]:
    keys = sorted(vectors[0])
    for v in vectors[1:]:
        if sorted(v) != keys:
            raise ValueError(
                f"mismatched company keys: {sorted(vectors[0])} vs {sorted(v)}")
    return keys


def objective_value(
    w: dict[str, float], s: dict[str, float], w_prev: dict[str, float], delta: float
) -> float:
    """Evaluate sum w_i s_i - delta * sum |w_prev_i - w_i| over sorted keys."""
    keys = _check_keys(w, s, w_prev)
    gain = sum(w[k] * s[k] for k in keys)
    turnover = sum(abs(w_prev[k] - w[k]) for k in keys)
    return gain - delta * turnover


def optimize_weights(
    s: dict[str, float], w_prev: dict[str, float], cfg: OptimizerConfig
) -> dict[str, float]:
    """Return the exact maximizer of the penalized objective.

    The prior may violate the cap or the budget band (drifted weights are
    legal inputs); entries must be nonnegative and sentiments finite. Among
    tied maximizers, ties break by slope descending, then company id
    ascending, then lower bound ascending.
    """
    keys = _check_keys(s, w_prev)
    n = len(keys)
    if n * cfg.cap < cfg.budget_lo - 1e-12:
        required = math.ceil(cfg.budget_lo / cfg.cap)
        raise InfeasibleProblemError(
            f"{n} names at cap {cfg.cap} cannot reach budget_lo {cfg.budget_lo}; "
            f"need at least {required} names")
    for k in keys:
        if not math.isfinite(s[k]):
            raise ValueError(f"sentiment for {k!r} is not finite: {s[k]!r}")
        if w_prev[k] < 0:
            raise ValueError(f"prior weight for {k!r} is negative: {w_prev[k]!r}")

    # (slope, company, lower, upper); clipping the prior to [0, cap] only
    # shapes the pieces, the true prior still pays the penalty in reporting
    segments: list[tuple[float, str, float, float]] = []
    for k in keys:
        anchor = min(w_prev[k], cfg.cap)
        if anchor > 0.0:
            segments.append((s[k] + cfg.delta, k, 0.0, anchor))
        if anchor < cfg.cap:
            segments.append((s[k] - cfg.delta, k, anchor, cfg.cap))
    segments.sort(key=lambda seg: (-seg[0], seg[1], seg[2]))

    w = {k: 0.0 for k in keys}
    total = 0.0
    for slope, company, lower, upper in segments:
        length = upper - lower
        budget = cfg.budget_hi if slope > 0.0 else cfg.budget_lo
        room = budget - total
        if room <= 0.0:
            continue
        if length <= room:
            # piece consumed whole: snap to its upper bound so held priors
            # and cap fills come back exact
            w[company] = upper
            total += length
        else:
            w[company] = lower + room
            total = budget
    return w


def extract_trades(
    w_new: dict[str, float], w_prior: dict[str, float], trade_epsilon: float = 1e-6
) -> list[tuple[str, float]]:
    """List (company, delta) for every weight change larger than the epsilon."""
    keys = _check_keys(w_new, w_prior)
    out = []
    for k in keys:
        delta = w_new[k] - w_prior[k]
        if abs(delta) > trade_epsilon:
            out.append((k, delta))
    return out


def load_weights_csv(path: str | Path, value_column: str) -> dict[str, float]:
    """Read a two-column CSV of company,value rows (header required)."""
    out: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        if "company" not in idx or value_column not in idx:
            raise ValueError(f"expected columns company,{value_column}; got {header}")
        for line in fh:
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            out[parts[idx["company"]]] = float(parts[idx[value_column]])
    return out


def write_weights_csv(path: str | Path, weights: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("company,weight\n")
        for company in sorted(weights):
            fh.write(f"{company},{weights[company]!r}\n")
