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

import math
import operator
from collections.abc import Callable
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from .inputs import config_from_dict, load_json_object, read_csv, record


class InfeasibleProblemError(ValueError):
    pass


@record
class OptimizerConfig(NamedTuple):
    delta: float = 1.0
    cap: float = 0.10
    budget_lo: float = 0.99
    budget_hi: float = 0.999
    trade_epsilon: float = 1e-6

    def _check(self) -> None:
        if not self.delta >= 0:  # also true for nan
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if not (0.0 < self.cap <= 1.0):
            raise ValueError(f"cap must be in (0, 1], got {self.cap}")
        if not (0.0 <= self.budget_lo <= self.budget_hi <= 1.0):
            raise ValueError(
                f"need 0 <= budget_lo <= budget_hi <= 1, got "
                f"[{self.budget_lo}, {self.budget_hi}]")
        if not self.trade_epsilon >= 0:
            raise ValueError(f"trade_epsilon must be nonnegative, got {self.trade_epsilon}")


def load_optimizer_config(path: str | Path) -> OptimizerConfig:
    return config_from_dict(OptimizerConfig, load_json_object(path), path)


def _check_keys(*vectors: dict[str, float]) -> list[str]:
    keys = sorted(vectors[0])
    for v in vectors[1:]:
        if sorted(v) != keys:
            raise ValueError(
                f"mismatched company keys: {sorted(vectors[0])} vs {sorted(v)}")
    return keys


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
    return dict(zip(keys, solve_weights(keys, _values(s, keys), _values(w_prev, keys), cfg)))


def _values(v: dict[str, float], keys: list[str]) -> list[float]:
    """The values of v in the order of keys; a dict already in that order is read as it stands."""
    return list(v.values()) if list(v) == keys else [v[k] for k in keys]


def solve_weights(
    keys: list[str], s: list[float], prior: list[float], cfg: OptimizerConfig
) -> list[float]:
    """optimize_weights over lists: s[i] and prior[i] belong to keys[i], keys sorted."""
    n = len(keys)
    if n * cfg.cap < cfg.budget_lo - 1e-12:
        try:
            required = math.ceil(cfg.budget_lo / cfg.cap)
        except OverflowError:  # a cap so near zero that the quotient passes the largest float
            from fractions import Fraction  # imported here, so that no command pays for it at start-up
            required = math.ceil(Fraction(cfg.budget_lo) / Fraction(cfg.cap))
        raise InfeasibleProblemError(
            f"{n} names at cap {cfg.cap} cannot reach budget_lo {cfg.budget_lo}; "
            f"need at least {required} names")
    # both scans run in C; only a bad entry needs the loop that names the first
    if not all(map(math.isfinite, s)) or any(map(operator.lt, prior, repeat(0))):
        for k, s_k, prior_k in zip(keys, s, prior):
            if not math.isfinite(s_k):
                raise ValueError(f"sentiment for {k!r} is not finite: {s_k!r}")
            if prior_k < 0:
                raise ValueError(f"prior weight for {k!r} is negative: {prior_k!r}")
    # (-slope, rank in the sorted keys, lower, upper) sorts as the tie-break
    # above; clipping the prior to [0, cap] only shapes the pieces, the true
    # prior still pays the penalty in reporting. The anchor is min(prior,
    # cap): a nan prior gives a nan anchor and no piece at all
    cap, delta = cfg.cap, cfg.delta
    segments: list[tuple[float, int, float, float]] = []
    for rank, (s_k, anchor) in enumerate(zip(s, map(min, prior, repeat(cap)))):
        if anchor > 0.0:
            segments.append((-(s_k + delta), rank, 0.0, anchor))
        if anchor < cap:
            segments.append((-(s_k - delta), rank, anchor, cap))
    segments.sort()

    w = [0.0] * n
    total = 0.0
    for neg_slope, rank, lower, upper in segments:
        budget = cfg.budget_hi if neg_slope < 0.0 else cfg.budget_lo
        room = budget - total
        if room <= 0.0:
            # slopes only fall, budget_lo <= budget_hi and total never
            # falls, so no later piece has room either
            break
        length = upper - lower
        if length <= room:
            # piece consumed whole: snap to its upper bound so held priors
            # and cap fills come back exact
            w[rank] = upper
            total += length
        else:
            w[rank] = lower + room
            total = budget
    return w


def extract_trades(
    w_new: dict[str, float], w_prior: dict[str, float], trade_epsilon: float = 1e-6
) -> list[tuple[str, float]]:
    """List (company, delta) for every weight change larger than the epsilon."""
    keys = _check_keys(w_new, w_prior)
    return trades_from_moves(keys, [w_new[k] - w_prior[k] for k in keys], trade_epsilon)


def trades_from_moves(
    keys: list[str], moves: list[float], trade_epsilon: float
) -> list[tuple[str, float]]:
    """Pair each key with its weight change, keeping changes beyond the epsilon."""
    return [(k, move) for k, move in zip(keys, moves) if abs(move) > trade_epsilon]


def load_weights_csv(path: str | Path, value_column: str) -> dict[str, float]:
    """Read company,value rows (header required); values finite, companies unique."""
    out: dict[str, float] = {}

    def row_at(i: int, j: int) -> Callable[[list[str]], None]:
        def row(fields: list[str]) -> None:
            company, value = fields[i], float(fields[j])
            if not math.isfinite(value):
                raise ValueError(f"non-finite {value_column} {value!r} for {company}")
            if company in out:
                raise ValueError(f"duplicate row for {company}")
            out[company] = value
        return row

    read_csv(path, ("company", value_column), value_column, row_at)
    return out


def write_weights_csv(path: str | Path, weights: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("company,weight\n")
        for company in sorted(weights):
            fh.write(f"{company},{weights[company]!r}\n")
