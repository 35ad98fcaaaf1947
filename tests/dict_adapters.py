"""Dict-keyed helpers the package no longer calls, kept for the tests.

``simple_return``, ``drift_weights``, ``transaction_costs``,
``objective_value`` and ``source_adjustment`` are the package's own earlier
helpers, moved here unchanged: they run on the package's private kernels, so
a test of them still tests the code the day loop and the aggregation use.
``grid`` turns (company, date) keyed closes or sentiments into the
row-major ``grids.Grid`` that ``run_backtest`` takes for both.
"""

from __future__ import annotations

from datetime import date

from sentindex.aggregation import _shrink
from sentindex.backtest import _cost, _drift
from sentindex.grids import Grid


def grid(values: dict[tuple[str, date], float], dates=None, companies=None) -> Grid:
    """(company, date) -> value as the row-major Grid that run_backtest takes.

    The axes default to the sorted companies and dates among the keys.
    """
    dates = tuple(sorted({d for _, d in values}) if dates is None else dates)
    companies = tuple(sorted({c for c, _ in values}) if companies is None else companies)
    return Grid(dates, companies, [[values[(c, d)] for c in companies] for d in dates])


def price(prices: Grid, company: str, d: date) -> float:
    """The close of company on date d."""
    return prices.rows[prices.dates.index(d)][prices.companies.index(company)]


def simple_return(p_t: float, p_prev: float) -> float:
    if p_t <= 0 or p_prev <= 0:
        raise ValueError(f"prices must be positive, got ({p_t!r}, {p_prev!r})")
    return (p_t - p_prev) / p_prev


def drift_weights(
    w: dict[str, float], returns: dict[str, float]
) -> tuple[dict[str, float], float]:
    """Re-express weights after a day's returns; also return the gross return.

    w_drifted_i = w_i (1 + r_i) / (1 + sum_j w_j r_j). The cash remainder
    implicitly earns zero and is diluted by the same denominator. Raises when
    the portfolio return hits -100%.
    """
    keys = sorted(w)
    if sorted(returns) != keys:
        raise ValueError("weight and return key sets differ")
    drifted, r_gross = _drift([w[k] for k in keys], [returns[k] for k in keys])
    return dict(zip(keys, drifted)), r_gross


def transaction_costs(
    w_new: dict[str, float], w_drifted: dict[str, float], tc_rate: float
) -> tuple[float, dict[str, float]]:
    """Total cost drag tc_rate * turnover, plus the per-name components."""
    keys = sorted(w_new)
    if sorted(w_drifted) != keys:
        raise ValueError("weight key sets differ")
    moves = [w_new[k] - w_drifted[k] for k in keys]
    return _cost(moves, tc_rate), {k: tc_rate * abs(m) for k, m in zip(keys, moves)}


def objective_value(
    w: dict[str, float], s: dict[str, float], w_prev: dict[str, float], delta: float
) -> float:
    """Evaluate sum w_i s_i - delta * sum |w_prev_i - w_i| over sorted keys."""
    keys = sorted(w)
    if sorted(s) != keys or sorted(w_prev) != keys:
        raise ValueError("mismatched company keys")
    gain = sum(w[k] * s[k] for k in keys)
    turnover = sum(abs(w_prev[k] - w[k]) for k in keys)
    return gain - delta * turnover


def source_adjustment(u_today: int, prior_counts: list[int]) -> float:
    """Shrink factor from today's unique-source count vs. the historical mean.

    With no history the factor is 1. Otherwise u/mean(prior) when below the
    mean, else 1; always in (0, 1] given u_today >= 1.
    """
    if u_today < 1:
        raise ValueError(f"u_today must be >= 1, got {u_today}")
    return _shrink(u_today, sum(prior_counts), len(prior_counts))
