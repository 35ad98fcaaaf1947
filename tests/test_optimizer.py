"""Unit, property, and cross-check tests for the weight solver."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import backtest_reference
from backtest_reference import outcome
from dict_adapters import objective_value
from grid_oracle import brute_force_oracle
from lp_reference import solve_lp
from sentindex.optimizer import (
    InfeasibleProblemError,
    OptimizerConfig,
    load_weights_csv,
    optimize_weights,
    trades_from_moves,
)

DEFAULT = OptimizerConfig()


def vec(values):
    return {f"c{i + 1:02d}": v for i, v in enumerate(values)}


def zeros(n):
    return vec([0.0] * n)


class TestConfigValidation:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert (cfg.delta, cfg.cap, cfg.budget_lo, cfg.budget_hi, cfg.trade_epsilon) == (
            1.0, 0.10, 0.99, 0.999, 1e-6)

    @pytest.mark.parametrize("kwargs", [
        {"delta": -0.1},
        {"cap": 0.0},
        {"cap": 1.2},
        {"budget_lo": -0.1},
        {"budget_lo": 0.9, "budget_hi": 0.8},
        {"budget_hi": 1.1},
        {"trade_epsilon": -1e-9},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestObjectiveValue:
    def test_no_trade_is_pure_gain(self):
        w = vec([0.1, 0.2])
        s = vec([0.5, -0.3])
        assert objective_value(w, s, dict(w), delta=1.0) == pytest.approx(
            0.1 * 0.5 + 0.2 * -0.3)

    def test_single_name_buy_at_delta_one(self):
        assert objective_value(vec([0.1]), vec([1.0]), vec([0.0]), delta=1.0) == pytest.approx(0.0)

    def test_delta_zero_drops_penalty(self):
        value = objective_value(vec([0.3]), vec([0.4]), vec([0.9]), delta=0.0)
        assert value == pytest.approx(0.3 * 0.4)

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            objective_value({"a": 0.1}, {"b": 0.1}, {"a": 0.1}, delta=1.0)


class TestOptimizeWeightsExamples:
    def test_twelve_name_single_signal_fills_to_lower_budget(self):
        # delta 1 makes every buy slope nonpositive, so the fill stops at
        # budget_lo: nine names at cap, the tenth partial, the rest zero
        s = vec([1.0] + [0.0] * 11)
        w = optimize_weights(s, zeros(12), DEFAULT)
        for i in range(1, 10):
            assert w[f"c{i:02d}"] == 0.10
        assert w["c10"] == pytest.approx(0.09, abs=1e-12)
        assert w["c11"] == 0.0 and w["c12"] == 0.0
        assert sum(w.values()) == pytest.approx(0.99, abs=1e-12)

    def test_no_trade_for_feasible_prior_small_sentiment(self):
        # prior sits strictly inside the band, so the hold is bit-exact
        prior = vec([0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.0945, 0.0, 0.0])
        s = vec([0.9, -0.8, 0.5, 0.4, -0.3, 0.2, 0.1, -0.6, 0.7, 0.3, 0.99, -0.99])
        w = optimize_weights(s, prior, DEFAULT)
        assert w == prior  # bit-identical hold

    def test_no_trade_on_band_floor_at_most_one_ulp(self):
        # a prior summing to exactly budget_lo can pick up a one-ulp top-up
        # when the fill-order accumulation lands just under the floor; the
        # hold is still exact to machine precision on every name
        prior = vec([0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.09, 0.0, 0.0])
        s = vec([0.9, -0.8, 0.5, 0.4, -0.3, 0.2, 0.1, -0.6, 0.7, 0.3, 0.99, -0.99])
        w = optimize_weights(s, prior, DEFAULT)
        for k in prior:
            assert abs(w[k] - prior[k]) <= 2.3e-16
        total = sum(w[k] for k in sorted(w))
        assert DEFAULT.budget_lo - 1e-12 <= total <= DEFAULT.budget_hi + 1e-12

    def test_cap_violating_prior_sells_to_cap_exactly(self):
        prior = vec([0.12] + [0.0869] * 10 + [0.001])
        s = vec([0.5] + [0.1] * 10 + [0.95])
        w = optimize_weights(s, prior, DEFAULT)
        assert w["c01"] == 0.10  # snapped, not approximately
        lp = solve_lp(s, prior, DEFAULT)
        greedy_obj = objective_value(w, s, prior, DEFAULT.delta)
        lp_obj = objective_value(lp, s, prior, DEFAULT.delta)
        assert greedy_obj >= lp_obj - 1e-9

    def test_delta_zero_greedy_cap_fill(self):
        cfg = OptimizerConfig(delta=0.0, cap=0.3, budget_lo=0.5, budget_hi=0.9)
        s = vec([0.8, 0.4, -0.2, -0.6])
        w = optimize_weights(s, zeros(4), cfg)
        assert w == {"c01": 0.3, "c02": 0.3, "c03": 0.0, "c04": 0.0}

    def test_delta_zero_fills_to_lower_budget_with_negative_signal(self):
        cfg = OptimizerConfig(delta=0.0, cap=0.3, budget_lo=0.5, budget_hi=0.9)
        s = vec([-0.1, -0.4, -0.2, -0.6])
        w = optimize_weights(s, zeros(4), cfg)
        # forced investment goes to the least bad names
        assert w["c01"] == 0.3 and w["c03"] == pytest.approx(0.2, abs=1e-12)
        assert w["c02"] == 0.0 and w["c04"] == 0.0

    def test_infeasible_universe_rejected_naming_requirement(self):
        with pytest.raises(InfeasibleProblemError, match="10"):
            optimize_weights(vec([0.5] * 4), zeros(4), DEFAULT)

    def test_infeasible_universe_at_the_smallest_cap_names_exact_requirement(self):
        # 0.99 / 5e-324 overflows a float, and math.ceil(inf) raised OverflowError
        cfg = OptimizerConfig(cap=5e-324)
        required = -(-Fraction(0.99) // Fraction(5e-324))
        with pytest.raises(InfeasibleProblemError, match=f"need at least {required} names"):
            optimize_weights(vec([0.5] * 4), zeros(4), cfg)

    def test_negative_prior_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            optimize_weights(vec([0.5] * 12), vec([-0.01] + [0.0] * 11), DEFAULT)

    def test_non_finite_sentiment_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            optimize_weights(vec([float("nan")] + [0.0] * 11), zeros(12), DEFAULT)

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            optimize_weights(vec([0.1] * 12), zeros(11), DEFAULT)


class TestOracle:
    def test_all_in_best_name_when_uncapped(self):
        cfg = OptimizerConfig(delta=0.0, cap=1.0, budget_lo=1.0, budget_hi=1.0)
        w = brute_force_oracle(vec([0.3, 0.1]), zeros(2), cfg, grid_step=0.005)
        assert w == {"c01": 1.0, "c02": 0.0}

    def test_permuting_inputs_permutes_output(self):
        # marginal slopes are pairwise distinct here, so the optimum is
        # unique and relabelling must commute with solving
        cfg = OptimizerConfig(delta=0.3, cap=0.5, budget_lo=0.5, budget_hi=0.8)
        s = {"a": 0.7, "b": -0.25, "c": 0.4}
        prior = {"a": 0.1, "b": 0.3, "c": 0.0}
        w1 = brute_force_oracle(s, prior, cfg)
        relabel = {"a": "b", "b": "c", "c": "a"}
        w2 = brute_force_oracle({relabel[k]: v for k, v in s.items()},
                                {relabel[k]: v for k, v in prior.items()}, cfg)
        assert w2 == {relabel[k]: v for k, v in w1.items()}

    def test_refuses_large_universe(self):
        cfg = OptimizerConfig(cap=0.5, budget_lo=0.5, budget_hi=0.8)
        with pytest.raises(ValueError, match="n > 4"):
            brute_force_oracle(vec([0.1] * 5), zeros(5), cfg)

    def test_requires_grid_aligned_cap(self):
        cfg = OptimizerConfig(cap=0.127, budget_lo=0.12, budget_hi=0.2)
        with pytest.raises(ValueError, match="divide"):
            brute_force_oracle(vec([0.1]), zeros(1), cfg, grid_step=0.005)

    def test_agrees_with_greedy_on_small_instance(self):
        cfg = OptimizerConfig(delta=0.3, cap=0.4, budget_lo=0.6, budget_hi=0.8)
        s = vec([0.9, -0.5, 0.2])
        prior = vec([0.1, 0.4, 0.1])
        greedy = optimize_weights(s, prior, cfg)
        oracle = brute_force_oracle(s, prior, cfg, grid_step=0.005)
        g = objective_value(greedy, s, prior, cfg.delta)
        o = objective_value(oracle, s, prior, cfg.delta)
        assert g >= o - 1e-12  # exact method never loses to the grid


def trades(new, prior, eps=1e-6):
    """trades_from_moves over the sorted keys, as the optimize command counts them; it must
    give what the reference's extract_trades gives, repr for repr."""
    keys = sorted(new)
    got = trades_from_moves(keys, [new[k] - prior[k] for k in keys], eps)
    assert repr(got) == repr(backtest_reference.extract_trades(new, prior, eps))
    return got


class TestExtractTrades:
    def test_identical_vectors_no_trades(self):
        w = vec([0.1, 0.2])
        assert trades(w, dict(w)) == []

    def test_two_sided_rebalance(self):
        new = vec([0.10, 0.10])
        prior = vec([0.12, 0.08])
        assert dict(trades(new, prior)) == {"c01": pytest.approx(-0.02), "c02": pytest.approx(0.02)}

    def test_below_epsilon_not_counted(self):
        new = vec([0.1 + 1e-9])
        prior = vec([0.1])
        assert trades(new, prior, eps=1e-6) == []

    def test_trades_sorted_by_company(self):
        new = {"b": 0.1, "a": 0.1, "c": 0.0}
        prior = {"b": 0.0, "a": 0.0, "c": 0.1}
        assert [k for k, _ in trades(new, prior)] == ["a", "b", "c"]


@st.composite
def instance_st(draw):
    n = draw(st.integers(2, 8))
    cap = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0]))
    lo = draw(st.floats(0.0, min(1.0, n * cap)))
    hi = draw(st.floats(lo, min(1.0, lo + 0.3)))
    cfg = OptimizerConfig(delta=draw(st.sampled_from([0.0, 0.3, 1.0])),
                          cap=cap, budget_lo=lo, budget_hi=hi)
    s = vec([draw(st.floats(-1, 1, allow_nan=False)) for _ in range(n)])
    prior = vec([draw(st.floats(0, cap * 1.5)) for _ in range(n)])
    return s, prior, cfg


@settings(max_examples=150, deadline=None)
@given(instance_st())
def test_output_always_feasible(instance):
    s, prior, cfg = instance
    w = optimize_weights(s, prior, cfg)
    assert all(v >= 0.0 for v in w.values())
    assert all(v <= cfg.cap + 1e-12 for v in w.values())
    total = sum(sorted(w.values()))
    assert cfg.budget_lo - 1e-12 <= total <= cfg.budget_hi + 1e-12


@settings(max_examples=100, deadline=None)
@given(instance_st())
def test_objective_never_below_lp(instance):
    s, prior, cfg = instance
    greedy = optimize_weights(s, prior, cfg)
    lp = solve_lp(s, prior, cfg)
    g = objective_value(greedy, s, prior, cfg.delta)
    o = objective_value(lp, s, prior, cfg.delta)
    assert g >= o - 1e-8  # LP solver tolerance, not ours


def test_relabeling_distinct_sentiments_relabels_solution():
    rng = np.random.default_rng(41)
    for _ in range(25):
        s_vals = rng.uniform(-1, 1, 12)
        prior_vals = rng.uniform(0, 0.12, 12)
        s = vec(s_vals)
        prior = vec(prior_vals)
        w = optimize_weights(s, prior, DEFAULT)
        perm = rng.permutation(12)
        mapping = {f"c{i + 1:02d}": f"x{perm[i] + 1:02d}" for i in range(12)}
        w2 = optimize_weights({mapping[k]: v for k, v in s.items()},
                              {mapping[k]: v for k, v in prior.items()}, DEFAULT)
        assert w2 == {mapping[k]: v for k, v in w.items()}


def test_twelve_name_lp_cross_check_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(30):
        s = vec(rng.uniform(-1, 1, 12))
        prior_raw = rng.uniform(0, 0.12, 12)
        prior = vec(prior_raw * (0.995 / prior_raw.sum()))
        w = optimize_weights(s, prior, DEFAULT)
        lp = solve_lp(s, prior, DEFAULT)
        g = objective_value(w, s, prior, DEFAULT.delta)
        o = objective_value(lp, s, prior, DEFAULT.delta)
        assert g >= o - 1e-9
        total = sum(w.values())
        assert DEFAULT.budget_lo - 1e-12 <= total <= DEFAULT.budget_hi + 1e-12


def solver_case(rng: random.Random):
    """A seeded solver instance for the reference comparison.

    Names are inserted in random order and sort as strings (n10 < n9), so
    ranks must follow the sorted ids. Sentiments are drawn from a small set
    as well as at random, so slopes tie exactly, also across a name's two
    pieces (0.5 - 0.25 == 0.0 + 0.25). Priors are zero, at or above the cap,
    inside it or -0.0; some instances have delta 0, budget_lo == budget_hi,
    a budget_lo out of reach, a non-finite sentiment, a negative prior or
    mismatched keys.
    """
    n = rng.choice([rng.randint(1, 12), rng.randint(1, 600)])
    names = [f"n{x}" for x in rng.sample(range(10 * n + 10), n)]
    cap = rng.choice([0.05, 0.1, 0.25, 1 / 3, 0.5, 1.0, rng.uniform(0.01, 1.0)])
    reach = min(1.0, n * cap)
    kind = rng.random()
    if kind < 0.1 and reach < 1.0:
        lo = rng.uniform(reach + 1e-9, 1.0)  # infeasible
        hi = rng.uniform(lo, 1.0)
    elif kind < 0.25:
        lo = hi = rng.choice([reach, rng.uniform(0.0, reach)])
    else:
        lo = rng.choice([0.0, reach, rng.uniform(0.0, reach), rng.uniform(0.0, reach)])
        hi = rng.choice([lo, 1.0, rng.uniform(lo, 1.0), rng.uniform(lo, 1.0)])
    cfg = OptimizerConfig(delta=rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, rng.uniform(0.0, 2.0)]),
                          cap=cap, budget_lo=lo, budget_hi=hi)
    ties = [0.0, 0.25, -0.25, 0.5, -0.5, 1 / 3, 1.0, -1.0]
    s = {k: rng.choice(ties) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0) for k in names}
    priors = [0.0, 0.0, -0.0, cap, 1.5 * cap, 1.0, None, None]
    prior = {}
    for k in names:
        p = rng.choice(priors)
        prior[k] = rng.uniform(0.0, 2.0 * cap) if p is None else p
    if rng.random() < 0.3:  # a drifted prior near the band
        total = sum(prior.values()) or 1.0
        prior = {k: v * (lo + rng.random() * (hi - lo)) / total for k, v in prior.items()}
    bad = rng.random()
    if bad < 0.03:
        s[rng.choice(names)] = rng.choice([math.nan, math.inf, -math.inf])
    elif bad < 0.06:
        prior[rng.choice(names)] = -rng.choice([1e-12, 0.1])
    elif bad < 0.07:
        prior[names[0] + "x"] = 0.0
    return s, prior, cfg


@pytest.mark.parametrize("chunk", range(8))
def test_matches_reference_bit_for_bit(chunk):
    rng = random.Random(1000 + chunk)
    for _ in range(250):
        s, prior, cfg = solver_case(rng)
        got, got_error = outcome(optimize_weights, s, prior, cfg)
        want, want_error = outcome(backtest_reference.optimize_weights, s, prior, cfg)
        assert got_error == want_error
        assert got == want and repr(got) == repr(want), (s, prior, cfg)
        if got is not None:
            for eps in (0.0, cfg.trade_epsilon):
                trades(got, prior, eps)


def piece_order_case(rng: random.Random):
    """A seeded solver instance aimed at the order in which the fill visits pieces.

    The fill walks a stable reverse sort of the piece indices on slope and
    works out each piece's bounds only when it gets there. So the name the
    fill reaches first (the largest sentiment, lowest id among ties) often
    has a prior that leaves a piece missing: 0.0, -0.0 or nan (no upper
    piece), exactly cap or above it (no lower piece). Sentiments tie across
    names; delta is often 0, so a name's two pieces tie, or inf, so every
    upper piece ties with every other; budget_lo == budget_hi in about a
    third of the cases. Half the cases have up to 1,000 names with about
    90 % zero sentiments, as a wide universe has. A few cases aim at the
    solver's input scans: a negative prior behind a nan prior on the first
    name, a sentiment that is not finite, or finite sentiments whose sum
    overflows.
    """
    wide = rng.random() < 0.5
    n = rng.randint(200, 1000) if wide else rng.randint(1, 12)
    names = [f"n{x}" for x in rng.sample(range(10 * n + 10), n)]
    cap = rng.choice([0.02, 0.1, 0.25, 1 / 3, 1.0])
    reach = min(1.0, n * cap)
    lo = rng.choice([reach, 0.95 * reach, rng.uniform(0.0, reach)])
    hi = lo if rng.random() < 0.35 else rng.choice([1.0, rng.uniform(lo, 1.0)])
    cfg = OptimizerConfig(delta=rng.choice([0.0, 0.0, 0.002, 0.25, math.inf]),
                          cap=cap, budget_lo=lo, budget_hi=hi)
    quiet = 0.9 if wide else rng.choice([0.0, 0.5])
    ties = [0.25, -0.25, 0.5, 1.0, -1.0]
    s = {k: 0.0 if rng.random() < quiet else rng.choice([*ties, rng.uniform(-1.0, 1.0)])
         for k in names}
    missing = [0.0, -0.0, math.nan, cap, 1.5 * cap]
    prior = {k: rng.choice([*missing, rng.uniform(0.0, cap), rng.uniform(0.0, 2.0 * cap)])
             for k in names}
    first = min(names, key=lambda k: (-s[k], k))
    prior[first] = rng.choice(missing)
    if rng.random() < 0.3:  # a drifted prior near the band keeps its missing pieces
        total = math.fsum(v for v in prior.values() if v == v) or 1.0
        prior = {k: v * (lo + rng.random() * (hi - lo)) / total if 0.0 < v < cap else v
                 for k, v in prior.items()}
    bad = rng.random()
    if bad < 0.05:
        prior[min(names)] = math.nan
        prior[rng.choice(names)] = -rng.choice([1e-12, 0.1])
    elif bad < 0.08:
        s[rng.choice(names)] = rng.choice([math.nan, math.inf, -math.inf])
    elif bad < 0.11:
        s.update(dict.fromkeys(rng.sample(names, min(n, 2)), 1.5e308))
    return s, prior, cfg


@pytest.mark.parametrize("chunk", range(4))
def test_piece_order_matches_reference_bit_for_bit(chunk):
    """The fill's piece order, missing pieces and ties give the reference's weights to the bit."""
    rng = random.Random(5000 + chunk)
    for _ in range(150):
        s, prior, cfg = piece_order_case(rng)
        got, got_error = outcome(optimize_weights, s, prior, cfg)
        want, want_error = outcome(backtest_reference.optimize_weights, s, prior, cfg)
        assert got_error == want_error
        assert got == want and repr(got) == repr(want), (s, prior, cfg)


class TestLoadWeightsCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("company,weight\nb,0.25\na,0.5\n")
        assert load_weights_csv(path, "weight") == {"b": 0.25, "a": 0.5}

    def test_rejects_duplicate_company(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("company,weight\na,0.25\nb,0.5\na,0.1\n")
        with pytest.raises(ValueError, match="line 4: duplicate row for a"):
            load_weights_csv(path, "weight")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "s.csv"
        path.write_text(f"company,sentiment\na,0.25\nb,{value}\n")
        with pytest.raises(ValueError, match=f"line 3: non-finite sentiment {value} for b"):
            load_weights_csv(path, "sentiment")

    def test_rejects_missing_column(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("company,value\na,0.25\n")
        with pytest.raises(ValueError, match="weight CSV lacks a 'weight' column"):
            load_weights_csv(path, "weight")
