"""Self-test of the output checks: every check passes on real output, and a
perturbed output fails the check meant to catch it.

    python3 perfbench/selftest.py

Runs the CLI chain once on a small generated input and once on the golden
fixture, then applies each perturbation below to a copy of the outputs (or
to the in-process day records) and confirms that the named check fails.
Exits 0 when every perturbation is caught.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys
from pathlib import Path

from run import SRC, WORK, checks_context, prepare_inputs

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from chain import run_pass  # noqa: E402
from generate import GenSpec  # noqa: E402
from inproc import run_chain  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SEED = 7
SMALL = Workload("generated", GenSpec(companies=40, days=80, articles=3000, provider="lexicon",
                                      history="nonzero_days",
                                      optimizer={"delta": 0.002, "cap": 0.1, "budget_lo": 0.95,
                                                 "budget_hi": 0.99},
                                      benchmark=False), "winner")


def _edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _shift_level(line: str) -> str:
    d, index_level, bench = line.split(",")
    return f"{d},{float(index_level) + 1e-6!r},{bench}"


def _drop_kept(out: Path) -> None:
    path = out / "kept.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:7] + lines[8:]) + "\n", encoding="utf-8")


def _nudge_cost(line: str) -> str:
    d, c, delta, cost = line.split(",")
    return f"{d},{c},{delta},{float(cost) * (1 + 1e-9)!r}"


def _nudge_cell(out: Path) -> None:
    path = out / "daily.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[3] != "0")
    d, c, raw, u, adj, adjusted = lines[i].split(",")
    lines[i] = f"{d},{c},{raw},{u},{adj},{float(adjusted) + 1e-9!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _flip_score(out: Path) -> None:
    path = out / "scored.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    row = next(r for r in rows if r["score"] != 0.0)
    row["score"] = -row["score"]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _drop_svg_point(out: Path) -> None:
    path = out / "report" / "report.svg"
    text = path.read_text(encoding="utf-8")
    start = text.rindex('<polyline points="') + len('<polyline points="')
    end = text.index('"', start)
    points = text[start:end].split()
    path.write_text(text[:start] + " ".join(points[:-1]) + text[end:], encoding="utf-8")


def _bump_total_trades(out: Path) -> None:
    path = out / "run" / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["trade_stats"]["total_trades"] += 1
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _over_cap(ctx: checks.Context) -> None:
    day = ctx.chain.result.days[3]
    name = max(day.weights, key=day.weights.get)
    day.weights[name] = ctx.chain.config.optimizer.cap + 1e-6


# (description, perturbation of the copied CLI outputs or of the context, check that must fail)
FILE_PERTURBATIONS = [
    ("one index level moved by 1e-6", lambda out: _edit_line(out / "run" / "levels.csv", 10, _shift_level),
     checks.check_level_recursion),
    ("one trade cost off by 1e-9 relative", lambda out: _edit_line(out / "run" / "trades.csv", 1, _nudge_cost),
     checks.check_trades),
    ("one adjusted cell off by 1e-9", _nudge_cell, checks.check_grid_recomputed),
    ("one score negated", _flip_score, checks.check_scores_recomputed),
    ("one polyline point missing", _drop_svg_point, checks.check_report),
    ("total_trades off by one", _bump_total_trades, checks.check_summary_totals),
]
GENERATED_ONLY = [("one kept article dropped", _drop_kept, checks.check_filter_plan)]
GOLDEN_ONLY = [("one index level moved by 1e-6", lambda out: _edit_line(out / "run" / "levels.csv", 10, _shift_level),
                checks.check_golden_expected)]


def prepare(workload: Workload) -> checks.Context:
    work = WORK / "selftest" / workload.name
    inputs = work / "inputs"
    plan = prepare_inputs(workload, SEED, inputs)
    results = run_pass(SRC, inputs, work / "cli", workload.provider, workload.mode)
    if any(r.exit_code for r in results):
        raise SystemExit(f"{workload.name}: the chain failed: {[(r.command, r.exit_code) for r in results]}")
    chain = run_chain(inputs, work / "inproc", workload.provider, workload.mode, NullTracer())
    return checks_context(workload, SEED, inputs, work / "cli", work / "inproc", chain, plan)


def main() -> int:
    missed = []
    for workload in (SMALL, WORKLOADS["golden_chain"]):
        name, golden = workload.name, workload.gen is None
        ctx = prepare(workload)
        failures = [(c, m) for c, m in checks.run_checks(ctx) if m is not None]
        if failures:
            print(f"{name}: unperturbed output fails {failures}")
            return 1
        print(f"{name}: all {len(checks.checks_for(ctx))} checks pass on unperturbed output")
        cases = FILE_PERTURBATIONS + (GOLDEN_ONLY if golden else GENERATED_ONLY)
        for description, perturb, check in cases:
            copy_dir = ctx.cli_out.parent / "perturbed"
            if copy_dir.exists():
                shutil.rmtree(copy_dir)
            shutil.copytree(ctx.cli_out, copy_dir)
            perturb(copy_dir)
            caught = _fails(check, dataclasses.replace(ctx, cli_out=copy_dir))
            print(f"  {'caught' if caught else 'MISSED'}: {description} -> {check.__name__}")
            if not caught:
                missed.append(description)
        perturbed = dataclasses.replace(ctx, chain=copy.deepcopy(ctx.chain))
        _over_cap(perturbed)
        caught = _fails(checks.check_targets_feasible, perturbed)
        print(f"  {'caught' if caught else 'MISSED'}: a target above the cap -> check_targets_feasible")
        if not caught:
            missed.append("target above the cap")
    print("self-test", "FAILED" if missed else "passed")
    return 1 if missed else 0


def _fails(check, ctx: checks.Context) -> bool:
    try:
        check(ctx)
    except checks.CheckFailed:
        return True
    return False


if __name__ == "__main__":
    sys.exit(main())
