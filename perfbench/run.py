"""Seeded end-to-end benchmark of the sentindex CLI chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` it sets up the inputs
(several times, timing each set-up with its warm-up pass), then runs whole
passes of filter -> score -> aggregate -> backtest -> report, one process per
command, each command just after one run of the fixed reference process
(``reference.py``), until ``--seconds`` have passed. It reports each command's
time divided by its reference run, as medians over the passes, and peak RSS
as measured; each set-up is divided by a reference run too, and set-up time
is given in seconds at the reference machine's speed. With ``--trace 1`` it
runs the same chain in process, traced and untraced in turn, and reports the
per-layer metrics.
Either way the outputs are checked afterwards, and the last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
GOLDEN = REPO / "tests" / "golden"
WORK = HERE / "_work"
SETUP_REPEATS = 3
# typical wall time of one reference run (reference.py) on the reference
# machine; ``setup_s`` is given in seconds at that speed
REFERENCE_S = 0.2
STARTUP_REPEATS = 5

END_TO_END = {
    "pipeline_rel": "ratio", "filter_rel": "ratio", "score_rel": "ratio", "aggregate_rel": "ratio",
    "backtest_rel": "ratio", "report_rel": "ratio", "peak_rss_mib": "MiB", "setup_s": "s",
}
LAYERS = ("corpus", "sentiment", "aggregation", "optimizer", "backtest", "report")
PER_LAYER = {
    "cli.startup_s": "s",
    "corpus.load_articles_s": "s", "corpus.filter_s": "s", "corpus.write_articles_s": "s",
    "corpus.articles_in": "count", "corpus.kept": "count", "corpus.load_diagnostics": "count",
    "corpus.removed.exclusion_keyword": "count", "corpus.removed.auto_generated": "count",
    "corpus.removed.duplicate": "count", "corpus.removed.headline_length": "count",
    "corpus.peak_mib": "MiB",
    "sentiment.provider_load_s": "s", "sentiment.score_s": "s", "sentiment.write_scored_s": "s",
    "sentiment.load_scored_s": "s", "sentiment.scored": "count", "sentiment.nonzero_scores": "count",
    "aggregation.calendar_map_s": "s", "aggregation.aggregate_s": "s", "aggregation.write_csv_s": "s",
    "aggregation.load_csv_s": "s", "aggregation.grid_rows": "count", "aggregation.diagnostics": "count",
    "aggregation.dropped_after_range": "count", "aggregation.nonzero_cell_share": "ratio",
    "aggregation.peak_mib": "MiB",
    "optimizer.solves": "count", "optimizer.solve_s": "s", "optimizer.solve_us.p50": "us",
    "optimizer.solve_us.p99": "us", "optimizer.segments": "count", "optimizer.trades": "count",
    "backtest.load_prices_s": "s", "backtest.run_s": "s", "backtest.write_s": "s",
    "backtest.loop_self_s": "s", "backtest.days": "count", "backtest.peak_mib": "MiB",
    "report.render_s": "s", "report.svg_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.uncovered_s": "s", "trace.overhead_s": "s",
}


class Ops:
    """Counts operations (command invocations and output checks) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def commands(self, results) -> None:
        for r in results:
            self.attempted += 1
            if r.exit_code != 0:
                self.failed += 1
                raise SystemExit(f"sentindex {r.command} exited {r.exit_code}; see its log under {WORK}")

    def check(self, name: str, message: str | None) -> None:
        self.attempted += 1
        if message is not None:
            self.failed += 1
            print(f"check {name} FAILED: {message}", file=sys.stderr)


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    The shared host slows each CPU on its own (the speeds of two CPUs timed at
    once do not correlate), so a command and the reference run before it must
    share a CPU for the ratio of the two to cancel the slowdown.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def sha256_files(root: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def prepare_inputs(workload, seed: int, dest: Path) -> dict | None:
    """Generate (or copy, for the golden fixture) the inputs; return the plan."""
    from generate import generate
    from workloads import GOLDEN_FILES

    if dest.exists():
        shutil.rmtree(dest)
    if workload.gen is None:
        dest.mkdir(parents=True)
        for name in GOLDEN_FILES:
            shutil.copyfile(GOLDEN / name, dest / name)
        return None
    return generate(workload.gen, seed, dest)


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans, chain) -> dict[str, float]:
    from tracing import self_seconds, total_seconds, uncovered_seconds

    def t(name: str) -> float:
        return total_seconds(spans, name)

    solves = sorted(s.seconds for s in spans if s.name == "optimizer.solve")
    opt = chain.config.optimizer
    segments = 0
    for day in chain.result.days:
        for w in day.drifted.values():
            anchor = min(w, opt.cap)
            segments += (anchor > 0.0) + (anchor < opt.cap)
    rows = chain.grid.rows
    removed = chain.filtered.removed_by_stage
    own = self_seconds(spans)
    return {
        "corpus.load_articles_s": t("corpus.load_articles"), "corpus.filter_s": t("corpus.filter"),
        "corpus.write_articles_s": t("corpus.write_articles"),
        "corpus.articles_in": len(chain.load.articles), "corpus.kept": len(chain.filtered.kept),
        "corpus.load_diagnostics": len(chain.load.diagnostics) + len(chain.rescore_load.diagnostics),
        **{f"corpus.removed.{stage}": len(removed[stage]) for stage in
           ("exclusion_keyword", "auto_generated", "duplicate", "headline_length")},
        "sentiment.provider_load_s": t("sentiment.provider_load"), "sentiment.score_s": t("sentiment.score"),
        "sentiment.write_scored_s": t("sentiment.write_scored"),
        "sentiment.load_scored_s": t("sentiment.load_scored"),
        "sentiment.scored": len(chain.scored),
        "sentiment.nonzero_scores": sum(1 for s in chain.scored if s.score != 0.0),
        "aggregation.calendar_map_s": t("aggregation.calendar_map"),
        "aggregation.aggregate_s": t("aggregation.aggregate"),
        "aggregation.write_csv_s": t("aggregation.write_csv"),
        "aggregation.load_csv_s": t("aggregation.load_csv"),
        "aggregation.grid_rows": len(rows), "aggregation.diagnostics": len(chain.grid.diagnostics),
        "aggregation.dropped_after_range": chain.grid.dropped_after_range,
        "aggregation.nonzero_cell_share": sum(1 for r in rows if r.article_count) / len(rows),
        "optimizer.solves": len(solves), "optimizer.solve_s": sum(solves),
        "optimizer.solve_us.p50": 1e6 * nearest_rank(solves, 0.50),
        "optimizer.solve_us.p99": 1e6 * nearest_rank(solves, 0.99),
        "optimizer.segments": segments,
        "optimizer.trades": sum(len(day.trades) for day in chain.result.days),
        "backtest.load_prices_s": t("backtest.load_prices"), "backtest.run_s": t("backtest.run"),
        "backtest.write_s": t("backtest.write"),
        "backtest.loop_self_s": t("backtest.run") - sum(solves),
        "backtest.days": len(chain.result.days),
        "report.render_s": t("report.render"), "report.svg_bytes": chain.svg_bytes,
        **{f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS},
        "trace.uncovered_s": uncovered_seconds(spans),
    }


def checks_context(workload, seed: int, inputs: Path, cli_out: Path, inproc_out: Path,
                   chain, plan: dict | None):
    import checks

    return checks.Context(inputs=inputs, cli_out=cli_out, inproc_out=inproc_out, chain=chain,
                          provider=workload.provider, mode=workload.mode, seed=seed, plan=plan,
                          golden=GOLDEN if workload.gen is None else None)


def run_checks(ops: Ops, workload, seed: int, inputs: Path, cli_out: Path, inproc_out: Path,
               chain, plan: dict | None) -> None:
    import checks

    ctx = checks_context(workload, seed, inputs, cli_out, inproc_out, chain, plan)
    for name, message in checks.run_checks(ctx):
        ops.check(name, message)


def end_to_end(ops: Ops, workload, seed: int, seconds: float, work: Path) -> dict[str, float]:
    from chain import OUTPUTS, reference_seconds, run_pass
    from inproc import run_chain
    from tracing import NullTracer

    inputs, out = work / "inputs", work / "cli"
    setup_times, setup_ratios, input_hashes = [], [], []
    plan = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = prepare_inputs(workload, seed, inputs)
        results = run_pass(SRC, inputs, out, workload.provider, workload.mode)
        setup_times.append(time.perf_counter() - start)
        ops.commands(results)
        setup_ratios.append(setup_times[-1] / reference_seconds(work / "reference.log"))
        input_hashes.append(sha256_files(inputs, sorted(p.name for p in inputs.iterdir())))
    ops.check("inputs_identical_per_seed",
              None if all(h == input_hashes[0] for h in input_hashes) else "same seed, different inputs")
    reference = sha256_files(out, OUTPUTS)

    # Each command runs just after one run of the fixed reference process, and
    # its time is divided by that run's: the shared host's speed drifts by a
    # quarter within seconds, and the ratio cancels what the two share.
    passes: list[dict[str, float]] = []
    seconds_by_pass: list[dict[str, float]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results = run_pass(SRC, inputs, out, workload.provider, workload.mode, with_reference=True)
        ops.commands(results)
        reference_total = sum(r.reference_seconds for r in results)
        row = {f"{r.command}_rel": r.seconds / r.reference_seconds for r in results}
        row["pipeline_rel"] = sum(r.seconds for r in results) / reference_total
        row["peak_rss_mib"] = max(r.peak_rss_mib for r in results)
        passes.append(row)
        raw = {f"{r.command}_s": r.seconds for r in results}
        raw["pipeline_s"] = sum(r.seconds for r in results)
        raw["reference_s"] = reference_total / len(results)
        seconds_by_pass.append(raw)
        ops.check("pass_outputs_identical",
                  None if sha256_files(out, OUTPUTS) == reference else "a pass wrote different bytes")

    chain = run_chain(inputs, work / "inproc", workload.provider, workload.mode, NullTracer())
    run_checks(ops, workload, seed, inputs, out, work / "inproc", chain, plan)
    print(json.dumps({"output_sha256": reference, "passes": len(passes),
                      "median_s": {**median_metrics(seconds_by_pass),
                                   "setup_s": statistics.median(setup_times)}}))
    metrics = median_metrics(passes)
    metrics["setup_s"] = REFERENCE_S * statistics.median(setup_ratios)
    return metrics


def traced(ops: Ops, workload, seed: int, seconds: float, work: Path) -> dict[str, float]:
    from chain import OUTPUTS, run_pass, startup_seconds
    from inproc import run_chain
    from tracing import NullTracer, Tracer, write_spans

    inputs, out = work / "inputs", work / "cli"
    plan = prepare_inputs(workload, seed, inputs)
    ops.commands(run_pass(SRC, inputs, out, workload.provider, workload.mode))
    startup = []
    for _ in range(STARTUP_REPEATS):
        startup.append(startup_seconds(SRC, work / "startup.log"))
        ops.attempted += 1

    def timed_chain(dest: Path, tracer):
        t0 = time.perf_counter()
        chain = run_chain(inputs, dest, workload.provider, workload.mode, tracer)
        return chain, time.perf_counter() - t0

    rounds: list[dict[str, float]] = []
    spans = []
    chain = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        tracer = Tracer(run_id=f"traced-{len(rounds)}")
        chain = None  # release the previous round's data before running again
        if len(rounds) % 2 == 0:
            traced_chain, traced_s = timed_chain(work / "traced", tracer)
            chain, plain_s = timed_chain(work / "inproc", NullTracer())
        else:
            chain, plain_s = timed_chain(work / "inproc", NullTracer())
            traced_chain, traced_s = timed_chain(work / "traced", tracer)
        row = layer_metrics(tracer.spans, traced_chain)
        row["trace.overhead_s"] = traced_s - plain_s
        rounds.append(row)
        spans.extend(tracer.spans)
        del traced_chain

    memory = Tracer(run_id="memory", memory=True)
    tracemalloc.start()
    try:
        run_chain(inputs, work / "memory", workload.provider, workload.mode, memory)
    finally:
        tracemalloc.stop()
    spans.extend(memory.spans)
    write_spans(spans, work / "spans.jsonl")

    run_checks(ops, workload, seed, inputs, out, work / "inproc", chain, plan)
    ops.check("traced_outputs_identical",
              None if sha256_files(work / "traced", OUTPUTS) == sha256_files(out, OUTPUTS)
              else "the traced run wrote different bytes")
    print(json.dumps({"output_sha256": sha256_files(out, OUTPUTS), "rounds": len(rounds)}))
    metrics = median_metrics(rounds)
    metrics["cli.startup_s"] = statistics.median(startup)
    for layer in ("corpus", "aggregation", "backtest"):
        peaks = [s.peak_bytes for s in memory.spans
                 if s.name.startswith(layer + ".") and s.peak_bytes is not None]
        metrics[f"{layer}.peak_mib"] = max(peaks) / 2**20
    assert set(metrics) == set(PER_LAYER), set(PER_LAYER) ^ set(metrics)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sentindex" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"run.py: no sentindex sources at {SRC} or no golden fixture at {GOLDEN}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    pin_to_one_cpu()
    ops = Ops()
    if args.trace:
        values, units = traced(ops, workload, args.seed, args.seconds, work), PER_LAYER
    else:
        values, units = end_to_end(ops, workload, args.seed, args.seconds, work), END_TO_END
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
