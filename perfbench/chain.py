"""One pass of the sentindex CLI chain, run the way a user runs it.

Each command is its own ``python -m sentindex.cli`` process, started only
after the previous one has exited, so at most one child runs at a time. The
wall time of each process is measured around its start and reaping, and its
peak resident set comes from ``os.wait4``'s rusage for that child alone.
When asked, a pass runs the fixed reference process (``reference.py``) just
before each command, also alone, and records its wall time with the command.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

COMMANDS = ("filter", "score", "aggregate", "backtest", "report")

# output files of one pass, relative to its output directory
OUTPUTS = (
    "kept.jsonl", "removed.jsonl", "scored.jsonl", "daily.csv",
    "run/levels.csv", "run/trades.csv", "run/summary.json",
    "report/report.svg", "report/report.csv",
)


@dataclass(frozen=True)
class CommandResult:
    command: str
    seconds: float
    peak_rss_mib: float
    exit_code: int
    reference_seconds: float | None = None  # the reference run just before it, if asked for


def command_argv(inputs: Path, out: Path, provider: str, mode: str) -> list[tuple[str, list[str]]]:
    """The five subcommands with their arguments, in chain order."""
    provider_file = inputs / ("lexicon.json" if provider == "lexicon" else "prescored.jsonl")
    bench = ["--benchmark", str(inputs / "benchmark.csv")] if (inputs / "benchmark.csv").is_file() else []
    return [
        ("filter", ["--articles", str(inputs / "articles.jsonl"),
                    "--config", str(inputs / "filter_config.json"),
                    "--out", str(out / "kept.jsonl"), "--removed", str(out / "removed.jsonl")]),
        ("score", ["--articles", str(out / "kept.jsonl"), "--provider", provider,
                   "--provider-file", str(provider_file), "--mode", mode,
                   "--out", str(out / "scored.jsonl")]),
        ("aggregate", ["--scored", str(out / "scored.jsonl"), "--prices", str(inputs / "prices.csv"),
                       "--config", str(inputs / "aggregation_config.json"),
                       "--out", str(out / "daily.csv")]),
        ("backtest", ["--prices", str(inputs / "prices.csv"), "--sentiments", str(out / "daily.csv"),
                      "--config", str(inputs / "backtest_config.json"), *bench,
                      "--out", str(out / "run")]),
        ("report", ["--in", str(out / "run"), "--out", str(out / "report")]),
    ]


def run_process(argv: list[str], env: dict[str, str], log: Path) -> tuple[float, float, int]:
    """Run one process to completion; return (wall seconds, peak RSS MiB, exit code)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def cli_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(src: Path, inputs: Path, out: Path, provider: str, mode: str,
             with_reference: bool = False) -> list[CommandResult]:
    """Run the five commands in order; stop at the first one that fails."""
    env = cli_env(src)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for name, args in command_argv(inputs, out, provider, mode):
        reference = reference_seconds(out / "reference.log") if with_reference else None
        seconds, rss, code = run_process(
            [sys.executable, "-m", "sentindex.cli", name, *args], env, out / f"{name}.log")
        results.append(CommandResult(name, seconds, rss, code, reference))
        if code != 0:
            break
    return results


def reference_seconds(log: Path) -> float:
    """Wall time of one run of the fixed reference process (``reference.py``)."""
    script = Path(__file__).resolve().parent / "reference.py"
    seconds, _, code = run_process([sys.executable, str(script)], dict(os.environ), log)
    if code != 0:
        raise RuntimeError(f"reference.py exited {code}")
    return seconds


def startup_seconds(src: Path, log: Path) -> float:
    """Wall time of a ``python -m sentindex.cli --help`` process."""
    seconds, _, code = run_process([sys.executable, "-m", "sentindex.cli", "--help"], cli_env(src), log)
    if code != 0:
        raise RuntimeError(f"sentindex.cli --help exited {code}")
    return seconds
