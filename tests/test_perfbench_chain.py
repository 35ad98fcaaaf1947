"""The benchmark's in-process chain (perfbench/inproc.py), run on the golden fixture.

The benchmark times the chain with and without spans around each layer call,
and wraps backtest.optimize_weights to time each solve. Both runs must write
the same files, and the wrapper must see every solve.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from chain import OUTPUTS  # noqa: E402
from inproc import run_chain  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


def _digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def test_traced_chain_matches_untraced(golden_dir, tmp_path):
    plain = run_chain(golden_dir, tmp_path / "plain", "lexicon", "winner", NullTracer())
    tracer = Tracer(run_id="test")
    traced = run_chain(golden_dir, tmp_path / "traced", "lexicon", "winner", tracer)
    assert _digests(tmp_path / "plain") == _digests(tmp_path / "traced")
    assert repr(plain.result.days) == repr(traced.result.days)

    # a day solves unless its signal date lies past the last date (lag 0, last day)
    n, lag = len(traced.result.dates), traced.config.signal_lag_days
    solved = sum(1 for i in range(n) if i + 1 - lag < n)
    assert solved > 0
    assert sum(span.name == "optimizer.solve" for span in tracer.spans) == solved
