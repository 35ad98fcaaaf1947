"""The benchmark's workloads: which inputs each one runs the chain on."""

from __future__ import annotations

from dataclasses import dataclass

from generate import GenSpec

GOLDEN_FILES = (
    "articles.jsonl", "filter_config.json", "lexicon.json", "prices.csv",
    "aggregation_config.json", "backtest_config.json",
)


@dataclass(frozen=True)
class Workload:
    name: str
    gen: GenSpec | None  # None: the committed golden fixture
    mode: str  # polarity mode passed to `score`

    @property
    def provider(self) -> str:
        return self.gen.provider if self.gen else "lexicon"


WORKLOADS = {
    "golden_chain": Workload("golden_chain", None, "winner"),
    "news_flow": Workload(
        "news_flow",
        GenSpec(companies=50, days=250, articles=12_000, provider="lexicon",
                history="nonzero_days",
                optimizer={},  # the program's defaults: delta 1, near no-trade
                benchmark=False),
        "winner"),
    "wide_universe": Workload(
        "wide_universe",
        GenSpec(companies=500, days=120, articles=6_000, provider="prescored",
                history="all_days",
                optimizer={"delta": 0.002, "cap": 0.02, "budget_lo": 0.95, "budget_hi": 0.99},
                benchmark=True),
        "expectation"),
}
