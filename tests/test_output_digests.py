"""Byte identity as a test: the sha256 of what each command writes, on a fixed set of cases.

tests/golden/output_digests.json holds, for each case, the command's exit code
and the sha256 of its stderr and of each file it may write (null for a file it
did not write). A changed digest is a changed behaviour. Regenerate the file
only for a change that is meant, and name each changed entry and its cause:

    PYTHONPATH=src python tests/test_output_digests.py

Each case runs main() in its own directory, on paths relative to it, so that no
message carries the directory it ran in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from generate import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from sentindex.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
DIGESTS = GOLDEN / "output_digests.json"

FILTER_ARGV = ["filter", "--articles", "articles.jsonl", "--config", "filter_config.json",
               "--out", "kept.jsonl", "--removed", "removed.jsonl"]
FILTER_OUTPUTS = ("kept.jsonl", "removed.jsonl")


def golden_inputs(dest: Path) -> None:
    for name in ("articles.jsonl", "filter_config.json"):
        shutil.copy(GOLDEN / name, dest / name)


def news_flow_inputs(dest: Path) -> None:
    generate(WORKLOADS["news_flow"].gen, 11, dest)


def upper_case_keyword_inputs(dest: Path) -> None:
    golden_inputs(dest)
    config = json.loads((GOLDEN / "filter_config.json").read_text(encoding="utf-8"))
    config["exclusions"]["adlerwerke"].append("Tierpark")
    (dest / "filter_config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


# name -> (writes the case's inputs into a directory, argv, the files the command may write)
CASES = {
    "filter/golden": (golden_inputs, FILTER_ARGV, FILTER_OUTPUTS),
    "filter/news_flow-11": (news_flow_inputs, FILTER_ARGV, FILTER_OUTPUTS),
    "filter/upper-case-keyword": (upper_case_keyword_inputs, FILTER_ARGV, FILTER_OUTPUTS),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, work: Path) -> dict:
    """The exit code and the digests of one case, run in the empty directory work."""
    write_inputs, argv, outputs = CASES[name]
    write_inputs(work)
    stderr = io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"exit": code, "stderr": sha256(stderr.getvalue().encode("utf-8")),
            **{out: sha256(p.read_bytes()) if (p := work / out).exists() else None for out in outputs}}


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_their_digests(name, tmp_path):
    assert run_case(name, tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]


def test_every_digest_has_a_case():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    digests = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = run_case(case, Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {DIGESTS.relative_to(ROOT)}")
