"""Tests for deterministic report rendering."""

from __future__ import annotations

import json
import re
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sentindex.report import ReportSpec, render_report


def stage_golden_inputs(golden_dir: Path, target: Path) -> Path:
    target.mkdir(parents=True, exist_ok=True)
    shutil.copy(golden_dir / "expected_levels.csv", target / "levels.csv")
    shutil.copy(golden_dir / "expected_trades.csv", target / "trades.csv")
    shutil.copy(golden_dir / "expected_summary.json", target / "summary.json")
    return target


@pytest.fixture
def staged(golden_dir, tmp_path):
    return stage_golden_inputs(golden_dir, tmp_path / "in")


class TestRenderReport:
    def test_produces_wellformed_svg_and_csv(self, staged, tmp_path):
        out = tmp_path / "out"
        written = render_report(ReportSpec(input_dir=staged, output_dir=out))
        assert sorted(p.name for p in written) == ["report.csv", "report.svg"]
        root = ET.fromstring((out / "report.svg").read_text())
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2  # index and benchmark series
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "metric,value"

    def test_matches_committed_golden_bytes(self, staged, tmp_path, golden_dir):
        out = tmp_path / "out"
        render_report(ReportSpec(input_dir=staged, output_dir=out))
        assert (out / "report.svg").read_bytes() == (golden_dir / "expected_report.svg").read_bytes()
        assert (out / "report.csv").read_bytes() == (golden_dir / "expected_report.csv").read_bytes()

    def test_table_matches_summary_to_printed_precision(self, staged, tmp_path):
        out = tmp_path / "out"
        render_report(ReportSpec(input_dir=staged, output_dir=out))
        summary = json.loads((staged / "summary.json").read_text())
        table = dict(
            line.split(",", 1) for line in
            (out / "report.csv").read_text().splitlines()[1:])
        assert table["annualized_return_index_pct"] == (
            f"{100.0 * summary['annualized_return_index']:.2f}")
        assert table["final_index_level"] == f"{summary['final_index_level']:.2f}"
        assert int(table["total_trades"]) == summary["trade_stats"]["total_trades"]

    def test_empty_trades_still_renders(self, staged, tmp_path):
        (staged / "trades.csv").write_text("date,company,delta_weight,cost\n")
        out = tmp_path / "out"
        render_report(ReportSpec(input_dir=staged, output_dir=out))
        svg = (out / "report.svg").read_text()
        ET.fromstring(svg)  # still well-formed
        # only the legend swatch keeps the trade stroke; no impulse bars
        assert svg.count('stroke="#8a97a5"') == 1

    @pytest.mark.parametrize("max_trades, labels", [
        (10, "0 1 2 3 4 5 6 7 8 9 10"), (11, "0 2 4 6 8 10"), (67, "0 10 20 30 40 50 60"),
        (109, "0 10 20 30 40 50 60 70 80 90 100"), (110, "0 20 40 60 80 100"),
        (999, "0 100 200 300 400 500 600 700 800 900"),
    ])
    def test_right_axis_labels_thinned(self, staged, tmp_path, max_trades, labels):
        day = (staged / "levels.csv").read_text().splitlines()[2].split(",")[0]
        (staged / "trades.csv").write_text(
            "date,company,delta_weight,cost\n" + "".join(f"{day},n{k},0.001,5e-07\n" for k in range(max_trades)))
        out = tmp_path / "out"
        render_report(ReportSpec(input_dir=staged, output_dir=out))
        got = re.findall(r'text-anchor="start" fill="#8a97a5">(\d+)</text>', (out / "report.svg").read_text())
        assert " ".join(got) == labels

    def test_date_filter_crops_chart(self, staged, tmp_path, golden_dir):
        out_full = tmp_path / "full"
        out_cut = tmp_path / "cut"
        render_report(ReportSpec(input_dir=staged, output_dir=out_full))
        from datetime import date
        render_report(ReportSpec(input_dir=staged, output_dir=out_cut,
                                 date_from=date(2021, 3, 10), date_to=date(2021, 3, 31)))
        full_svg = (out_full / "report.svg").read_text()
        cut_svg = (out_cut / "report.svg").read_text()
        assert "2021-03-01" in full_svg and "2021-03-01" not in cut_svg
        assert "2021-03-10" in cut_svg
        # the crop draws exactly what an uncropped render of the window's rows draws
        window = stage_golden_inputs(golden_dir, tmp_path / "window")
        for name in ("levels.csv", "trades.csv"):
            header, *rows = (staged / name).read_text().splitlines()
            kept = [row for row in rows if "2021-03-10" <= row[:10] <= "2021-03-31"]
            assert 0 < len(kept) < len(rows)
            (window / name).write_text("\n".join([header, *kept]) + "\n")
        render_report(ReportSpec(input_dir=window, output_dir=tmp_path / "window_out"))
        assert (tmp_path / "window_out" / "report.svg").read_bytes() == (out_cut / "report.svg").read_bytes()

    def test_filter_excluding_everything_is_an_error(self, staged, tmp_path):
        from datetime import date
        with pytest.raises(ValueError, match="excludes"):
            render_report(ReportSpec(input_dir=staged, output_dir=tmp_path / "out",
                                     date_from=date(2030, 1, 1)))

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",nan"] + lines[4:],
         "levels.csv: line 4: non-finite level on 2021-03-03: index 101.79912107349776, benchmark nan"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",1e308"] + lines[4:],
         "levels from 99.95049999999999 to 1e+308 are too far apart to draw"),
        (lambda lines: lines[:1] + lines[:0:-1], "levels.csv: line 3: date 2021-04-08 does not follow 2021-04-09"),
        (lambda lines: lines[:3] + lines[2:], "levels.csv: line 4: date 2021-03-02 does not follow 2021-03-02"),
    ], ids=["nan", "overflow", "reversed", "repeated"])
    def test_bad_level_is_rejected(self, staged, tmp_path, edit, message):
        lines = (staged / "levels.csv").read_text().splitlines()
        (staged / "levels.csv").write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            render_report(ReportSpec(input_dir=staged, output_dir=tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_missing_input_named(self, tmp_path):
        (tmp_path / "in").mkdir()
        with pytest.raises(FileNotFoundError, match="levels.csv"):
            render_report(ReportSpec(input_dir=tmp_path / "in", output_dir=tmp_path / "out"))

    def test_unknown_format_rejected(self, staged, tmp_path):
        with pytest.raises(ValueError, match="formats"):
            ReportSpec(input_dir=staged, output_dir=tmp_path / "out", formats=("pdf",))

    def test_csv_only(self, staged, tmp_path):
        out = tmp_path / "out"
        written = render_report(ReportSpec(input_dir=staged, output_dir=out, formats=("csv",)))
        assert [p.name for p in written] == ["report.csv"]
        assert not (out / "report.svg").exists()

    def test_rendering_is_deterministic(self, staged, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        render_report(ReportSpec(input_dir=staged, output_dir=out1))
        render_report(ReportSpec(input_dir=staged, output_dir=out2))
        assert (out1 / "report.svg").read_bytes() == (out2 / "report.svg").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
