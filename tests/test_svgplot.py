import re
from xml.dom import minidom

import pytest

from qnetid.svgplot import emit_plot
from qnetid.sweep import CSV_HEADER, SweepConfig, run_sweep

CFG = SweepConfig(seed=21, d_min=2, d_max=4, taus=(1.0,), subsamples=(5, 1), trials=4)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "solv.csv"
    run_sweep(CFG, out_csv=path)
    return path


class TestEmitPlot:
    def test_writes_svg(self, sweep_csv, tmp_path):
        out = emit_plot(sweep_csv, "solvability", tmp_path / "plot.svg")
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "polyline" in text
        assert "mean solvability rate" in text
        assert "tau=1" in text

    def test_deterministic_bytes(self, sweep_csv, tmp_path):
        a = emit_plot(sweep_csv, "solvability", tmp_path / "a.svg")
        b = emit_plot(sweep_csv, "solvability", tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_error_kind_log_axis(self, sweep_csv, tmp_path):
        out = emit_plot(sweep_csv, "error", tmp_path / "err.svg")
        assert "1e" in out.read_text()  # log-decade tick labels

    def test_single_cell_point_marker(self, tmp_path):
        cfg = SweepConfig(seed=2, d_min=3, d_max=3, taus=(1.0,), subsamples=(1,), trials=3)
        csv = tmp_path / "one.csv"
        run_sweep(cfg, out_csv=csv)
        out = emit_plot(csv, "solvability", tmp_path / "one.svg")
        text = out.read_text()
        assert "circle" in text
        assert "polyline" not in text  # single point, no line

    def test_empty_rows_error_no_file(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text(CSV_HEADER + "\n")
        target = tmp_path / "never.svg"
        with pytest.raises(ValueError, match="no plottable rows"):
            emit_plot(csv, "solvability", target)
        assert not target.exists()

    def test_malformed_csv_error(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("not,a,sweep\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            emit_plot(csv, "solvability", tmp_path / "x.svg")

    def test_unknown_kind(self, sweep_csv, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            emit_plot(sweep_csv, "banana", tmp_path / "x.svg")

    def test_embeds_config_comment(self, sweep_csv, tmp_path):
        out = emit_plot(sweep_csv, "solvability", tmp_path / "c.svg")
        assert '"seed": 21' in out.read_text()

    def test_no_preamble_no_comment(self, sweep_csv, tmp_path):
        csv = tmp_path / "bare.csv"
        csv.write_text("".join(line for line in sweep_csv.read_text().splitlines(True)
                               if not line.startswith("#")))
        text = emit_plot(csv, "solvability", tmp_path / "bare.svg").read_text()
        assert "<!--" not in text and "polyline" in text

    def test_comment_with_hyphen_runs_is_well_formed(self, sweep_csv, tmp_path):
        # "--" turned into "- -" left "--" in any run of three hyphens, and
        # an XML comment may hold no "--"
        csv = tmp_path / "hyphens.csv"
        body = sweep_csv.read_text().split("\n", 1)[1]
        csv.write_text("# a---b\n" + body)
        svg = emit_plot(csv, "solvability", tmp_path / "hyphens.svg")
        root = minidom.parse(str(svg)).documentElement
        assert root.tagName == "svg" and "<!-- a- - -b -->" in svg.read_text()

    def test_error_medians_in_one_decade(self, tmp_path):
        # every median 0.01: floor and ceil of log10 agree, so the axis is
        # widened to the one decade 1e-2..1e-1
        csv = tmp_path / "flat.csv"
        csv.write_text(CSV_HEADER + "\n" + "".join(
            f"{d},1.0,10,4,1.0,0.01,0.01,0.01,0\n" for d in (2, 3)))
        text = emit_plot(csv, "error", tmp_path / "flat.svg").read_text()
        ticks = re.findall(r">(1e-?\d+)</text>", text)
        assert ticks == ["1e-2", "1e-1"]
