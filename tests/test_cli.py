import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sulvageom import cyclic_geometry as geom
from sulvageom.cli import Report, cli_main, render_report
from sulvageom.exact_numbers import rat


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


class TestRenderReport:
    def test_empty_report(self):
        report = Report("Nothing to see")
        assert render_report(report, "text") == "Nothing to see"

    def test_json_round_trips_rationals(self):
        report = Report("t")
        report.add("s", [("v", rat(1224, 1393)), ("w", rat(-41, 15512448))])
        doc = json.loads(render_report(report, "json"))
        assert doc["sections"][0]["rows"] == [["v", "1224/1393"], ["w", "-41/15512448"]]

    def test_data_replaces_sections_in_json_only(self):
        report = Report("t", data={"v": rat(1, 2), "ok": True})
        report.add("s", [("w", rat(3, 4))])
        assert json.loads(render_report(report, "json")) == {"v": "1/2", "ok": True}
        assert render_report(report, "text", precision=2) == "t\n\ns\n  w: 3/4 (~ 0.75)"

    def test_markdown_headings(self):
        report = Report("Title")
        report.add("Section", [("k", rat(1, 2))])
        text = render_report(report, "markdown", precision=3)
        assert text.startswith("# Title")
        assert "## Section" in text
        assert "1/2 (~ 0.500)" in text


class TestSubcommands:
    def test_sqrt2_text(self, capsys):
        code, out = run_cli(capsys, "sqrt2")
        assert code == 0
        assert "577/408" in out

    def test_pi_i60(self, capsys):
        code, out = run_cli(capsys, "pi", "i60")
        assert code == 0
        assert "676/225" in out
        assert "3.0044" in out

    def test_pi_i59(self, capsys):
        code, out = run_cli(capsys, "pi", "i59", "--precision", "4")
        assert code == 0
        assert "3.0883" in out

    def test_pi_i58(self, capsys):
        code, out = run_cli(capsys, "pi", "i58")
        assert code == 0
        assert "1224/1393" in out

    def test_verify_identities(self, capsys):
        code, out = run_cli(capsys, "verify", "identities")
        assert code == 0
        assert "exact-equal" in out
        assert "-41/15512448" in out

    def test_verify_identities_json(self, capsys):
        code, out = run_cli(capsys, "verify", "identities", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 3
        assert docs[1]["verdict"] == "exact-equal"

    def test_derive_i59_json(self, capsys):
        code, out = run_cli(capsys, "derive", "i59", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["steps"]) == 7
        assert doc["final"] == [232, 204]
        assert doc["removal"] == [232, 28]

    def test_derive_i59_text(self, capsys):
        code, out = run_cli(capsys, "derive", "i59")
        assert code == 0
        assert "(232, 204)" in out
        assert "remove 28" in out

    def test_area(self, capsys):
        code, out = run_cli(capsys, "area", "25", "25", "25", "25")
        assert code == 0
        assert "625" in out

    def test_area_degenerate_note(self, capsys):
        code, out = run_cli(capsys, "area", "3", "4", "5", "0")
        assert code == 0
        assert "no textual warrant" in out

    def test_area_not_realizable(self, capsys):
        code = cli_main(["area", "10", "1", "1", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not realizable" in captured.err

    def test_crude(self, capsys):
        code, out = run_cli(capsys, "crude", "1", "7", "1", "7")
        assert code == 0
        assert "7/1" in out

    def test_quad_demo(self, capsys):
        code, out = run_cli(capsys, "quad", "demo", "--seed", "1", "--count", "20")
        assert code == 0
        assert out.count("bisection theorem: true") == 20

    def test_quad_demo_json(self, capsys):
        code, out = run_cli(capsys, "quad", "demo", "--seed", "1", "--count", "3", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 3
        assert docs[0]["vertices"][1] == ["7/25", "24/25"]
        assert all(d["segments_equal_portions"] and d["bisection_theorem"] for d in docs)

    def test_xii24(self, capsys):
        code, out = run_cli(capsys, "xii24", "3/4", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == "1/2"
        assert all(doc["verdicts"].values())

    @pytest.mark.parametrize(
        "argv, dashed",
        [
            (["xii24", "-3/5", "7"], ["xii24", "--", "-3/5", "7"]),
            (["xii24", "3/4", "-7/2"], ["xii24", "3/4", "--", "-7/2"]),
        ],
    )
    def test_xii24_negative_fractions(self, capsys, argv, dashed):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *dashed) == (0, out)


class TestExitCodes:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["nonsense"])
        assert excinfo.value.code == 2

    def test_bad_rational_literal_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["area", "x", "1", "1", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["area", "1/0", "1", "1", "1"],
            ["sqrt2", "--precision", "0"],
            ["quad", "demo", "--count", "0"],
            ["quad", "demo", "--seed", "0"],
            ["xii24", "0", "1"],
            ["xii24", "1", "1"],
            ["crude", "-1", "1", "1", "1"],
            ["area", "-1", "1", "1", "1"],
            ["quad", "demo", "--count", "1861"],
            ["xii24", "-x", "7"],
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "target, fake, argv, falses",
        [
            ("brahmagupta_theorem_check", lambda real: lambda quad: False, ["quad", "demo", "--count", "2"], 2),
            (
                "xii24_verify",
                lambda real: lambda *a: dataclasses.replace(real(*a), height_is_mean=False),
                ["xii24", "3/4", "7"],
                1,
            ),
        ],
    )
    def test_false_verdict_exits_1(self, capsys, monkeypatch, target, fake, argv, falses):
        monkeypatch.setattr(geom, target, fake(getattr(geom, target)))
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out.count(": false") == falses


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "identities", "--format", "json"],
            ["derive", "i59", "--format", "markdown"],
            ["quad", "demo", "--seed", "4", "--count", "5", "--format", "json"],
        ],
    )
    def test_byte_identical_across_runs(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


def test_python_dash_m_entry_point():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sulvageom", "sqrt2"], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout == (root / "tests" / "golden" / "sqrt2.txt").read_bytes()
