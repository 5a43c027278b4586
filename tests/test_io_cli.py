import json
import math
import subprocess
import sys

import pytest

from thuelab.cli import main
from thuelab.io import (
    dumps_json,
    load_packing,
    packing_from_json,
    packing_to_json,
    save_packing,
)
from thuelab.packing import Domain, gen_random

SQRT3 = math.sqrt(3.0)
HEX_H = "10.392304845413264"  # 6 * sqrt(3)


class TestJsonRoundTrip:
    def test_bit_exact(self):
        cfg = gen_random(Domain("torus", 20.0, 20.0), seed=1)
        back = packing_from_json(packing_to_json(cfg))
        assert back.centers == cfg.centers
        assert back.domain == cfg.domain

    def test_seventeen_digit_floats(self):
        text = dumps_json({"v": 0.1 + 0.2})
        assert "0.30000000000000004" in text

    def test_rejects_non_unit_radius(self):
        with pytest.raises(ValueError):
            packing_from_json('{"radius": 2.0, "domain": {"kind": "torus", "width": 10, "height": 10}, "centers": []}')

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            packing_from_json('{"radius": 1.0, "domain": {"kind": "torus", "width": 10, "height": 10}, "centers": [[1e999, 0]]}')


class TestCsv:
    def test_csv_needs_domain(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0,0\n2,0\n0,2\n")
        with pytest.raises(ValueError):
            load_packing(str(p))
        cfg = load_packing(str(p), Domain("box", 10.0, 10.0))
        assert cfg.n == 3

    def test_csv_comments_and_blanks(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("# comment\n0,0\n\n4,0\n0,4\n")
        cfg = load_packing(str(p), Domain("box", 10.0, 10.0))
        assert cfg.n == 3


@pytest.fixture()
def hex_json(tmp_path):
    path = tmp_path / "hex.json"
    rc = main(["generate", "--kind", "hex", "--torus", "12", HEX_H, "-o", str(path)])
    assert rc == 0
    return path


@pytest.fixture()
def hexm1_json(tmp_path, hex_json):
    doc = json.loads(hex_json.read_text())
    del doc["centers"][14]
    path = tmp_path / "hexm1.json"
    path.write_text(json.dumps(doc))
    return path


class TestCliGenerate:
    def test_hex_center_count(self, hex_json):
        doc = json.loads(hex_json.read_text())
        assert len(doc["centers"]) == 36

    def test_square(self, tmp_path):
        out = tmp_path / "sq.json"
        assert main(["generate", "--kind", "square", "--torus", "12", "12", "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["centers"]) == 36

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--kind", "random", "--torus", "40", "40", "--seed", "42"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(json.loads(a.read_text())["centers"]) == 239

    def test_incommensurate_exits_2(self, tmp_path):
        rc = main(["generate", "--kind", "hex", "--torus", "11", "12", "-o", str(tmp_path / "x.json")])
        assert rc == 2

    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THUE_LAB_SEED", "42")
        a = tmp_path / "env.json"
        assert main(["generate", "--kind", "random", "--torus", "40", "40", "-o", str(a)]) == 0
        assert len(json.loads(a.read_text())["centers"]) == 239


class TestCliVerify:
    def test_hex_exit_0(self, hex_json, tmp_path):
        rep = tmp_path / "r.json"
        rc = main(["verify", str(hex_json), "-o", str(rep)])
        assert rc == 0
        doc = json.loads(rep.read_text())
        assert doc["verdict"] is True
        assert doc["n"] == 36
        assert doc["density"] == pytest.approx(math.pi / (2 * SQRT3), abs=1e-9)
        assert doc["l_triangles"]["count"] == 72
        ids = [c["id"] for c in doc["checks"]]
        assert "empty_circle" in ids and "determinant_bound" in ids

    def test_hexm1_exit_1(self, hexm1_json, tmp_path):
        rep = tmp_path / "r.json"
        rc = main(["verify", str(hexm1_json), "-o", str(rep)])
        assert rc == 1
        doc = json.loads(rep.read_text())
        assert doc["saturated"] is False
        assert doc["saturation_witness"]["radius"] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"domain": {"kind": "torus", "width": 10, "height": 10}, "centers": [1, 2]}',
            '{"domain": {"kind": "torus", "width": 10, "height": 10}, "centers": [[1]]}',
            '{"domain": {"kind": "torus", "width": null, "height": 10}, "centers": []}',
        ],
        ids=["not-json", "scalar-row", "short-row", "null-width"],
    )
    def test_malformed_exit_2(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["verify", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["verify", "/nonexistent/file.json"]) == 2

    def test_invalid_packing_exit_2(self, tmp_path):
        bad = tmp_path / "overlap.json"
        bad.write_text(
            '{"radius": 1.0, "domain": {"kind": "torus", "width": 10, "height": 10},'
            ' "centers": [[0, 0], [1, 0]]}'
        )
        assert main(["verify", str(bad)]) == 2

    def test_check_subset(self, hex_json, tmp_path):
        rep = tmp_path / "r.json"
        rc = main(["verify", str(hex_json), "--checks", "saturation,tiling", "-o", str(rep)])
        assert rc == 0
        doc = json.loads(rep.read_text())
        assert [c["id"] for c in doc["checks"]] == ["saturation", "tiling"]

    def test_unknown_check_exit_2(self, hex_json):
        assert main(["verify", str(hex_json), "--checks", "bogus"]) == 2

    def test_tolerances_echoed(self, hex_json, tmp_path):
        rep = tmp_path / "r.json"
        main(["verify", str(hex_json), "--eps-area", "1e-6", "-o", str(rep)])
        doc = json.loads(rep.read_text())
        assert doc["tolerances"]["eps_area"] == pytest.approx(1e-6)

    def test_stdout_report(self, hex_json, capsys):
        rc = main(["verify", str(hex_json)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is True


class TestCliSaturate:
    def test_inserts_one(self, hexm1_json, tmp_path, capsys):
        out = tmp_path / "fixed.json"
        rc = main(["saturate", str(hexm1_json), "-o", str(out)])
        assert rc == 0
        assert "inserted 1 center(s)" in capsys.readouterr().out
        assert main(["verify", str(out), "-o", str(tmp_path / "rv.json")]) == 0

    def test_already_saturated_inserts_zero(self, hex_json, tmp_path, capsys):
        out = tmp_path / "same.json"
        rc = main(["saturate", str(hex_json), "-o", str(out)])
        assert rc == 0
        assert "inserted 0 center(s)" in capsys.readouterr().out


class TestCliRender:
    def test_layers_rendered(self, hex_json, tmp_path):
        svg = tmp_path / "hex.svg"
        rc = main(["render", str(hex_json), "--layers", "circles,voronoi", "-o", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert text.count("<circle") == 36
        assert 'id="layer-voronoi"' in text

    def test_empty_layers_exit_2(self, hex_json, tmp_path):
        rc = main(["render", str(hex_json), "--layers", "", "-o", str(tmp_path / "x.svg")])
        assert rc == 2

    def test_unknown_layer_exit_2(self, hex_json, tmp_path):
        rc = main(["render", str(hex_json), "--layers", "bogus", "-o", str(tmp_path / "x.svg")])
        assert rc == 2

    def test_violations_from_report_file(self, hexm1_json, tmp_path):
        rep = tmp_path / "r.json"
        assert main(["verify", str(hexm1_json), "-o", str(rep)]) == 1
        svg = tmp_path / "v.svg"
        rc = main(["render", str(hexm1_json), "--layers", "circles,violations",
                   "--report", str(rep), "-o", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert 'id="layer-violations"' in text
        assert text.count("<circle") > 35

    def test_csv_input_with_domain_flags(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("3,3\n11,3\n3,11\n11,11\n7,7\n")
        svg = tmp_path / "pts.svg"
        rc = main(["render", str(csv), "--box", "14", "14", "--layers", "centers",
                   "-o", str(svg)])
        assert rc == 0

    def test_csv_without_domain_exit_2(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("3,3\n11,3\n")
        rc = main(["render", str(csv), "--layers", "centers", "-o", str(tmp_path / "x.svg")])
        assert rc == 2


class TestCliVerifyCsv:
    def test_unsaturated_box_exit_1(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("3,3\n11,3\n3,11\n11,11\n7,7\n")
        rc = main(["verify", str(csv), "--box", "14", "14", "-o", str(tmp_path / "r.json")])
        assert rc == 1  # a radius-2 circle still fits inside the analysis region


class TestCliAnalyze:
    def test_hex_pass_with_svg(self, hex_json, tmp_path):
        rep = tmp_path / "r.json"
        svg = tmp_path / "out.svg"
        rc = main(["analyze", str(hex_json), "-o", str(rep), "--svg", str(svg)])
        assert rc == 0
        assert json.loads(rep.read_text())["verdict"] is True
        assert svg.read_text().startswith("<?xml")

    def test_hexm1_fail_with_violations(self, hexm1_json, tmp_path):
        rep = tmp_path / "r.json"
        svg = tmp_path / "out.svg"
        rc = main(["analyze", str(hexm1_json), "-o", str(rep), "--svg", str(svg),
                   "--layers", "circles,violations"])
        assert rc == 1
        text = svg.read_text()
        assert 'id="layer-violations"' in text
        # at least one violation marker drawn
        assert text.count("<circle") > 36

    def test_determinism(self, hex_json, tmp_path):
        outs = []
        for name in ("a", "b"):
            rep = tmp_path / f"{name}.json"
            svg = tmp_path / f"{name}.svg"
            main(["analyze", str(hex_json), "-o", str(rep), "--svg", str(svg)])
            outs.append((rep.read_bytes(), svg.read_bytes()))
        assert outs[0] == outs[1]


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        out = tmp_path / "hex.json"
        proc = subprocess.run(
            [sys.executable, "-m", "thuelab.cli", "generate", "--kind", "hex",
             "--torus", "12", HEX_H, "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
