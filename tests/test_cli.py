import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from slitkit import cli, svgfig
from slitkit.errors import DomainError
from slitkit.prime import AnnulusModulus, truncation_error_bound
from slitkit.slitmap import SlitMapParams, f_eval
from slitkit.svgfig import _polylines, plot_map


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_examples_print_what_they_show(capsys):
    """Every `$ slitkit ...` line of the README's "Command line" block that
    shows output prints exactly that output; `...` elides the rest."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "slitkit"
            examples.append((argv[1:], []))
        else:
            examples[-1][1].append(line)
    examples = [(argv, shown) for argv, shown in examples if shown]
    assert len(examples) >= 5
    for argv, shown in examples:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        lines = out.splitlines()
        if shown[-1] == "...":
            shown = shown[:-1]
            lines = lines[:len(shown)]
        assert lines == shown, " ".join(argv)


class TestScalarCommands:
    def test_squeeze_prints_plain_value(self, capsys):
        code, out, _ = run_cli(capsys, ["squeeze", "--r", "0.25", "--z", "0.5,0"])
        assert code == 0
        assert out == "0.5\n"

    def test_squeeze_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["squeeze", "--r", "0.25", "--z", "0.5,0", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {"value": 0.5}

    def test_radii_recovers_modulus(self, capsys):
        code, out, _ = run_cli(capsys, ["radii", "--r", "0.25", "--z", "0.3,0.4"])
        assert code == 0
        assert abs(float(out) - 0.5) < 1e-12

    def test_map_value(self, capsys):
        code, out, _ = run_cli(
            capsys, ["map", "--r", "0.5", "--x", "0.75", "--z", "0.5,0"]
        )
        assert code == 0
        re_part, im_part = out.strip().split(",")
        assert abs(float(re_part) - (-0.75)) < 1e-9
        assert abs(float(im_part)) < 1e-12

    def test_prime_json_parses(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["prime", "--r", "0.5", "--z", "0.8,0.1", "--a", "0.9,-0.2",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"re", "im"}


class TestErrorPaths:
    def test_numerical_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["squeeze", "--r", "2.0", "--z", "0.5,0"])
        assert code == 1
        assert "r must lie" in err

    @pytest.mark.parametrize("command, message", [
        ("squeeze", "point must lie strictly inside the annulus"),
        ("radii", "point must lie in the closed annulus"),
    ], ids=["squeeze", "radii"])
    def test_nan_point_exits_one(self, capsys, command, message):
        code, out, err = run_cli(capsys, [command, "--r", "0.25", "--z", "nan,0"])
        assert code == 1
        assert out == ""
        assert message in err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["squeeze", "--r", "0.25"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["squeeze", "--r", "0.25", "--z", "0.5,0", "--trunc-tol", "1e-3"],
        ["radii", "--r", "0.25", "--z", "0.5,0", "--trunc-tol", "1e-3"],
        ["certify", "--r", "0.25", "--x0", "0.8", "--format", "json"],
        ["evidence", "--r", "0.25", "--x0", "0.8", "--format", "json"],
        ["plot", "--r", "0.25", "--x", "0.75", "--format", "json"],
    ], ids=["squeeze-trunc-tol", "radii-trunc-tol", "certify-format",
            "evidence-format", "plot-format"])
    def test_flag_the_subcommand_does_not_read_exits_one(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_malformed_complex_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["squeeze", "--r", "0.25", "--z", "banana"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("r, x, z", [
        ("0.99836", "0.9992", "0.9988,0.01"),
        ("0.9984", "0.9992", "0.9988,0.01"),
        ("0.99845", "0.9993", "0.9989,0.01"),
    ])
    def test_map_near_the_overflow_limit(self, capsys, r, x, z):
        # The default 1e-12 takes 218 to 231 head factors and 39 tail terms
        # here; every tolerance is met below r = 0.998497.
        code, out, _ = run_cli(capsys, ["map", "--r", r, "--x", x, "--z", z])
        assert code == 0
        w = complex(f_eval(SlitMapParams(AnnulusModulus(float(r)), float(x)), cli._complex_arg(z)))
        assert out == f"{w.real!r},{w.imag!r}\n"
        if r == "0.9984":  # the README and CI example
            assert out == "-0.005629393361219105,0.9994092353579539\n"

    def test_r_beyond_every_tolerance_exits_one(self, capsys):
        # From r = 0.998497 the normalisation of the head factors
        # overflows, whatever the tolerance.
        for tol in ("1e-12", "0.5"):
            code, out, err = run_cli(capsys, ["map", "--r", "0.999", "--x", "0.9995",
                                              "--z", "0.9992,0.01", "--trunc-tol", tol])
            assert code == 1
            assert out == ""
            assert err == ("slitkit: r = 0.999 overflows the normalisation prod "
                           "(1 - q^n)^-2 of its 357 head factors, for any trunc_tol\n")

    def test_map_near_r_one_meets_its_bound(self, capsys):
        # 21 head factors and 20 tail terms at r = 0.97, where the plain
        # product needs 454 factors for the default tolerance.
        mp = pytest.importorskip("mpmath")
        code, out, _ = run_cli(capsys, ["map", "--r", "0.97", "--x", "0.98", "--z", "0.975,0.01"])
        assert code == 0
        w = complex(*map(float, out.split(",")))
        m = AnnulusModulus(0.97)
        z = complex(0.975, 0.01)
        with mp.workdps(30):
            q, x, zm = mp.mpf(0.97) ** 2, mp.mpf(0.98), mp.mpc(z)
            ratio, qn = (zm - x) / (zm - 1 / x), q
            while qn > mp.mpf(10) ** -25:
                ratio *= ((1 - qn * zm / x) * (1 - qn * x / zm)
                          / ((1 - qn * zm * x) * (1 - qn / (zm * x))))
                qn *= q
            ref = -ratio / x
            err = float(abs(mp.mpc(w) - ref) / abs(ref))
        bound = (truncation_error_bound(m, abs(z), 0.98)
                 + truncation_error_bound(m, abs(z), 1 / 0.98))
        assert err <= bound + 1e-14

    def test_nan_tol_exits_one(self, capsys):
        code, out, err = run_cli(capsys, ["certify", "--r", "0.25", "--x0", "0.8", "--tol", "nan"])
        assert code == 1
        assert out == ""
        assert "tol must be positive and finite" in err


class TestDefaults:
    def test_truncation_flag_moves_map_output_slightly(self, capsys):
        argv = ["map", "--r", "0.5", "--x", "0.75", "--z", "0.6,0.2"]
        _, exact, _ = run_cli(capsys, argv)
        _, coarse, _ = run_cli(capsys, argv + ["--trunc-tol", "1e-4"])
        assert exact != coarse
        w_exact, w_coarse = (complex(*map(float, out.split(","))) for out in (exact, coarse))
        assert abs(w_exact - w_coarse) < 1e-3


class TestCertifyExitCodes:
    def test_failed_certificate_exits_two(self, capsys, monkeypatch, tmp_path,
                                          std_certificate):
        failing = dataclasses.replace(std_certificate, tol=1e9, passed=False)
        monkeypatch.setattr(cli, "certify_degenerate", lambda cfg: failing)
        out_path = tmp_path / "cert.json"
        code, _, _ = run_cli(
            capsys,
            ["certify", "--r", "0.25", "--x0", "0.8", "--out", str(out_path)],
        )
        assert code == 2
        assert json.loads(out_path.read_text())["passed"] is False

    def test_evidence_refuses_failed_certificate(self, capsys, monkeypatch,
                                                 std_certificate):
        failing = dataclasses.replace(std_certificate, tol=1e9, passed=False)
        monkeypatch.setattr(cli, "certify_degenerate", lambda cfg: failing)
        code, out, err = run_cli(capsys, ["evidence", "--r", "0.25", "--x0", "0.8"])
        assert code == 2
        assert out == ""
        assert "failed" in err


class TestPlot:
    def test_document_structure(self, capsys, tmp_path):
        out_path = tmp_path / "fx.svg"
        code, _, _ = run_cli(
            capsys, ["plot", "--r", "0.5", "--x", "0.75", "--out", str(out_path)]
        )
        assert code == 0
        doc = out_path.read_text()
        assert doc.startswith("<svg ")
        assert doc.count('class="grid-image"') == 20
        assert 'class="slit"' in doc

    def test_curves_densely_sampled_with_fixed_precision(self):
        doc = plot_map(0.5, 0.75, grid=(2, 2))
        assert doc.count('class="grid-image"') == 4
        for match in re.finditer(r'points="([^"]+)"', doc):
            pairs = match.group(1).split()
            assert len(pairs) >= 256
            assert all(re.fullmatch(r"-?\d+\.\d\d,-?\d+\.\d\d", p) for p in pairs)

    def test_polyline_matches_per_point_formatting(self):
        rng = np.random.default_rng(51)
        pts = rng.uniform(-1.2, 1.2, 500) + 1j * rng.uniform(-1.2, 1.2, 500)
        # these land within 0.005 of 0 on the canvas and print as -0.00 or 0.00
        pts[:4] = (-0.004 + 0.003j, 0.004 - 0.001j, -1e-9 + 1e-9j, 1e-9 - 1e-9j)
        cx, cy, scale = 0.0, 0.0, 1.0
        xs = cx + scale * np.real(pts)
        ys = cy - scale * np.imag(pts)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        line = _polylines([(pts, cx, "#123456", 1.5, "c")], cy, scale)[0]
        assert "-0.00," in coords and ",-0.00" in coords
        assert line == (
            f'<polyline class="c" fill="none" stroke="#123456" '
            f'stroke-width="1.5" points="{coords}"/>'
        )
        assert 'points=""' in _polylines([(pts[:0], cx, "#123456", 1.5, "c")], cy, scale)[0]

    def test_grid_images_come_from_one_f_eval(self, monkeypatch):
        calls = []

        def counting(p, z):
            calls.append(np.size(z))
            return f_eval(p, z)

        monkeypatch.setattr(svgfig, "f_eval", counting)
        r, x = 0.5, 0.75
        doc = plot_map(r, x, grid=(3, 4))
        assert len(calls) == 1
        # each image polyline is what a separate f_eval of its curve draws
        p = SlitMapParams(AnnulusModulus(r), x)
        ts = np.linspace(r, 1.0, svgfig.CURVE_SAMPLES)
        curves = [svgfig._circle_pts(float(rho)) for rho in np.linspace(r, 1.0, 3)]
        curves += [ts * np.exp(1j * th) for th in np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)]
        half = svgfig.PANEL_SIZE / 2.0
        cx = svgfig.PANEL_SIZE + svgfig.PANEL_GAP + half
        lines = [line for line in doc.splitlines() if 'class="grid-image"' in line]
        assert lines == [
            _polylines([(f_eval(p, c), cx, "#7799bb", 1.0, "grid-image")], half,
                       half - svgfig.MARGIN)[0]
            for c in curves
        ]

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, ["plot", "--r", "0.5", "--x", "0.75", "--out", str(a)])
        run_cli(capsys, ["plot", "--r", "0.5", "--x", "0.75", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_grid_rejected_below_two(self):
        with pytest.raises(DomainError):
            plot_map(0.5, 0.75, grid=(1, 5))
