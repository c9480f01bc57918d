import json
import subprocess
import sys
import types

import pytest

from openroots.cli import parse_poly, run


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "openroots.cli", *args],
        capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


class TestImports:
    def test_no_scipy_at_runtime(self):
        code = ("import sys, openroots, openroots.cli; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_dataclasses_or_numpy(self):
        code = ("import sys, openroots, openroots.cli; "
                "print(sorted(m for m in ('dataclasses', 'numpy') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_numpy_on_descent_path(self):
        code = ("import sys, openroots; "
                "openroots.all_roots(openroots.Poly([-1, 0, 0, 1])); "
                "import openroots.cli; "
                "code = openroots.cli.run(['--poly', '1 0 -2', "
                "'--method', 'descent']); "
                "print(code, 'numpy' in sys.modules, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["roots"]) == 2
        assert proc.stderr.split() == ["0", "False"]

    def test_public_names_resolve_to_their_modules(self):
        import openroots

        for name in openroots.__all__:
            obj = getattr(openroots, name)
            if isinstance(obj, types.ModuleType):
                assert obj is sys.modules[f"openroots.{name}"]
                continue
            assert obj.__module__.startswith("openroots.")
            assert getattr(sys.modules[obj.__module__], name) is obj

    def test_star_import(self):
        namespace = {}
        exec("from openroots import *", namespace)
        import openroots

        for name in openroots.__all__:
            assert namespace[name] is getattr(openroots, name)


class TestParsePoly:
    def test_descending_reals(self):
        p = parse_poly("1 0 0 -1")
        assert p.coeffs == (-1 + 0j, 0j, 0j, 1 + 0j)

    def test_complex_pairs(self):
        p = parse_poly("1,0 0,1")
        assert p.coeffs == (1j, 1 + 0j)

    def test_mixed(self):
        p = parse_poly("1 0,-2 3")
        assert p.coeffs == (3 + 0j, -2j, 1 + 0j)


class TestDescentMethod:
    def test_cubic_report(self):
        code, out, _ = run_cli(["--poly", "1 0 0 -1", "--method", "descent"])
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "descent"
        assert report["degree"] == 3
        assert len(report["roots"]) == 3
        for entry in report["roots"]:
            assert entry["residual"] <= 1e-9

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(["--poly", "1 -5", "--out", str(target)])
        assert code == 0 and out == ""
        report = json.loads(target.read_text())
        assert abs(report["roots"][0]["re"] - 5.0) <= 1e-9

    def test_poly_file(self, tmp_path):
        src = tmp_path / "coeffs.txt"
        src.write_text("1 0\n0 -1\n")
        code, out, _ = run_cli(["--poly-file", str(src)])
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 3
        assert len(report["roots"]) == 3


class TestGaussMethod:
    def test_report_and_svg(self, tmp_path):
        svg_path = tmp_path / "diagram.svg"
        code, out, _ = run_cli(["--poly", "1 0 1", "--method", "gauss",
                                "--svg", str(svg_path)])
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 2
        (root,) = report["roots"]
        assert min(abs(complex(root["re"], root["im"]) - 1j),
                   abs(complex(root["re"], root["im"]) + 1j)) <= 1e-8
        # which bound the residual meets, and the floor at the root
        assert root["stop"] == "tol" and root["residual"] <= 1e-9
        assert 0.0 < root["floor"] < 1e-14
        assert report["R"] > 0
        assert len(report["eps"]) == 2
        svg = svg_path.read_text()
        assert svg.count('class="node-P"') == 4
        assert svg.count('class="node-Q"') == 4
        assert svg.count('class="arc-g"') == 2
        assert svg.count('class="arc-h"') == 2
        assert svg.count('class="crossing"') == 1

    def test_verbose_stage_timings(self):
        code, out, _ = run_cli(["--poly", "1 0 1", "--method", "gauss",
                                "--verbose"])
        assert code == 0
        report = json.loads(out)
        assert "stages" in report and "trace" in report["stages"]

    def test_svg_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(["--poly", "1 0 0 -1", "--method", "gauss", "--svg", str(a)])
        run_cli(["--poly", "1 0 0 -1", "--method", "gauss", "--svg", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_identity_svg_diameters(self, tmp_path):
        svg_path = tmp_path / "z.svg"
        code, _, _ = run_cli(["--poly", "1 0", "--method", "gauss",
                              "--svg", str(svg_path)])
        assert code == 0
        svg = svg_path.read_text()
        assert svg.count('class="node-P"') == 2
        assert svg.count('class="node-Q"') == 2
        assert svg.count("polyline") == 2
        assert svg.count('class="crossing"') == 1


class TestExitCodes:
    def test_degree_zero_usage_error(self):
        code, out, err = run_cli(["--poly", "5"])
        assert code == 1
        assert "degree >= 1 required" in err

    def test_svg_needs_gauss(self, tmp_path):
        code, _, err = run_cli(["--poly", "1 0 1", "--svg",
                                str(tmp_path / "x.svg")])
        assert code == 1
        assert "gauss" in err

    def test_bad_token(self):
        code, _, err = run_cli(["--poly", "1 spam"])
        assert code == 1

    def test_missing_poly(self):
        code, _, _ = run_cli(["--method", "descent"])
        assert code == 1

    def test_in_process_runner(self, capsys):
        assert run(["--poly", "5"]) == 1
        assert "degree >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "-1", "nan", "0"])
    def test_tol_must_be_finite_and_positive(self, tol, capsys):
        assert run(["--poly", "1 0 -2", "--method", "gauss",
                    f"--tol={tol}"]) == 1
        err = capsys.readouterr().err
        assert "--tol must be a finite number above 0" in err

    @pytest.mark.parametrize("text", ["1 nan", "1 inf", "1 0,-inf", "nan,0 1"])
    def test_non_finite_coefficient(self, text, capsys):
        assert run(["--poly", text, "--method", "gauss"]) == 1
        assert "coefficients must be finite" in capsys.readouterr().err
        with pytest.raises(ValueError, match="finite"):
            parse_poly(text)

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_unwritable_path(self, flag, tmp_path, capsys):
        path = str(tmp_path / "missing" / "x")
        assert run(["--poly", "1 0 1", "--method", "gauss", flag, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"openroots: cannot write {path}: ")


class TestDeterminism:
    def test_identical_reports(self):
        _, out1, _ = run_cli(["--poly", "1 0 0 0 -1", "--method", "gauss"])
        _, out2, _ = run_cli(["--poly", "1 0 0 0 -1", "--method", "gauss"])
        assert out1 == out2

    def test_descent_deterministic(self):
        _, out1, _ = run_cli(["--poly", "1 2 3 4"])
        _, out2, _ = run_cli(["--poly", "1 2 3 4"])
        assert out1 == out2
