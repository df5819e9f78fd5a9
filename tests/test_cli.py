"""CLI surface tests: artifacts, determinism, exit codes."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pseudoht import cli
from pseudoht.cli import main


def run_cli(args, tmp_path=None, out_name=None):
    out = str(tmp_path / out_name) if tmp_path else "-"
    return main(["--output", out] + args), out


class TestCatalog:
    def test_catalog_lists_signatures(self, tmp_path):
        code, out = run_cli(["catalog"], tmp_path, "cat.json")
        assert code == 0
        data = json.load(open(out))
        assert len(data["catalog"]) == 8
        assert all(e["passed"] for e in data["catalog"])
        assert all(e["max_residual"] <= 1e-12 for e in data["catalog"])

    def test_validate_known_signature(self, tmp_path):
        code, out = run_cli(["validate", "--sig", "1,1,2"], tmp_path, "val.json")
        assert code == 0
        assert json.load(open(out))["passed"]

    def test_validate_unknown_signature_usage_error(self, tmp_path):
        code, _ = run_cli(["validate", "--sig", "9,9,9"], tmp_path, "x.json")
        assert code == 1


class TestTables:
    def test_kernel_eval_csv(self, tmp_path):
        code, out = run_cli(["kernel", "eval", "--n", "2", "--s", "1",
                             "--count", "5"], tmp_path, "k.csv")
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["xi1", "xi2", "xi3", "xi4", "theta1", "re_q", "im_q"]
        assert len(rows) == 6

    def test_kernel_eval_deterministic(self, tmp_path):
        _, a = run_cli(["kernel", "eval", "--count", "4", "--seed", "7"],
                       tmp_path, "a.csv")
        _, b = run_cli(["kernel", "eval", "--count", "4", "--seed", "7"],
                       tmp_path, "b.csv")
        assert open(a).read() == open(b).read()

    def test_kernel_cone_csv(self, tmp_path):
        code, out = run_cli(["kernel", "cone", "--n", "2", "--s", "1",
                             "--grid", "5"], tmp_path, "cone.csv")
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["x1", "z1", "re_K", "im_K"]
        assert len(rows) > 1

    def test_specfun_table(self, tmp_path):
        code, out = run_cli(["specfun", "table", "--nu", "0.5", "--count", "8"],
                            tmp_path, "sf.csv")
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["v", "J", "Y", "H"]
        v, J, Y, H = (float(x) for x in rows[1])
        assert J == pytest.approx(np.sqrt(2 / (np.pi * v)) * np.sin(v), abs=1e-10)


class TestPairCommand:
    def test_pair_json_roundtrip(self, tmp_path):
        from pseudoht.gausspoly import GaussPoly

        fn = tmp_path / "phi.json"
        fn.write_text(GaussPoly.iso_gaussian(5).to_json())
        code, out = run_cli(["pair", "--testfn", str(fn), "--n", "2", "--s", "1",
                             "--selector", "heaviside"], tmp_path, "pair.json")
        assert code == 0
        data = json.load(open(out))
        assert "value" in data and "est_error" in data and "budget" in data

    def test_pair_dimension_mismatch(self, tmp_path):
        from pseudoht.gausspoly import GaussPoly

        fn = tmp_path / "phi.json"
        fn.write_text(GaussPoly.iso_gaussian(3).to_json())
        code, _ = run_cli(["pair", "--testfn", str(fn), "--n", "2", "--s", "2"],
                          tmp_path, "pair.json")
        assert code == 1

    def test_pair_unsupported_center_dim_is_usage_error(self, tmp_path):
        """s = 4 has no sphere quadrature: bad input (1), not an internal fault."""
        from pseudoht.gausspoly import GaussPoly

        fn = tmp_path / "phi.json"
        fn.write_text(GaussPoly.iso_gaussian(12).to_json())
        code, _ = run_cli(["pair", "--testfn", str(fn), "--n", "4", "--s", "4"],
                          tmp_path, "pair.json")
        assert code == 1


    @pytest.mark.parametrize("row", [[1, 0, 2, 1.0, 0.0], [0, -1, 0, 0, 0, 1.0, 0.0],
                                     [0, 0, 0, 0, 0, 1, 1.0, 0.0], [1.5, 0, 0, 0, 0, 1.0, 0.0]])
    def test_pair_malformed_monomial_is_usage_error(self, tmp_path, row):
        """3 exponents, a negative exponent, 6 exponents or a fractional exponent
        in a 5-dim test function."""
        from pseudoht.gausspoly import GaussPoly

        data = GaussPoly.iso_gaussian(5).to_json_dict()
        data["poly"].append(row)
        fn = tmp_path / "phi.json"
        fn.write_text(json.dumps(data))
        code, _ = run_cli(["pair", "--testfn", str(fn), "--n", "2", "--s", "1"],
                          tmp_path, "pair.json")
        assert code == 1


class TestVerify:
    def test_verify_nonexistence(self, tmp_path):
        code, out = run_cli(["verify-nonexistence", "--sig", "1,1",
                             "--eta0", "2,1", "--delta", "0.5",
                             "--flow-nodes", "48"], tmp_path, "ne.json")
        assert code == 0
        data = json.load(open(out))
        assert data["passed"]
        assert data["relative_residual"] <= 1e-8
        assert data["integral"] > 0
        assert abs(data["phi_at_0"] - 1.0) < 1e-9

    def test_verify_nonexistence_rejects_r0(self, tmp_path):
        code, _ = run_cli(["verify-nonexistence", "--sig", "0,1,1"],
                          tmp_path, "x.json")
        assert code == 1

    @pytest.mark.slow
    def test_verify_fs(self, tmp_path):
        code, out = run_cli(["verify-fs", "--n", "2", "--s", "1", "--tol", "1e-2"],
                            tmp_path, "fs.json")
        assert code == 0
        assert json.load(open(out))["passed"]

    @pytest.mark.slow
    def test_report_quick(self, tmp_path):
        """Two runs write byte-identical checks; the wall times sit apart, one
        per check."""
        runs = []
        for name in ("a.json", "b.json"):
            code, out = run_cli(["report", "--quick"], tmp_path, name)
            data = json.load(open(out))
            assert code == (0 if data["all_passed"] else 2)
            runs.append(data)
        a, b = runs
        assert len(a["checks"]) == 10
        assert json.dumps(a["checks"], sort_keys=True) == json.dumps(b["checks"], sort_keys=True)
        assert a["telemetry"].keys() == a["checks"].keys()
        assert all(list(t) == ["runtime_s"] and t["runtime_s"] >= 0
                   for t in a["telemetry"].values())

    def test_byte_reproducible_json(self, tmp_path):
        _, a = run_cli(["verify-nonexistence", "--flow-nodes", "16"], tmp_path, "a.json")
        _, b = run_cli(["verify-nonexistence", "--flow-nodes", "16"], tmp_path, "b.json")
        assert open(a).read() == open(b).read()


def run_module(args, timeout=60):
    """The module entry point, in a child process that sees the source tree
    (conftest's sys.path entry does not reach it)."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pseudoht.cli"] + args, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


def test_entry_point_runs():
    proc = run_module(["catalog"])
    assert proc.returncode == 0
    assert '"catalog"' in proc.stdout


class TestExitCodes:
    """argparse's usage errors exit 1 as the library's do, not argparse's 2,
    which is a failed check; --help exits 0."""

    @pytest.mark.parametrize("args", [["validate"], ["bogus"], ["kernel", "eval", "--n", "x"]],
                             ids=["missing_option", "unknown_command", "not_an_integer"])
    def test_usage_errors_exit_1(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == cli.EXIT_USAGE == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [[], ["validate"]], ids=["top", "subcommand"])
    def test_help_exits_0(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--help"])
        assert exc.value.code == cli.EXIT_OK == 0
        assert "usage:" in capsys.readouterr().out

    def test_failed_check_exits_2(self, tmp_path):
        code, out = run_cli(["verify-nonexistence", "--flow-nodes", "16", "--tol", "0"],
                            tmp_path, "x.json")
        assert code == cli.EXIT_CHECK_FAILED == 2
        assert not json.load(open(out))["passed"]

    @pytest.mark.parametrize("args", [["eval", "--s", "0"], ["cone", "--s", "0"],
                                      ["eval", "--n", "0"], ["cone", "--n", "-1"]])
    def test_kernel_rejects_n_and_s_below_1(self, args):
        """At parse time: an empty theta was redrawn forever (eval --s 0)."""
        proc = run_module(["kernel"] + args, timeout=30)
        assert proc.returncode == cli.EXIT_USAGE
        assert "must be an integer >= 1" in proc.stderr and not proc.stdout


def test_internal_fault_exit_code(monkeypatch, capsys):
    """An exception that is not bad input is an internal fault, not exit 1."""
    def broken(args):
        raise TypeError("broken command")

    monkeypatch.setitem(cli._DISPATCH, "catalog", broken)
    assert main(["catalog"]) == cli.EXIT_INTERNAL == 3
    assert "broken command" in capsys.readouterr().err
