"""End-to-end tests of the command-line interface, run in process.

The stderr contract of a numerical failure is checked in a child
process, where numpy warnings reach stderr as they would for a user.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crown_harmonics.cli import main
from crown_harmonics.serialization import (
    dumps_grid_function,
    dumps_table,
    loads_grid_function,
    loads_table,
)
from crown_harmonics.sphere import GridFunction, SphereGrid
from crown_harmonics.testbed import BumpSpec, make_bump, random_table
from crown_harmonics.transform import TableProvider, analyze, extend, synthesize


@pytest.fixture
def bump_file(tmp_path):
    grid = SphereGrid(96, 24)
    bump = make_bump(BumpSpec(radius=0.8), grid)
    path = tmp_path / "bump.json"
    path.write_text(dumps_grid_function(bump))
    return path, bump


class TestAnalyze:
    def test_matches_library(self, tmp_path, bump_file):
        path, bump = bump_file
        out = tmp_path / "table.json"
        rc = main(["analyze", "--input", str(path), "--lmax", "6",
                   "--output", str(out)])
        assert rc == 0
        got = loads_table(out.read_text())
        expect = analyze(bump, 6)
        assert got.lmax == 6
        worst = max(
            abs(got.get(l, m) - expect.get(l, m))
            for l in range(7) for m in range(-6, 7)
        )
        assert worst == 0.0

    def test_stdout_default(self, capsys, bump_file):
        path, _ = bump_file
        rc = main(["analyze", "--input", str(path), "--lmax", "2"])
        assert rc == 0
        loads_table(capsys.readouterr().out)

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(["analyze", "--input", str(tmp_path / "nope.json"),
                   "--lmax", "2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"

    def test_grid_too_coarse_is_domain_error(self, tmp_path, capsys):
        grid = SphereGrid(8, 6)
        path = tmp_path / "f.json"
        path.write_text(dumps_grid_function(
            GridFunction(grid, np.ones((8, 6), dtype=complex))))
        rc = main(["analyze", "--input", str(path), "--lmax", "10"])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "domain"


class TestSynthesize:
    def test_round_trip_through_files(self, tmp_path):
        table = random_table(4, 2, seed=3)
        tpath = tmp_path / "table.json"
        tpath.write_text(dumps_table(table))
        out = tmp_path / "f.json"
        rc = main(["synthesize", "--input", str(tpath), "--grid", "24x12",
                   "--output", str(out)])
        assert rc == 0
        got = loads_grid_function(out.read_text())
        expect = synthesize(TableProvider(table), SphereGrid(24, 12), 4)
        assert np.max(np.abs(got.values - expect.values)) == 0.0

    def test_lmax_past_the_table_reads_zeros(self, tmp_path):
        # degrees past the table's lmax are zero, so the sum stops at its lmax
        table = random_table(4, 2, seed=3)
        tpath = tmp_path / "table.json"
        tpath.write_text(dumps_table(table))
        out = tmp_path / "f.json"
        rc = main(["synthesize", "--input", str(tpath), "--grid", "24x16",
                   "--lmax", "7", "--output", str(out)])
        assert rc == 0
        got = loads_grid_function(out.read_text())
        expect = synthesize(TableProvider(table), SphereGrid(24, 16), 4)
        assert np.max(np.abs(got.values - expect.values)) < 1e-14 * np.max(np.abs(expect.values))

    def test_duplicate_key_is_schema_error(self, tmp_path, capsys):
        tpath = tmp_path / "table.json"
        tpath.write_text('{"lmax": 1, "lmax": 2, "entries": []}')
        rc = main(["synthesize", "--input", str(tpath), "--grid", "12x8"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "schema"

    def test_bad_grid_shape_is_schema_error(self, tmp_path, capsys):
        tpath = tmp_path / "table.json"
        tpath.write_text(dumps_table(random_table(2, 1)))
        rc = main(["synthesize", "--input", str(tpath), "--grid", "24by12"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "schema"


class TestExtend:
    def test_matches_library(self, tmp_path, capsys, bump_file):
        path, bump = bump_file
        rc = main(["extend", "--input", str(path), "--ell", "1.5+0.5j",
                   "--m", "0"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        expect = extend(bump, 1.5 + 0.5j, 0)
        assert obj["re"] == expect.real and obj["im"] == expect.imag

    def test_comma_form_for_ell(self, tmp_path, capsys, bump_file):
        path, _ = bump_file
        rc = main(["extend", "--input", str(path), "--ell", "1.5,0.5",
                   "--m", "0"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ell"] == [1.5, 0.5]

    def test_full_support_is_domain_error(self, tmp_path, capsys):
        grid = SphereGrid(16, 8)
        path = tmp_path / "one.json"
        path.write_text(dumps_grid_function(
            GridFunction(grid, np.ones((16, 8), dtype=complex))))
        rc = main(["extend", "--input", str(path), "--ell", "2.0", "--m", "0"])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "domain"


    def test_overflow_is_a_numerical_error(self, tmp_path, capsys):
        # at ell = 10000i the kernel of the r = 0.8 bump overflows; the
        # value is reported as a numerical failure, not serialized as NaN
        path = tmp_path / "bump.json"
        path.write_text(dumps_grid_function(make_bump(BumpSpec(radius=0.8), SphereGrid(48, 8))))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["extend", "--input", str(path), "--ell", "0,10000", "--m", "0"])
        assert rc == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert "ell=0+10000j, m=0" in err["message"]


class TestPwReport:
    def test_report_and_csv(self, tmp_path, capsys, bump_file):
        path, _ = bump_file
        out = tmp_path / "report.json"
        csv = tmp_path / "line.csv"
        rc = main(["pw-report", "--input", str(path), "--radii", "0.4,0.9",
                   "--output", str(out), "--csv", str(csv),
                   "--calib", "n_samples=80", "--line-tmax", "30"])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["calibration"]["n_samples"] == 80
        assert obj["calibration"]["t_max"] == 30.0
        verdicts = {v["radius"]: v["passed"] for v in obj["verdicts"]}
        assert verdicts == {0.4: False, 0.9: True}
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "t,log_abs"
        assert len(lines) == 81
        stderr = capsys.readouterr().err
        assert "radius 0.4: fail" in stderr
        assert "radius 0.9: pass" in stderr

    def test_radius_outside_crown_is_domain_error(self, tmp_path, capsys,
                                                  bump_file):
        path, _ = bump_file
        rc = main(["pw-report", "--input", str(path), "--radii", "2.5"])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "domain"

    def test_bad_calibration_key_is_schema_error(self, tmp_path, capsys,
                                                 bump_file):
        path, _ = bump_file
        rc = main(["pw-report", "--input", str(path), "--radii", "0.5",
                   "--calib", "bogus=1"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "schema"


    @pytest.mark.parametrize("override", ["type_slack=inf", "decay_kmax=-1"])
    def test_out_of_range_calibration_is_schema_error(self, tmp_path, capsys,
                                                      bump_file, override):
        path, _ = bump_file
        rc = main(["pw-report", "--input", str(path), "--radii", "0.5",
                   "--calib", override])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "schema"


class TestNumericalFailureStderr:
    @pytest.mark.parametrize("args", [
        ["extend", "--ell", "0,10000", "--m", "0"],
        ["pw-report", "--radii", "0.5", "--line-tmax", "2000"],
    ])
    def test_kernel_overflow_prints_one_json_line(self, tmp_path, args):
        # the kernel of the r = 0.8 bump overflows; stderr carries the
        # error object alone, with no numpy RuntimeWarning before it
        path = tmp_path / "bump.json"
        path.write_text(dumps_grid_function(make_bump(BumpSpec(radius=0.8), SphereGrid(48, 8))))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "crown_harmonics", args[0], "--input", str(path), *args[1:]],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "numerical"


class TestStrictInput:
    def test_huge_integer_is_a_schema_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"n_theta": 1, "n_phi": 2, "values": [[1.0, 0.0], [%s, 0.0]]}'
                        % ("1" * 400))
        rc = main(["analyze", "--input", str(path), "--lmax", "0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema" and "values[1][0]" in err["message"]


class TestIntertwinerDump:
    def test_dump_shape_and_values(self, capsys):
        from crown_harmonics.intertwining import intertwiner_rational

        rc = main(["intertwiner-dump", "--m-max", "2"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["m_max"] == 2
        assert [b["m"] for b in obj["scalars"]] == [0, 1, 2]
        zonal = obj["scalars"][0]["samples"]
        assert all(
            abs(complex(row["re"], row["im"]) - 1.0) < 1e-12 for row in zonal
        )
        m1 = {row["t_re"]: complex(row["re"], row["im"])
              for row in obj["scalars"][1]["samples"]}
        assert -0.5 not in m1  # singular point skipped
        assert abs(m1[-1.5] - (-2.0)) < 1e-12

    def test_dump_skips_poles_and_prints_the_closed_form(self, capsys):
        from crown_harmonics.intertwining import intertwiner_rational

        assert main(["intertwiner-dump", "--m-max", "3"]) == 0
        blocks = json.loads(capsys.readouterr().out)["scalars"]
        m2 = {row["t_re"] for row in blocks[2]["samples"]}
        assert -0.5 not in m2 and -1.5 not in m2
        assert 0.5 in m2
        for block in blocks:
            for row in block["samples"]:
                assert row["t_im"] == 0
                assert complex(row["re"], row["im"]) == intertwiner_rational(block["m"], row["t_re"])

    def test_negative_m_max_is_schema_error(self, capsys):
        rc = main(["intertwiner-dump", "--m-max", "-2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "schema"


class TestVerify:
    def test_all_checks_pass(self, capsys):
        rc = main(["verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "13/13 checks passed" in out
        assert out.count("PASS") == 13


class TestHarness:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "1.0.0"
