import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pointvortex
import pointvortex.cli
from pointvortex.cli import main, write_diagnostics
from pointvortex.dynamics import integrate
from pointvortex.config import load_scenario, parse_scenario, resolve_scenario
from pointvortex.errors import ConfigError, StepRejectionError

BUNDLED = ("sphere_antipodal_pair", "torus_pair_translate", "torus_four_vortex")


# The directory holding the package this test run imported. Putting it first
# on the child's PYTHONPATH makes `python -m pointvortex` run the code under
# test from any cwd, even when the parent's PYTHONPATH is relative (`src`).
PACKAGE_ROOT = str(Path(pointvortex.__file__).resolve().parents[1])


def cli_env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(args, cwd=None, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "pointvortex", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(env_extra),
    )


def test_subprocess_imports_package_under_test(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import pointvortex; print(pointvortex.__file__)"],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(pointvortex.__file__).resolve()


class TestConfigParsing:
    def test_bundled_scenarios_resolve(self):
        for name in BUNDLED:
            cfg = resolve_scenario(name)
            assert cfg.name == name
            cfg.state()  # constructible

    def test_dump_round_trip(self):
        for name in BUNDLED:
            cfg = resolve_scenario(name)
            again = parse_scenario(json.loads(json.dumps(cfg.to_dict())))
            assert again == cfg

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no such config"):
            resolve_scenario("does_not_exist")

    def test_json_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"surface": {"kind": "sphere",}}')
        with pytest.raises(ConfigError, match="line 1"):
            load_scenario(bad)

    def test_field_errors_name_the_field(self):
        base = {
            "surface": {"kind": "sphere"},
            "vortices": [
                {"chart": 0, "coord": [0.5, 0.0], "strength": 1.0},
                {"chart": 0, "coord": [-0.5, 0.0], "strength": -1.0},
            ],
        }
        bad = json.loads(json.dumps(base))
        bad["vortices"][1]["strength"] = 1.0
        with pytest.raises(ConfigError, match="sum to zero"):
            parse_scenario(bad)
        bad = json.loads(json.dumps(base))
        bad["integrator"] = {"dt": -0.1}
        with pytest.raises(ConfigError, match="integrator.dt"):
            parse_scenario(bad)
        bad = json.loads(json.dumps(base))
        bad["surface"] = {"kind": "flat_torus"}
        with pytest.raises(ConfigError, match="surface.tau"):
            parse_scenario(bad)
        bad = json.loads(json.dumps(base))
        bad["vortices"][0].pop("coord")
        with pytest.raises(ConfigError, match=r"vortices\[0\]"):
            parse_scenario(bad)

    @pytest.mark.parametrize("path, value, field", [
        (("vortices", 0, "strength"), math.nan, r"vortices\[0\]\.strength"),
        (("base_circulations", "a", 0), math.nan, r"base_circulations\.a"),
        (("integrator", "dt"), math.inf, r"integrator\.dt"),
        (("surface", "tau", 0), math.nan, r"surface\.tau"),
        (("vortices", 1, "chart"), 1, r"vortices\[1\]\.chart"),
        (("surface", "tau"), [0.0, 300.0], r"surface\.tau"),
        (("surface", "tau"), [0.0, 1e-300], r"surface\.tau"),
        (("surface", "tau"), [0.0, 0.0], r"surface\.tau"),
    ], ids=["strength-nan", "a-nan", "dt-inf", "tau-nan", "torus-chart-1",
            "tau-tall", "tau-skinny", "tau-zero"])
    def test_non_finite_numbers_and_foreign_charts_rejected(self, tmp_path, path,
                                                             value, field):
        data = resolve_scenario("torus_pair_translate").to_dict()
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ConfigError, match=field):
            parse_scenario(data)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))  # NaN and Infinity, as Python's json reads them
        proc = run_cli(["run", str(cfg), "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert proc.returncode == 1
        assert "config error" in proc.stderr
        assert re.search(field, proc.stderr)
        assert "Traceback" not in proc.stderr


class TestRunCommand:
    def test_bundled_run_and_outputs(self, tmp_path):
        code = main(["run", "torus_pair_translate", "--out-dir", str(tmp_path)])
        assert code == 0
        csv = (tmp_path / "torus_pair_translate.csv").read_text().splitlines()
        assert csv[0] == (
            "t,z1_re,z1_im,chart1,z2_re,z2_im,chart2,H,a_1,b_1,min_sep"
        )
        assert len(csv) == 102  # header + t=0 + 100 records
        diags = (tmp_path / "torus_pair_translate.jsonl").read_text().splitlines()
        summary = json.loads(diags[-1])
        assert summary["status"] == "ok"
        assert summary["energy_drift"] < 1e-9

    def test_summary_carries_run_counters(self, tmp_path):
        # the CSV has no counter columns; the JSONL summary has the counts
        assert main(["run", "torus_pair_translate", "--out-dir", str(tmp_path)]) == 0
        summary = json.loads(
            (tmp_path / "torus_pair_translate.jsonl").read_text().splitlines()[-1])
        assert summary["accepted_steps"] == 1000
        assert summary["velocity_evaluations"] == 4000
        assert summary["step_rejections"] == 0
        header = (tmp_path / "torus_pair_translate.csv").read_text().splitlines()[0]
        assert "evaluations" not in header and "accepted" not in header

    def test_diagnostics_report_absolute_energy_drift(self, tmp_path):
        # beside the relative drift, whose 1e-300 floor makes it noise when
        # H = 0 (the second run: the same records shifted to H(0) = 0)
        recs = integrate(resolve_scenario("torus_four_vortex").state(), 1e-3, 40,
                         record_every=10)
        shifted = [replace(r, hamiltonian=r.hamiltonian - recs[0].hamiltonian) for r in recs]
        for records in (recs, shifted):
            path = tmp_path / "diag.jsonl"
            write_diagnostics(path, records, {}, "ok")
            *lines, summary = map(json.loads, path.read_text().splitlines())
            drifts = [abs(r.hamiltonian - records[0].hamiltonian) for r in records]
            assert [line["energy_drift_abs"] for line in lines] == drifts
            assert summary["energy_drift_abs"] == max(drifts)
            assert 0.0 < summary["energy_drift_abs"] < 1e-9
        assert summary["energy_drift"] > 1e200

    def test_sphere_header_has_no_circulation_columns(self, tmp_path):
        code = main(["run", "sphere_antipodal_pair", "--out-dir", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "sphere_antipodal_pair.csv").read_text().splitlines()[0]
        assert header == "t,z1_re,z1_im,chart1,z2_re,z2_im,chart2,H,min_sep"

    def test_sphere_pair_latitude_column_constant(self, tmp_path):
        assert main(["run", "sphere_antipodal_pair", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "sphere_antipodal_pair.csv").read_text().splitlines()[1:]
        radii = []
        for row in rows:
            cells = row.split(",")
            radii.append(abs(complex(float(cells[1]), float(cells[2]))))
        assert max(abs(r - radii[0]) for r in radii) < 1e-7

    def test_torus_pair_direction_column_constant(self, tmp_path):
        assert main(["run", "torus_pair_translate", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "torus_pair_translate.csv").read_text().splitlines()[1:]
        pts = [complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows]
        # uniform translation: successive displacements all point the same way
        from pointvortex.surfaces import reduce_centered

        steps = [reduce_centered(1j, b - a) for a, b in zip(pts, pts[1:])]
        dirs = [s / abs(s) for s in steps]
        assert max(abs(d - dirs[0]) for d in dirs) < 1e-8

    @pytest.mark.parametrize("name", BUNDLED)
    def test_csv_cells_are_plain_numbers(self, tmp_path, name):
        # every cell is a plain Python number repr: no numpy scalar leaks
        # (such as "np.float64(...)") into any column
        assert main(["run", name, "--out-dir", str(tmp_path)]) == 0
        header, *rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        columns = header.split(",")
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(columns)
            for column, cell in zip(columns, cells):
                assert "np." not in cell
                (int if column.startswith("chart") else float)(cell)

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "torus_four_vortex", "--out-dir", str(a)]) == 0
        assert main(["run", "torus_four_vortex", "--out-dir", str(b)]) == 0
        assert (a / "torus_four_vortex.csv").read_bytes() == (
            b / "torus_four_vortex.csv"
        ).read_bytes()

    def test_invalid_config_exits_one(self, tmp_path):
        cfg = tmp_path / "unbalanced.json"
        cfg.write_text(json.dumps({
            "surface": {"kind": "sphere"},
            "vortices": [
                {"chart": 0, "coord": [0.5, 0.0], "strength": 1.0},
                {"chart": 0, "coord": [-0.5, 0.0], "strength": 1.0},
            ],
        }))
        proc = run_cli(["run", str(cfg)], cwd=tmp_path)
        assert proc.returncode == 1
        assert "sum to zero" in proc.stderr

    def test_collision_exits_two(self, tmp_path):
        cfg = tmp_path / "collide.json"
        cfg.write_text(json.dumps({
            "name": "collide",
            "surface": {"kind": "flat_torus", "tau": [0.0, 1.0]},
            "vortices": [
                {"chart": 0, "coord": [0.21, 0.33], "strength": 1.0},
                {"chart": 0, "coord": [0.68, 0.41], "strength": -0.6},
                {"chart": 0, "coord": [0.45, 0.72], "strength": 0.8},
                {"chart": 0, "coord": [0.82, 0.15], "strength": -1.2},
            ],
            "base_circulations": {"a": [0.3], "b": [-0.2]},
            "integrator": {"method": "rk4", "dt": 0.005, "steps": 3000,
                           "record_every": 50},
            "collision_threshold": 0.25,
        }))
        proc = run_cli(["run", str(cfg), "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert proc.returncode == 2
        assert "collided" in proc.stderr
        diags = (tmp_path / "collide.jsonl").read_text().splitlines()
        assert json.loads(diags[-1])["status"] == "collision"
        # the partial trajectory is still written
        assert (tmp_path / "collide.csv").exists()

    def test_step_rejection_exits_three(self, tmp_path, monkeypatch, capsys):
        # the adaptive controller's stall cannot be reached from a config, so
        # integrate() is replaced by one that stalls after its first records
        real_integrate = pointvortex.cli.integrate

        def stalling(state, dt, steps, stats_out=None, **kwargs):
            stats_out["partial_records"] = real_integrate(state, dt, 2, **kwargs)
            stats_out["step_rejections"] = 61
            raise StepRejectionError("adaptive step rejected 61 times in a row")

        monkeypatch.setattr(pointvortex.cli, "integrate", stalling)
        code = main(["run", "torus_pair_translate", "--out-dir", str(tmp_path)])
        assert code == 3
        assert "rejected" in capsys.readouterr().err
        summary = json.loads(
            (tmp_path / "torus_pair_translate.jsonl").read_text().splitlines()[-1])
        assert summary["status"] == "step_rejected"
        assert summary["step_rejections"] == 61
        csv = (tmp_path / "torus_pair_translate.csv").read_text().splitlines()
        assert len(csv) == 1 + summary["records"] >= 2

    def test_removed_flags_are_rejected(self):
        # a usage error is a configuration error, never the collision code 2
        assert main(["verify", "--out-dir", "."]) == 1
        proc = run_cli(["run", "torus_pair_translate", "--seed", "1"])
        assert proc.returncode == 1
        assert "unrecognized arguments: --seed 1" in proc.stderr

    def test_dump_config_round_trips_through_cli(self, tmp_path):
        proc = run_cli(["run", "sphere_antipodal_pair", "--dump-config"])
        assert proc.returncode == 0
        reparsed = parse_scenario(json.loads(proc.stdout))
        assert reparsed == resolve_scenario("sphere_antipodal_pair")

    def test_parallel_jobs(self, tmp_path):
        code = main([
            "run", "sphere_antipodal_pair", "torus_pair_translate",
            "--out-dir", str(tmp_path), "--jobs", "2",
        ])
        assert code == 0
        assert (tmp_path / "sphere_antipodal_pair.csv").exists()
        assert (tmp_path / "torus_pair_translate.csv").exists()

    @pytest.mark.parametrize("jobs, message", [
        ("0", "must be at least 1"),
        ("-3", "must be at least 1"),
        ("abc", "expected an integer, got 'abc'"),
    ])
    def test_jobs_below_one_is_a_usage_error(self, jobs, message, capsys):
        assert main(["run", "torus_pair_translate", "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert f"--jobs: {message}" in err
        assert "_worker_count" not in err

    def test_pool_has_no_more_workers_than_configs(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:  # starts no process
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [0 for _ in items]

        monkeypatch.setattr(pointvortex.cli.multiprocessing, "Pool", RecordingPool)
        code = main(["run", "sphere_antipodal_pair", "torus_pair_translate",
                     "--out-dir", str(tmp_path), "--jobs", "8"])
        assert code == 0
        assert sizes == [2]

    def test_log_env_accepted(self, tmp_path):
        proc = run_cli(
            ["run", "torus_pair_translate", "--out-dir", str(tmp_path)],
            env_extra={"VORTEX_LOG": "info"},
        )
        assert proc.returncode == 0


class TestVerifyCommand:
    def test_single_scenario_prints_per_vortex_residuals(self, capsys):
        code = main(["verify", "torus_four_vortex"])
        out = capsys.readouterr().out
        assert code == 0
        for k in range(4):
            assert f"velocity[{k}]" in out

    def test_corrupted_tolerance_fails_but_reports(self, capsys):
        code = main([
            "verify", "--suite", "quick",
            "--override", "sphere_green_normalization=1e-15",
        ])
        out = capsys.readouterr().out
        assert code == 4
        assert "FAIL" in out
        assert "sphere_green_normalization" in out
        # the rest of the table is still printed
        assert "velocity_equivalence_torus" in out

    def test_bad_override_reports_config_error(self):
        assert main(["verify", "--override", "nonsense"]) == 1
