import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pointvortex
import pointvortex.cli
from pointvortex.cli import main, write_diagnostics, write_trajectory
from pointvortex.dynamics import VortexState, integrate
from pointvortex.config import load_scenario, parse_scenario, resolve_scenario
from pointvortex.errors import ConfigError, StepRejectionError
from pointvortex.surfaces import Surface
from pointvortex.verify import random_state, verify_scenario

BUNDLED = ("sphere_antipodal_pair", "sphere_crossing_pair", "sphere_latitude_ring",
           "torus_pair_translate", "torus_four_vortex")


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

    @pytest.mark.parametrize("surface, vortices", [
        ({"kind": "flat_torus", "tau": [0.3, 1.2]},
         [(0, [1.7, -0.4], 1.0), (0, [-2.25, 3.1], -0.5), (0, [0.4, 0.5], -0.5)]),
        ({"kind": "sphere"}, [(0, [2.0, 1.5], 1.0), (1, [-1.3, 0.2], -2.0),
                              (0, [0.1, -0.3], 1.0)]),
    ], ids=["torus-outside-cell", "sphere-beyond-unit-disc"])
    def test_to_dict_gives_positions_as_given(self, surface, vortices):
        cfg = parse_scenario({
            "surface": surface,
            "vortices": [{"chart": c, "coord": z, "strength": g} for c, z, g in vortices],
        })
        given = [{"chart": c, "coord": z, "strength": g} for c, z, g in vortices]
        assert cfg.to_dict()["vortices"] == given
        # the state is canonical, so it differs from the input
        assert [p.coord for p in cfg.state().positions] != [complex(*z) for _, z, _ in vortices]
        out = cfg.to_dict()
        out["vortices"][0]["coord"][0] = 99.0
        out["surface"]["kind"] = "other"
        out["tolerances"]["velocity_equivalence"] = 1.0
        again = cfg.to_dict()
        assert again["vortices"] == given
        assert again["surface"] == surface and again["tolerances"] == {}

    @pytest.mark.parametrize("name", BUNDLED)
    def test_a_config_is_a_hashable_value(self, name):
        # two parses of one scenario are equal, hash equal, and key one entry
        first, second = resolve_scenario(name), resolve_scenario(name)
        assert first == second and hash(first) == hash(second)
        assert {first: name}[second] == name

    def test_a_scenario_builds_its_state_once(self, tmp_path, monkeypatch):
        # resolve_scenario parses; run_one and verify_scenario reuse its state
        built = []
        real = VortexState.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(VortexState, "__post_init__", counting)
        cfg = resolve_scenario("torus_pair_translate")
        with contextlib.redirect_stdout(io.StringIO()):
            assert pointvortex.cli.run_one(cfg, tmp_path) == 0
        assert all(r.passed for r in verify_scenario(cfg))
        assert len(built) == 1

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
        bad["surface"] = {"kind": "flat_torus", "tau": [0.0, 1.0]}
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


    @pytest.mark.parametrize("path, value, field", [
        (("integrator", "steps"), True, r"integrator\.steps"),
        (("integrator", "record_every"), True, r"integrator\.record_every"),
        (("vortices", 0, "chart"), False, r"vortices\[0\]\.chart"),
        (("tolerances", "velocity_equivalence"), math.nan, r"tolerances\.velocity_equivalence"),
        (("tolerances", "velocity_equivalence"), -1, r"tolerances\.velocity_equivalence"),
        (("tolerances", "velocity_equivalence"), 0.0, r"tolerances\.velocity_equivalence"),
        (("tolerances", "typo"), 1e-6, r"tolerances\.typo"),
    ], ids=["steps-true", "record-every-true", "chart-false", "tolerance-nan",
            "tolerance-negative", "tolerance-zero", "tolerance-unknown"])
    def test_booleans_and_bad_tolerances_rejected(self, tmp_path, path, value, field):
        # JSON true/false are not integers, and the one tolerance a config
        # carries is a finite, positive velocity_equivalence
        data = resolve_scenario("torus_pair_translate").to_dict()
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ConfigError, match=field):
            parse_scenario(data)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        for command in ("run", "verify"):
            proc = run_cli([command, str(cfg)], cwd=tmp_path)
            assert proc.returncode == 1
            assert re.search(field, proc.stderr)
            assert "Traceback" not in proc.stderr

    def test_positive_velocity_tolerance_accepted(self):
        data = resolve_scenario("torus_pair_translate").to_dict()
        data["tolerances"] = {"velocity_equivalence": 1e-3}
        assert parse_scenario(data).velocity_tolerance == 1e-3

    @pytest.mark.parametrize("path, value, field", [
        (("colision_threshold",), 1e-2, "colision_threshold"),
        (("surface", "taus"), [0.0, 1.0], r"surface\.taus"),
        (("vortices", 1, "chrt"), 1, r"vortices\[1\]\.chrt"),
        (("base_circulations", "c"), [0.1], r"base_circulations\.c"),
        (("integrator", "record_evry"), 5, r"integrator\.record_evry"),
        (("output", "trajectroy"), "x.csv", r"output\.trajectroy"),
        (("tolerances", "velocity_equivalance"), 1e-3, r"tolerances\.velocity_equivalance"),
    ], ids=["top-level", "surface", "vortex", "base-circulations", "integrator", "output",
            "tolerances"])
    def test_unknown_fields_rejected(self, tmp_path, path, value, field):
        # a misspelled field is refused by its path, not dropped for its default
        data = resolve_scenario("torus_pair_translate").to_dict()
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ConfigError, match=f"^{field}: unknown field$"):
            parse_scenario(data)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        for command in ("run", "verify"):
            proc = run_cli([command, str(cfg)], cwd=tmp_path)
            assert proc.returncode == 1
            assert re.search(f"{field}: unknown field", proc.stderr)
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", ["torus_pair_translate", "sphere_antipodal_pair"])
    def test_threshold_below_the_kernel_resolution_rejected(self, tmp_path, name):
        # two vortices 5e-16 apart under a 1e-16 threshold would reach the Green
        # kernel's coincidence check (1e-12) before the collision check
        data = resolve_scenario(name).to_dict()
        data["collision_threshold"] = 1e-16
        first = data["vortices"][0]
        data["vortices"][1].update(chart=first["chart"],
                                   coord=[first["coord"][0] + 5e-16, first["coord"][1]])
        with pytest.raises(ConfigError, match="^collision_threshold: must be finite"):
            parse_scenario(data)
        cfg = tmp_path / "close.json"
        cfg.write_text(json.dumps(data))
        for command in ("run", "verify"):
            proc = run_cli([command, str(cfg)], cwd=tmp_path)
            assert proc.returncode == 1
            assert "collision_threshold" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_tau_on_the_sphere_rejected(self, tmp_path):
        # a torus field on a sphere config is refused by its path, not dropped
        data = resolve_scenario("sphere_antipodal_pair").to_dict()
        data["surface"]["tau"] = [0.5, 0.1]
        with pytest.raises(ConfigError, match=r"^surface\.tau: not a field of the sphere$"):
            parse_scenario(data)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        for command in ("run", "verify"):
            proc = run_cli([command, str(cfg)], cwd=tmp_path)
            assert proc.returncode == 1
            assert "surface.tau: not a field of the sphere" in proc.stderr
            assert "Traceback" not in proc.stderr


class TestRunCommand:
    def test_two_outputs_on_one_path_exit_one(self, tmp_path, capsys):
        data = resolve_scenario("sphere_antipodal_pair").to_dict()
        data["output"] = {"trajectory": "same.txt", "diagnostics": "same.txt"}
        (tmp_path / "same.json").write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["run", str(tmp_path / "same.json"), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str((out / "same.txt").resolve()) in err and "sphere_antipodal_pair" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ("1", "2"))
    def test_one_scenario_twice_exits_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        code = main(["run", "torus_pair_translate", "torus_pair_translate",
                     "--jobs", jobs, "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "torus_pair_translate.csv" in err
        assert not out.exists()

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
        header, *rows = (tmp_path / "torus_pair_translate.csv").read_text().splitlines()
        assert "evaluations" not in header and "accepted" not in header
        # the nearest approach over every accepted step, at or below every record's
        nearest = summary["nearest_approach"]
        assert set(nearest) == {"t", "pair", "separation"} and nearest["pair"] == [0, 1]
        assert 0.0 <= nearest["t"] <= 10.0 + 1e-9   # 1000 steps of 0.01
        assert 0.0 < nearest["separation"] <= min(float(r.split(",")[-1]) for r in rows)

    def test_summary_counts_chart_handovers(self, tmp_path, rng):
        # a sphere run recorded at every step: the summary's chart_handovers
        # equals the chart changes between consecutive CSV rows
        st = random_state(Surface.sphere(), 4, rng, min_sep=0.5)
        data = {
            "name": "crossing",
            "surface": {"kind": "sphere"},
            "vortices": [{"chart": p.chart_id, "coord": [p.coord.real, p.coord.imag],
                          "strength": g} for p, g in zip(st.positions, st.strengths)],
            "integrator": {"dt": 5e-3, "steps": 2000, "record_every": 1},
        }
        cfg = tmp_path / "crossing.json"
        cfg.write_text(json.dumps(data))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "crossing.csv").read_text().splitlines()
        cols = [i for i, name in enumerate(header.split(",")) if name.startswith("chart")]
        charts = [[row.split(",")[i] for i in cols] for row in rows]
        changes = sum(a != b for r0, r1 in zip(charts, charts[1:]) for a, b in zip(r0, r1))
        summary = json.loads((tmp_path / "crossing.jsonl").read_text().splitlines()[-1])
        assert changes > 0, "fixture must exercise the handover"
        assert summary["chart_handovers"] == changes
        assert "handover" not in header

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

    @pytest.mark.parametrize("name", BUNDLED + ("numpy_dt", "numpy_circulations"))
    def test_csv_cells_are_plain_numbers(self, tmp_path, name):
        # every cell is a plain Python number repr: no numpy scalar leaks
        # (such as "np.float64(...)") into any column, from a bundled run or
        # from a library caller's numpy dt or numpy base circulations
        if name in BUNDLED:
            assert main(["run", name, "--out-dir", str(tmp_path)]) == 0
        else:
            rng = np.random.default_rng(5)
            state = random_state(Surface.flat_torus(0.5 + 1j), 3, rng,
                                 circulations=name == "numpy_circulations")
            dt = np.float64(1e-3) if name == "numpy_dt" else 1e-3
            write_trajectory(tmp_path / f"{name}.csv", integrate(state, dt, 2), 1)
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
            "surface": {"kind": "flat_torus", "tau": [0.0, 1.0]},
            "vortices": [
                {"chart": 0, "coord": [0.5, 0.0], "strength": 1.0},
                {"chart": 0, "coord": [0.0, 0.5], "strength": 1.0},
            ],
        }))
        proc = run_cli(["run", str(cfg)], cwd=tmp_path)
        assert proc.returncode == 1
        assert "sum to zero" in proc.stderr

    def test_unbalanced_sphere_config_runs(self, tmp_path):
        # sum Gamma = 0 is a torus rule: the sphere takes any strengths
        cfg = tmp_path / "unbalanced.json"
        cfg.write_text(json.dumps({
            "surface": {"kind": "sphere"},
            "vortices": [
                {"chart": 0, "coord": [0.5, 0.0], "strength": 1.0},
                {"chart": 0, "coord": [-0.5, 0.0], "strength": 1.0},
            ],
            "integrator": {"steps": 20},
        }))
        assert parse_scenario(json.loads(cfg.read_text())).state().surface == Surface.sphere()
        proc = run_cli(["run", str(cfg)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "unbalanced.csv").read_text().splitlines()) == 22

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_out_dir_exits_one_without_traceback(self, tmp_path, jobs):
        (tmp_path / "afile").write_text("")
        out_dir = tmp_path / "afile" / "sub"
        proc = run_cli(["run", "torus_pair_translate", "sphere_antipodal_pair",
                        "--out-dir", str(out_dir), "--jobs", jobs])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [f"cannot write {out_dir}: Not a directory"] * 2

    @pytest.mark.parametrize("case", ["run_collision", "run_config", "verify_config"])
    def test_error_lines_are_single_writes(self, tmp_path, monkeypatch, case):
        # --jobs workers share stderr: a message written as text, then "\n",
        # can interleave with another worker's.  The torus state is the one of
        # test_collision_exits_two
        (tmp_path / "collide.json").write_text(json.dumps({
            "surface": {"kind": "flat_torus", "tau": [0.0, 1.0]},
            "vortices": [{"chart": 0, "coord": z, "strength": g} for z, g in (
                ([0.21, 0.33], 1.0), ([0.68, 0.41], -0.6), ([0.45, 0.72], 0.8),
                ([0.82, 0.15], -1.2))],
            "base_circulations": {"a": [0.3], "b": [-0.2]},
            "integrator": {"method": "rk4", "dt": 0.005, "steps": 3000},
            "collision_threshold": 0.25,
        }))
        missing, out = str(tmp_path / "missing.json"), ["--out-dir", str(tmp_path)]
        message, call = {
            "run_collision": ("collide: ",
                              lambda: main(["run", str(tmp_path / "collide.json"), *out])),
            "run_config": ("config error: ", lambda: main(["run", missing, *out])),
            "verify_config": ("config error: ", lambda: main(["verify", missing])),
        }[case]

        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        err = Recorder()
        monkeypatch.setattr(sys, "stderr", err)
        assert call() in (1, 2)
        assert [w for w in err.writes if w.startswith(message)], err.writes
        for text in err.writes:
            assert text.endswith("\n") and text.count("\n") == 1, err.writes

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

    @pytest.mark.parametrize("args, code, unbuffered", [
        (["run", "torus_four_vortex", "sphere_antipodal_pair", "--dump-config"], 0, "1"),
        (["run", "torus_four_vortex", "sphere_antipodal_pair", "--dump-config"], 0, ""),
        (["run", "torus_pair_translate", "sphere_antipodal_pair", "--out-dir", "{tmp}"], 0, "1"),
        (["verify", "torus_pair_translate"], 0, ""),
        (["verify", "--override", "sphere_green_normalization=1e-15"], 4, "1"),
    ], ids=["dump-unbuffered", "dump-buffered", "run", "verify-pass", "verify-fail"])
    def test_closed_stdout_ends_quietly(self, tmp_path, args, code, unbuffered):
        # the reader has gone before the first write (`| head` that exited):
        # no traceback, the command's own exit code, and every output written
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pointvortex", *(a.format(tmp=tmp_path) for a in args)],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env=cli_env({"PYTHONUNBUFFERED": unbuffered}),
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, "")
        if args[0] == "run" and "--dump-config" not in args:
            assert len(list(tmp_path.iterdir())) == 4

    def test_parallel_jobs(self, tmp_path):
        # the fan-out writes the bytes a serial run writes
        names = ("sphere_antipodal_pair", "sphere_crossing_pair", "torus_pair_translate")
        for jobs in ("1", "2"):
            (tmp_path / jobs).mkdir()
            assert main(["run", *names, "--out-dir", str(tmp_path / jobs), "--jobs", jobs]) == 0
        outputs = sorted(path.name for path in (tmp_path / "1").iterdir())
        assert outputs == sorted(f"{name}.{ext}" for name in names for ext in ("csv", "jsonl"))
        assert sorted(path.name for path in (tmp_path / "2").iterdir()) == outputs
        for name in outputs:
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

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

    @pytest.mark.parametrize("args, message", [
        (["--override", "no_such_check=1e-3"], "--override: unknown check 'no_such_check'"),
        (["--override", "mobius_schwarzian=nan"],
         "--override: tolerance of mobius_schwarzian must be finite and > 0, got nan"),
        (["--override", "mobius_schwarzian=inf"],
         "--override: tolerance of mobius_schwarzian must be finite and > 0, got inf"),
        (["--override", "mobius_schwarzian=0"],
         "--override: tolerance of mobius_schwarzian must be finite and > 0, got 0.0"),
        (["torus_pair_translate", "--override", "velocity_equivalence_torus=1e-300"],
         "--override: for the suite, not a CONFIG"),
        (["--seed", "-1"], "--seed: must be at least 0, got -1"),
        (["--seed", "1.5"], "--seed: expected an integer, got '1.5'"),
    ], ids=["unknown-check", "nan", "inf", "zero", "with-config", "seed-negative",
            "seed-fraction"])
    def test_bad_verify_flags_are_usage_errors(self, args, message, capsys):
        # each is refused before any check runs, naming the flag
        assert main(["verify", *args]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "checks passed" not in captured.out

    def test_override_with_config_is_a_verify_usage_error(self, capsys):
        assert main(["verify", "torus_pair_translate", "--override",
                     "velocity_equivalence_torus=1e-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: pointvortex verify ")
        assert "\npointvortex verify: error: argument --override: for the suite" in err

    def test_negative_seed_exits_without_traceback(self):
        proc = run_cli(["verify", "--seed", "-1"])
        assert proc.returncode == 1
        assert "--seed: must be at least 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_import_leaves_numpy_polynomial_unloaded(self, tmp_path):
        # the oracles form their Gauss-Legendre rules when called, so neither
        # the command line nor the verify battery pays for numpy.polynomial
        # on import
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, pointvortex.cli, pointvortex.verify; "
             "print('numpy.polynomial' in sys.modules)"],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
