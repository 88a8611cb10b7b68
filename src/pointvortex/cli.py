"""Command-line front door: scenario simulation and cross-validation.

    pointvortex run CONFIG [CONFIG ...] [--out-dir DIR] [--jobs N] [--dump-config]
    pointvortex verify [CONFIG] [--suite quick|full] [--seed N] [--override NAME=TOL]

`run` writes one trajectory CSV (fixed column order: t, per-vortex re/im/chart,
H, base circulations, min separation) plus a JSON-lines diagnostics file per
scenario.  Exit codes: 0 clean, 1 configuration or usage error, 2 collision
abort, 3 adaptive step rejection, 4 failed verify check.
Set VORTEX_LOG=debug|info|warning to control logging.
"""
from __future__ import annotations

import argparse
import json
import logging
import multiprocessing
import os
import sys
from pathlib import Path

from .config import ScenarioConfig, resolve_scenario
from .dynamics import TrajectoryRecord, integrate
from .errors import CollisionError, ConfigError, StepRejectionError
from .verify import format_report, run_suite, verify_scenario

log = logging.getLogger("pointvortex")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COLLISION = 2
EXIT_STEP_REJECTED = 3
EXIT_VERIFY_FAILED = 4


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on a usage error, which is the collision code here
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _worker_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _configure_logging() -> None:
    level = os.environ.get("VORTEX_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _csv_header(n_vortices: int, genus: int) -> str:
    cols = ["t"]
    for i in range(1, n_vortices + 1):
        cols += [f"z{i}_re", f"z{i}_im", f"chart{i}"]
    cols.append("H")
    cols += [f"a_{k}" for k in range(1, genus + 1)]
    cols += [f"b_{k}" for k in range(1, genus + 1)]
    cols.append("min_sep")
    return ",".join(cols)


def _csv_row(rec: TrajectoryRecord) -> str:
    cells = [repr(rec.time)]
    for p in rec.positions:
        cells += [repr(p.coord.real), repr(p.coord.imag), str(p.chart_id)]
    cells.append(repr(rec.hamiltonian))
    cells += [repr(v) for v in rec.circ_a]
    cells += [repr(v) for v in rec.circ_b]
    cells.append(repr(rec.min_separation))
    return ",".join(cells)


def write_trajectory(path: Path, records: list[TrajectoryRecord], genus: int) -> None:
    n = len(records[0].positions)
    lines = [_csv_header(n, genus)]
    lines += [_csv_row(r) for r in records]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_diagnostics(path: Path, records: list[TrajectoryRecord],
                      stats: dict, status: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    h0 = records[0].hamiltonian
    scale = max(abs(h0), 1e-300)
    lines = []
    for rec in records:
        kelvin = max((abs(x - y) for x, y in zip(rec.kelvin, records[0].kelvin)),
                     default=0.0)
        drift = abs(rec.hamiltonian - h0)
        lines.append(json.dumps({
            "t": rec.time,
            "energy_drift": drift / scale,
            "energy_drift_abs": drift,
            "kelvin_drift": kelvin,
            "min_separation": rec.min_separation,
        }))
    drift = max(abs(r.hamiltonian - h0) for r in records)
    summary = {
        "event": "summary",
        "status": status,
        "records": len(records),
        "step_rejections": stats.get("step_rejections", 0),
        "energy_drift": drift / scale,
        "energy_drift_abs": drift,
    }
    summary.update({k: v for k, v in stats.items() if k != "step_rejections"})
    lines.append(json.dumps(summary))
    path.write_text("\n".join(lines) + "\n")


def run_one(cfg: ScenarioConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / cfg.trajectory_path
    diag_path = out_dir / cfg.diagnostics_path
    try:
        state = cfg.state()
    except ConfigError as exc:
        print(f"config error in {cfg.name}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    stats: dict = {}
    spec = cfg.integrator
    log.info("running %s: n=%d steps=%d dt=%g method=%s",
             cfg.name, state.n, spec.steps, spec.dt, spec.method)
    try:
        records = integrate(
            state, spec.dt, spec.steps, method=spec.method,
            record_every=spec.record_every, stats_out=stats,
        )
    except (CollisionError, StepRejectionError) as exc:
        # integrate() hands back the records made before the abort
        if isinstance(exc, CollisionError):
            status, code = "collision", EXIT_COLLISION
            stats.update({"collision_time": exc.time, "collision_pair": list(exc.pair),
                          "collision_separation": exc.separation})
        else:
            status, code = "step_rejected", EXIT_STEP_REJECTED
        partial = stats.pop("partial_records")
        write_trajectory(traj_path, partial, state.surface.genus)
        write_diagnostics(diag_path, partial, stats, status=status)
        print(f"{cfg.name}: {exc}", file=sys.stderr)
        return code
    write_trajectory(traj_path, records, state.surface.genus)
    write_diagnostics(diag_path, records, stats, status="ok")
    print(f"{cfg.name}: wrote {traj_path} ({len(records)} records)")
    return EXIT_OK


def _run_worker(args: tuple[ScenarioConfig, str]) -> int:
    cfg, out_dir = args
    return run_one(cfg, Path(out_dir))


def cmd_run(args: argparse.Namespace) -> int:
    configs = []
    for ref in args.configs:
        try:
            configs.append(resolve_scenario(ref))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    if args.dump_config:
        for cfg in configs:
            print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    out_dir = Path(args.out_dir)
    if args.jobs > 1 and len(configs) > 1:
        with multiprocessing.Pool(min(args.jobs, len(configs))) as pool:
            codes = pool.map(_run_worker, [(c, str(out_dir)) for c in configs])
    else:
        codes = [run_one(cfg, out_dir) for cfg in configs]
    return max(codes)


def cmd_verify(args: argparse.Namespace) -> int:
    overrides = {}
    for item in args.override or []:
        name, _, value = item.partition("=")
        try:
            overrides[name] = float(value)
        except ValueError:
            print(f"bad --override {item!r}: expected NAME=TOLERANCE", file=sys.stderr)
            return EXIT_CONFIG
    if args.config is not None:
        try:
            cfg = resolve_scenario(args.config)
            results = verify_scenario(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        results = run_suite(suite=args.suite, seed=args.seed, overrides=overrides)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pointvortex",
        description="Point-vortex dynamics on the round sphere and flat tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one or more scenarios")
    p_run.add_argument("configs", nargs="+",
                       help="config JSON paths or bundled scenario names")
    p_run.add_argument("--out-dir", default=".", help="output directory")
    p_run.add_argument("--jobs", type=_worker_count, default=1,
                       help="fan independent scenarios across N worker processes")
    p_run.add_argument("--dump-config", action="store_true",
                       help="print the normalized config JSON and exit")

    p_ver = sub.add_parser("verify", help="run the cross-validation battery")
    p_ver.add_argument("config", nargs="?", default=None,
                       help="optional scenario to verify instead of the suite")
    p_ver.add_argument("--suite", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--override", action="append", metavar="NAME=TOL",
                       help="override a check tolerance (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (EXIT_CONFIG) or --help (0)
        return exc.code
    if args.command == "run":
        return cmd_run(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
