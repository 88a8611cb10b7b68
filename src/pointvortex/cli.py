"""Command-line front door: scenario simulation and cross-validation.

    pointvortex run CONFIG [CONFIG ...] [--out-dir DIR] [--jobs N] [--dump-config]
    pointvortex verify [CONFIG] [--suite quick|full] [--seed N] [--override NAME=TOL]

Each CONFIG is parsed once (`config.resolve_scenario`), into a ScenarioConfig
holding its VortexState; the one other config error is an output path that two
outputs share, which `run` refuses before anything runs.
`run` writes one trajectory CSV (fixed column order: t, per-vortex re/im/chart,
H, base circulations, min separation) plus a JSON-lines diagnostics file per
scenario; `--dump-config` prints the normalized input JSON, with positions
as given.  Exit codes: 0 clean, 1 configuration, usage or unwritable output
error, 2 collision abort, 3 adaptive step rejection, 4 failed verify check.
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
from .verify import check_tolerance, format_report, run_suite, verify_scenario

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


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _override(text: str) -> tuple[str, float]:
    """argparse type: NAME=TOL under `verify.check_tolerance`'s rules."""
    name, _, value = text.partition("=")
    try:
        return name, check_tolerance(name, value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    """One CSV line; every real cell is repr(float(x)), so numpy scalars from
    library callers write as plain numbers."""
    cells = [repr(float(rec.time))]
    for p in rec.positions:
        cells += [repr(float(p.coord.real)), repr(float(p.coord.imag)), str(p.chart_id)]
    cells += [repr(float(v)) for v in (rec.hamiltonian, *rec.circ_a, *rec.circ_b,
                                       rec.min_separation)]
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


def _print(text: str) -> None:
    try:   # a reader that closed stdout (`| head`) ends the output, not the command
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _error(text: str) -> int:
    # one write call keeps --jobs workers' lines whole; EXIT_CONFIG for callers exiting on it
    sys.stderr.write(text + "\n")
    return EXIT_CONFIG


def run_one(cfg: ScenarioConfig, out_dir: Path) -> int:
    """Run one scenario and write its outputs; an output path that cannot be
    written is reported as `cannot write PATH: REASON` (EXIT_CONFIG)."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _error(f"cannot write {exc.filename}: {exc.strerror}")
    traj_path = out_dir / cfg.trajectory_path
    diag_path = out_dir / cfg.diagnostics_path
    state = cfg.state()
    stats: dict = {}
    spec = cfg.integrator
    log.info("running %s: n=%d steps=%d dt=%g method=%s",
             cfg.name, state.n, spec.steps, spec.dt, spec.method)
    status, code = "ok", EXIT_OK
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
        records = stats.pop("partial_records")
        _error(f"{cfg.name}: {exc}")
    try:
        write_trajectory(traj_path, records, state.surface.genus)
        write_diagnostics(diag_path, records, stats, status=status)
    except OSError as exc:
        return _error(f"cannot write {exc.filename}: {exc.strerror}")
    if code == EXIT_OK:
        _print(f"{cfg.name}: wrote {traj_path} ({len(records)} records)")
    return code


def _run_worker(args: tuple[ScenarioConfig, str]) -> int:
    cfg, out_dir = args
    return run_one(cfg, Path(out_dir))


def cmd_run(args: argparse.Namespace) -> int:
    configs = []
    for ref in args.configs:
        try:
            configs.append(resolve_scenario(ref))
        except ConfigError as exc:
            return _error(f"config error: {exc}")
    if args.dump_config:
        for cfg in configs:
            _print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    out_dir, writers = Path(args.out_dir), {}
    for cfg in configs:   # one writer per output path, or two runs overwrite each other
        for name in (cfg.trajectory_path, cfg.diagnostics_path):
            writers.setdefault((out_dir / name).resolve(), []).append(cfg.name)
    for path, names in writers.items():
        if len(names) > 1:
            return _error(f"config error: output path {path} repeats in scenario(s) "
                          f"{', '.join(dict.fromkeys(names))}")
    if args.jobs > 1 and len(configs) > 1:
        with multiprocessing.Pool(min(args.jobs, len(configs))) as pool:
            codes = pool.map(_run_worker, [(c, str(out_dir)) for c in configs])
    else:
        codes = [run_one(cfg, out_dir) for cfg in configs]
    return max(codes)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.config is not None:
        try:
            cfg = resolve_scenario(args.config)
        except ConfigError as exc:
            return _error(f"config error: {exc}")
        results = verify_scenario(cfg)
    else:
        results = run_suite(args.suite, args.seed, dict(args.override or ()))
    _print(format_report(results))
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
    p_run.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="fan independent scenarios across N worker processes")
    p_run.add_argument("--dump-config", action="store_true",
                       help="print the normalized config JSON and exit")

    p_ver = sub.add_parser("verify", help="run the cross-validation battery")
    p_ver.add_argument("config", nargs="?", default=None,
                       help="optional scenario to verify instead of the suite")
    p_ver.add_argument("--suite", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--seed", type=_int_at_least(0), default=7,
                       help="random seed of the suite (N >= 0)")
    p_ver.add_argument("--override", action="append", type=_override, metavar="NAME=TOL",
                       help="override a suite check's tolerance (repeatable)")
    p_ver.set_defaults(usage_error=p_ver.error)   # with the verify usage line
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.config is not None and args.override:
            args.usage_error("argument --override: for the suite, not a CONFIG (see its tolerances)")
    except SystemExit as exc:  # a usage error (EXIT_CONFIG) or --help (0)
        return exc.code
    if args.command == "run":
        return cmd_run(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
