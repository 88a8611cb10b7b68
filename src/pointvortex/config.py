"""Scenario configuration: JSON schema, validation, and state construction.

Complex numbers are [re, im] pairs throughout so configs stay language-neutral
and diff-friendly.  `parse_scenario` raises ConfigError naming the offending
field; JSON syntax errors are reported with line/column.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .dynamics import DEFAULT_COLLISION_THRESHOLD, VortexState
from .errors import ChartError, ConfigError
from .surfaces import FLAT_TORUS, SPHERE, Surface, SurfacePoint

_METHODS = ("rk4", "rk45-adaptive")


@dataclass(frozen=True)
class VortexSpec:
    chart: int
    coord: complex
    strength: float


@dataclass(frozen=True)
class IntegratorSpec:
    method: str = "rk4"
    dt: float = 1e-3
    steps: int = 1000
    record_every: int = 1


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    surface_kind: str
    tau: complex
    vortices: tuple[VortexSpec, ...]
    base_a: tuple[float, ...]
    base_b: tuple[float, ...]
    integrator: IntegratorSpec
    trajectory_path: str
    diagnostics_path: str
    collision_threshold: float = DEFAULT_COLLISION_THRESHOLD
    tolerances: dict = field(default_factory=dict)

    def surface(self) -> Surface:
        return Surface(self.surface_kind, self.tau)

    def state(self) -> VortexState:
        surface = self.surface()
        try:
            return VortexState(
                surface=surface,
                positions=tuple(SurfacePoint(v.chart, v.coord) for v in self.vortices),
                strengths=tuple(v.strength for v in self.vortices),
                base_a=self.base_a,
                base_b=self.base_b,
                collision_threshold=self.collision_threshold,
            )
        except ValueError as exc:
            raise ConfigError(f"vortices: {exc}") from exc

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "surface": {"kind": self.surface_kind},
            "vortices": [{"chart": v.chart, "coord": [v.coord.real, v.coord.imag],
                          "strength": v.strength} for v in self.vortices],
            "base_circulations": {"a": list(self.base_a), "b": list(self.base_b)},
            "integrator": asdict(self.integrator),
            "output": {"trajectory": self.trajectory_path, "diagnostics": self.diagnostics_path},
            "collision_threshold": self.collision_threshold,
            "tolerances": dict(self.tolerances),
        }
        if self.surface_kind == FLAT_TORUS:
            out["surface"]["tau"] = [self.tau.real, self.tau.imag]
        return out


def _expect(mapping, key, kind, where, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{where}: missing required field {key!r}")
        return default
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(
            f"{where}.{key}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {value}")
    return value


def _finite_numbers(values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and math.isfinite(v) for v in values)


def _complex_pair(value, where) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not _finite_numbers(value):
        raise ConfigError(f"{where}: expected a [re, im] pair of finite numbers")
    return complex(float(value[0]), float(value[1]))


def parse_scenario(data: dict, name: str = "scenario") -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    name = _expect(data, "name", str, "top level", default=name)

    surf = _expect(data, "surface", dict, "top level", required=True)
    kind = _expect(surf, "kind", str, "surface", required=True)
    if kind not in (SPHERE, FLAT_TORUS):
        raise ConfigError(f"surface.kind: must be '{SPHERE}' or '{FLAT_TORUS}', got {kind!r}")
    tau = 1j
    if kind == FLAT_TORUS:
        if "tau" not in surf:
            raise ConfigError("surface.tau: required for the flat torus")
        tau = _complex_pair(surf["tau"], "surface.tau")
    try:
        surface = Surface(kind, tau)
    except ValueError as exc:
        raise ConfigError(f"surface.tau: {exc}") from exc

    raw_vortices = _expect(data, "vortices", list, "top level", required=True)
    if len(raw_vortices) < 2:
        raise ConfigError("vortices: at least two vortices are required")
    vortices = []
    for i, entry in enumerate(raw_vortices):
        where = f"vortices[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        chart = _expect(entry, "chart", int, where, default=0)
        try:
            surface.check_chart(chart)
        except ChartError as exc:
            raise ConfigError(f"{where}.chart: {exc}") from exc
        if "coord" not in entry:
            raise ConfigError(f"{where}: missing required field 'coord'")
        coord = _complex_pair(entry["coord"], f"{where}.coord")
        strength = _expect(entry, "strength", float, where, required=True)
        if strength == 0.0:
            raise ConfigError(f"{where}.strength: must be nonzero")
        vortices.append(VortexSpec(chart, coord, strength))
    total = sum(v.strength for v in vortices)
    if abs(total) > 1e-12:
        raise ConfigError(
            f"vortices: vortex strengths must sum to zero (got {total:.3e})"
        )

    genus = surface.genus
    circ = _expect(data, "base_circulations", dict, "top level", default={})
    base_a = circ.get("a", [0.0] * genus)
    base_b = circ.get("b", [0.0] * genus)
    for label, vals in (("a", base_a), ("b", base_b)):
        if not isinstance(vals, list) or not _finite_numbers(vals):
            raise ConfigError(
                f"base_circulations.{label}: expected a list of finite numbers"
            )
        if len(vals) != genus:
            raise ConfigError(
                f"base_circulations.{label}: expected length {genus} for this surface"
            )

    integ = _expect(data, "integrator", dict, "top level", default={})
    method = _expect(integ, "method", str, "integrator", default="rk4")
    if method not in _METHODS:
        raise ConfigError(f"integrator.method: must be one of {_METHODS}, got {method!r}")
    dt = _expect(integ, "dt", float, "integrator", default=1e-3)
    if not dt > 0:
        raise ConfigError(f"integrator.dt: must be positive, got {dt}")
    steps = _expect(integ, "steps", int, "integrator", default=1000)
    if steps < 1:
        raise ConfigError(f"integrator.steps: must be >= 1, got {steps}")
    record_every = _expect(integ, "record_every", int, "integrator", default=1)
    if record_every < 1:
        raise ConfigError(f"integrator.record_every: must be >= 1, got {record_every}")

    output = _expect(data, "output", dict, "top level", default={})
    trajectory = _expect(output, "trajectory", str, "output", default=f"{name}.csv")
    diagnostics = _expect(output, "diagnostics", str, "output", default=f"{name}.jsonl")

    threshold = _expect(
        data, "collision_threshold", float, "top level",
        default=DEFAULT_COLLISION_THRESHOLD,
    )
    if not threshold > 0:
        raise ConfigError(f"collision_threshold: must be positive, got {threshold}")

    tolerances = _expect(data, "tolerances", dict, "top level", default={})
    for key, value in tolerances.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"tolerances.{key}: expected a number")

    cfg = ScenarioConfig(
        name=name,
        surface_kind=kind,
        tau=tau,
        vortices=tuple(vortices),
        base_a=tuple(float(v) for v in base_a),
        base_b=tuple(float(v) for v in base_b),
        integrator=IntegratorSpec(method, dt, steps, record_every),
        trajectory_path=trajectory,
        diagnostics_path=diagnostics,
        collision_threshold=threshold,
        tolerances=dict(tolerances),
    )
    cfg.state()  # a config parses only if it yields an admissible state
    return cfg


def load_scenario(path: Path) -> ScenarioConfig:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(data, name=path.stem)


def bundled_scenario_path(name: str) -> Path | None:
    here = Path(__file__).parent / "scenarios" / f"{name}.json"
    return here if here.exists() else None


def resolve_scenario(ref: str) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name."""
    p = Path(ref)
    if p.exists():
        return load_scenario(p)
    bundled = bundled_scenario_path(ref)
    if bundled is not None:
        return load_scenario(bundled)
    raise ConfigError(f"no such config file or bundled scenario: {ref!r}")
