"""Scenario configuration: JSON schema, validation, and state construction.

Complex numbers are [re, im] pairs throughout so configs stay language-neutral
and diff-friendly.  `parse_scenario` raises ConfigError naming the offending
or unknown field; JSON syntax errors are reported with line/column.  It builds the
scenario's VortexState once, and the ScenarioConfig it returns holds that
state and the normalized input as JSON text, which `to_dict` (and so
`--dump-config`) parses back with the positions as given.  A ScenarioConfig
is an immutable, hashable value.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .dynamics import DEFAULT_COLLISION_THRESHOLD, METHODS, MIN_COLLISION_THRESHOLD, VortexState
from .errors import ChartError, ConfigError
from .surfaces import FLAT_TORUS, SPHERE, Surface, SurfacePoint


@dataclass(frozen=True)
class IntegratorSpec:
    method: str = "rk4"
    dt: float = 1e-3
    steps: int = 1000
    record_every: int = 1


DEFAULT_VELOCITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: its initial state, integrator and output names, the
    single-scenario verify tolerance, and the normalized input as JSON text
    (positions as given, not canonicalized)."""

    name: str
    integrator: IntegratorSpec
    trajectory_path: str
    diagnostics_path: str
    velocity_tolerance: float
    _state: VortexState
    _normalized: str

    def state(self) -> VortexState:
        return self._state

    def to_dict(self) -> dict:
        return json.loads(self._normalized)


def _expect(mapping, key, kind, where, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{where}: missing required field {key!r}")
        return default
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, kind):   # bool is an int to Python
        raise ConfigError(
            f"{where}.{key}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {value}")
    return value


def _known_fields(mapping: dict, fields: tuple[str, ...], where: str) -> None:
    """ConfigError for the first key of `mapping` not in `fields`, named after
    the `where` prefix ("" at the top level, else the mapping's path and a dot)."""
    for key in mapping:
        if key not in fields:
            raise ConfigError(f"{where}{key}: unknown field")


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
    _known_fields(data, ("name", "surface", "vortices", "base_circulations", "integrator",
                         "output", "collision_threshold", "tolerances"), "")
    name = _expect(data, "name", str, "top level", default=name)

    surf = _expect(data, "surface", dict, "top level", required=True)
    _known_fields(surf, ("kind", "tau"), "surface.")
    kind = _expect(surf, "kind", str, "surface", required=True)
    if kind not in (SPHERE, FLAT_TORUS):
        raise ConfigError(f"surface.kind: must be '{SPHERE}' or '{FLAT_TORUS}', got {kind!r}")
    if kind == SPHERE and "tau" in surf:
        raise ConfigError("surface.tau: not a field of the sphere")
    if kind == FLAT_TORUS and "tau" not in surf:
        raise ConfigError("surface.tau: required for the flat torus")
    tau = _complex_pair(surf["tau"], "surface.tau") if kind == FLAT_TORUS else None
    try:
        surface = Surface(kind, tau)
    except ValueError as exc:
        raise ConfigError(f"surface.tau: {exc}") from exc

    raw_vortices = _expect(data, "vortices", list, "top level", required=True)
    if len(raw_vortices) < 2:
        raise ConfigError("vortices: at least two vortices are required")
    points, strengths, entries = [], [], []
    for i, entry in enumerate(raw_vortices):
        where = f"vortices[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        _known_fields(entry, ("chart", "coord", "strength"), f"{where}.")
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
        points.append(SurfacePoint(chart, coord))
        strengths.append(strength)
        entries.append({"chart": chart, "coord": [coord.real, coord.imag],
                        "strength": strength})

    genus = surface.genus
    circ = _expect(data, "base_circulations", dict, "top level", default={})
    _known_fields(circ, ("a", "b"), "base_circulations.")
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
    _known_fields(integ, ("method", "dt", "steps", "record_every"), "integrator.")
    method = _expect(integ, "method", str, "integrator", default=IntegratorSpec.method)
    if method not in METHODS:
        raise ConfigError(f"integrator.method: must be one of {tuple(METHODS)}, got {method!r}")
    dt = _expect(integ, "dt", float, "integrator", default=IntegratorSpec.dt)
    if not dt > 0:
        raise ConfigError(f"integrator.dt: must be positive, got {dt}")
    steps = _expect(integ, "steps", int, "integrator", default=IntegratorSpec.steps)
    if steps < 1:
        raise ConfigError(f"integrator.steps: must be >= 1, got {steps}")
    record_every = _expect(integ, "record_every", int, "integrator",
                           default=IntegratorSpec.record_every)
    if record_every < 1:
        raise ConfigError(f"integrator.record_every: must be >= 1, got {record_every}")

    output = _expect(data, "output", dict, "top level", default={})
    _known_fields(output, ("trajectory", "diagnostics"), "output.")
    trajectory = _expect(output, "trajectory", str, "output", default=f"{name}.csv")
    diagnostics = _expect(output, "diagnostics", str, "output", default=f"{name}.jsonl")

    threshold = _expect(
        data, "collision_threshold", float, "top level",
        default=DEFAULT_COLLISION_THRESHOLD,
    )
    if not MIN_COLLISION_THRESHOLD <= threshold < math.inf:   # `VortexState`'s rule
        raise ConfigError(f"collision_threshold: must be finite and >= "
                          f"{MIN_COLLISION_THRESHOLD:g}, got {threshold}")

    tolerances = _expect(data, "tolerances", dict, "top level", default={})
    _known_fields(tolerances, ("velocity_equivalence",), "tolerances.")
    velocity_tolerance = _expect(tolerances, "velocity_equivalence", float, "tolerances",
                                 default=DEFAULT_VELOCITY_TOLERANCE)
    if not velocity_tolerance > 0:
        raise ConfigError(
            f"tolerances.velocity_equivalence: must be positive, got {velocity_tolerance}")

    base_a = tuple(float(v) for v in base_a)
    base_b = tuple(float(v) for v in base_b)
    try:  # a config parses only if it yields an admissible state
        state = VortexState(surface, tuple(points), tuple(strengths), base_a, base_b,
                            collision_threshold=threshold)
    except ValueError as exc:
        raise ConfigError(f"vortices: {exc}") from exc
    integrator = IntegratorSpec(method, dt, steps, record_every)
    normalized = {
        "name": name,
        "surface": {"kind": kind, "tau": [tau.real, tau.imag]} if kind == FLAT_TORUS
                   else {"kind": kind},
        "vortices": entries,
        "base_circulations": {"a": list(base_a), "b": list(base_b)},
        "integrator": asdict(integrator),
        "output": {"trajectory": trajectory, "diagnostics": diagnostics},
        "collision_threshold": threshold,
        "tolerances": tolerances,
    }
    return ScenarioConfig(name, integrator, trajectory, diagnostics, velocity_tolerance,
                          state, json.dumps(normalized))


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


def resolve_scenario(ref: str) -> ScenarioConfig:
    """Load a scenario from a file path or, failing that, a bundled scenario name."""
    for path in (Path(ref), Path(__file__).parent / "scenarios" / f"{ref}.json"):
        if path.exists():
            return load_scenario(path)
    raise ConfigError(f"no such config file or bundled scenario: {ref!r}")
