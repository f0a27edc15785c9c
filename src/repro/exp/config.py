"""Declarative experiment configs: YAML/JSON files with ``extend:`` chains.

A config file describes one runnable experiment::

    name: fig4-accuracy            # optional; defaults to the file stem
    description: |                 # optional documentation
      The paper's central accuracy figure.
    extend: base/accuracy.yaml     # optional; inherit another config
    experiment: accuracy           # a base experiment from repro.exp.catalog
    parameters:                    # overrides, validated against the schema
      workloads: [fft, lu]
      scale: 0.25
    gate:                          # bench-regression tolerances (optional)
      default_tolerance_pct: 0.0
      tolerances:
        "*wall*": null             # null = never gate this metric
        "gmean.*": 1.5

``extend:`` is resolved relative to the config file's own directory and may
chain (A extends B extends C).  Resolution order is root-first: the chain
root supplies the ``experiment`` and base parameters, every child overrides
parameter-by-parameter, and the leaf wins.  Cycles and conflicting
``experiment`` fields are errors.  The resolved parameter set is validated
against the experiment's :class:`repro.exp.schema.ParamSchema` — unknown
keys and type mismatches are rejected with the file name in the message.

YAML support is optional (PyYAML); ``.json`` configs always work.  The
resolved config's content hash (``config_hash``) covers exactly what
determines the results — the experiment name and the resolved parameters —
so renaming a file or editing its description does not invalidate archives.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.exp.schema import SchemaError

#: Keys a config file may contain at the top level.
CONFIG_KEYS = ("name", "description", "extend", "experiment", "parameters", "gate")

#: Keys the ``gate:`` section may contain.
GATE_KEYS = ("default_tolerance_pct", "tolerances")

CONFIG_SUFFIXES = (".yaml", ".yml", ".json")


class ConfigFileError(SchemaError):
    """A config file is malformed (bad syntax, bad keys, bad extend chain)."""


@dataclass(frozen=True)
class GateSpec:
    """Per-metric tolerance policy for ``repro exp diff --gate``.

    ``tolerances`` maps a metric-name glob to the allowed relative change in
    percent, or ``None`` to exempt matching metrics from gating entirely
    (wall-clock measurements, for instance).  The first matching pattern in
    insertion order wins; otherwise ``default_tolerance_pct`` applies.
    """

    default_tolerance_pct: float = 0.0
    tolerances: dict[str, Optional[float]] = field(default_factory=dict)

    def tolerance_for(self, metric: str) -> Optional[float]:
        from fnmatch import fnmatchcase

        for pattern, tol in self.tolerances.items():
            if fnmatchcase(metric, pattern):
                return tol
        return self.default_tolerance_pct

    def as_dict(self) -> dict:
        return {
            "default_tolerance_pct": self.default_tolerance_pct,
            "tolerances": dict(self.tolerances),
        }

    @staticmethod
    def from_dict(raw: dict, where: str = "") -> "GateSpec":
        ctx = f"{where}: " if where else ""
        unknown = sorted(set(raw) - set(GATE_KEYS))
        if unknown:
            raise ConfigFileError(
                f"{ctx}unknown gate key(s) {unknown}; expected {list(GATE_KEYS)}"
            )
        default = raw.get("default_tolerance_pct", 0.0)
        if not isinstance(default, (int, float)) or isinstance(default, bool):
            raise ConfigFileError(
                f"{ctx}gate.default_tolerance_pct must be a number, "
                f"got {default!r}"
            )
        tolerances: dict[str, Optional[float]] = {}
        for pattern, tol in (raw.get("tolerances") or {}).items():
            if tol is not None and (
                not isinstance(tol, (int, float)) or isinstance(tol, bool)
            ):
                raise ConfigFileError(
                    f"{ctx}gate tolerance for {pattern!r} must be a number "
                    f"or null, got {tol!r}"
                )
            tolerances[str(pattern)] = None if tol is None else float(tol)
        return GateSpec(float(default), tolerances)


@dataclass(frozen=True)
class ResolvedConfig:
    """A config file with its ``extend:`` chain flattened and validated."""

    name: str
    description: str
    experiment: str
    parameters: dict[str, Any]
    gate: GateSpec
    #: Config files in resolution order, root first, leaf last.
    chain: tuple[str, ...]
    path: Optional[str] = None

    @property
    def config_hash(self) -> str:
        """Content hash of what determines the results (experiment +
        resolved parameters; names, descriptions and gates excluded)."""
        return config_hash(self.experiment, self.parameters)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "experiment": self.experiment,
            "parameters": _jsonable_params(self.parameters),
            "gate": self.gate.as_dict(),
            "chain": list(self.chain),
            "config_hash": self.config_hash,
        }


def _jsonable_params(params: dict[str, Any]) -> dict[str, Any]:
    return {
        k: list(v) if isinstance(v, tuple) else v for k, v in params.items()
    }


def config_hash(experiment: str, parameters: dict[str, Any]) -> str:
    material = json.dumps(
        {"experiment": experiment, "parameters": _jsonable_params(parameters)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


def load_config_file(path: Union[str, Path]) -> dict:
    """Parse one config file (YAML or JSON by suffix) into a raw dict."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigFileError(f"{path}: invalid JSON: {exc}") from exc
    elif path.suffix in (".yaml", ".yml"):
        # Optional dependency, imported on first use: the serve node imports
        # this package for the catalogue and never reads a config file.
        try:
            import yaml as _yaml
        except ImportError:  # pragma: no cover - only without PyYAML
            raise ConfigFileError(
                f"{path}: YAML configs need PyYAML (pip install pyyaml); "
                "JSON configs work without it"
            ) from None
        try:
            raw = _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise ConfigFileError(f"{path}: invalid YAML: {exc}") from exc
    else:
        raise ConfigFileError(
            f"{path}: unknown config suffix {path.suffix!r}; "
            f"expected one of {CONFIG_SUFFIXES}"
        )
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigFileError(
            f"{path}: config must be a mapping, got {type(raw).__name__}"
        )
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigFileError(
            f"{path}: unknown top-level key(s) {unknown}; "
            f"expected {list(CONFIG_KEYS)}"
        )
    params = raw.get("parameters")
    if params is not None and not isinstance(params, dict):
        raise ConfigFileError(
            f"{path}: 'parameters' must be a mapping, "
            f"got {type(params).__name__}"
        )
    return raw


def _load_chain(path: Path, seen: tuple[Path, ...] = ()) -> list[tuple[Path, dict]]:
    """The ``extend:`` chain of ``path``, root first."""
    path = path.resolve()
    if path in seen:
        cycle = " -> ".join(p.name for p in (*seen, path))
        raise ConfigFileError(f"extend cycle: {cycle}")
    raw = load_config_file(path)
    chain: list[tuple[Path, dict]] = []
    extend = raw.get("extend")
    if extend is not None:
        if not isinstance(extend, str):
            raise ConfigFileError(
                f"{path}: 'extend' must be a path string, got {extend!r}"
            )
        base = (path.parent / extend).resolve()
        if not base.is_file():
            raise ConfigFileError(
                f"{path}: extend target not found: {extend} "
                f"(resolved to {base})"
            )
        chain.extend(_load_chain(base, (*seen, path)))
    chain.append((path, raw))
    return chain


def resolve_config(
    path: Union[str, Path], overrides: Optional[dict[str, Any]] = None
) -> ResolvedConfig:
    """Flatten the ``extend:`` chain of ``path`` and validate the result.

    ``path`` may also be a bare catalogue name (``"accuracy"``): the
    experiment's schema defaults, as if a one-line config file naming it.
    ``overrides`` (e.g. ``repro exp run --set key=value``) are applied after
    the whole file chain, as if a final one-off child config.
    """
    from repro.exp.catalog import experiment_names, get_experiment

    path = Path(path)
    if str(path) in experiment_names():
        chain = [(path, {"experiment": str(path)})]
    elif not path.is_file():
        raise ConfigFileError(
            f"{path}: neither a config file nor a catalogue experiment "
            f"(known: {experiment_names()})"
        )
    else:
        chain = _load_chain(path)

    experiment: Optional[str] = None
    declared_in: Optional[Path] = None
    params: dict[str, Any] = {}
    gate_raw: dict = {}
    for file_path, raw in chain:
        exp_name = raw.get("experiment")
        if exp_name is not None:
            if experiment is not None and exp_name != experiment:
                raise ConfigFileError(
                    f"{file_path}: experiment {exp_name!r} conflicts with "
                    f"{experiment!r} inherited from {declared_in}"
                )
            experiment, declared_in = exp_name, file_path
        params.update(raw.get("parameters") or {})
        gate = raw.get("gate")
        if gate is not None:
            if not isinstance(gate, dict):
                raise ConfigFileError(
                    f"{file_path}: 'gate' must be a mapping, got {gate!r}"
                )
            merged_tol = dict(gate_raw.get("tolerances") or {})
            merged_tol.update(gate.get("tolerances") or {})
            gate_raw.update(gate)
            gate_raw["tolerances"] = merged_tol
    if overrides:
        params.update(overrides)

    if experiment is None:
        raise ConfigFileError(
            f"{path}: no 'experiment' anywhere in the extend chain"
        )
    base = get_experiment(experiment)  # raises on unknown experiment

    leaf_path, leaf_raw = chain[-1]
    name = leaf_raw.get("name") or leaf_path.stem
    description = str(leaf_raw.get("description") or base.description).strip()
    resolved = base.schema.resolve(params, where=str(leaf_path))
    gate = GateSpec.from_dict(gate_raw, where=str(leaf_path)) if gate_raw else (
        base.default_gate
    )
    return ResolvedConfig(
        name=str(name),
        description=description,
        experiment=experiment,
        parameters=resolved,
        gate=gate,
        chain=tuple(str(p) for p, _ in chain),
        path=str(leaf_path),
    )


def discover_configs(root: Union[str, Path]) -> list[Path]:
    """Every config file under ``root``, sorted (``base/`` included)."""
    root = Path(root)
    out = [
        p
        for suffix in CONFIG_SUFFIXES
        for p in root.rglob(f"*{suffix}")
        if p.is_file()
    ]
    return sorted(set(out))


def parse_set_override(pairs: list[str]) -> dict[str, Any]:
    """Parse ``--set key=value`` pairs; values are parsed as JSON when
    possible (so ``--set scale=0.5`` is a float and ``--set
    'workloads=["fft"]'`` a list) and kept as strings otherwise."""
    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigFileError(
                f"--set expects key=value, got {pair!r}"
            )
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out
