"""Typed parameter schema for declarative experiment configs.

Every base experiment in :mod:`repro.exp.catalog` declares its parameters as
a tuple of :class:`ParamSpec`.  Config files (``benchmarks/experiments/``)
can then only set parameters the experiment actually has, with values of the
declared type — an unknown key or a type mismatch is a
:class:`SchemaError` naming the config file, the parameter, and what would
have been accepted, instead of a silent misconfiguration that burns minutes
of simulation.

Kinds are deliberately small: scalars (``int``, ``float``, ``str``,
``bool``) and homogeneous lists thereof.  List values are canonicalized to
tuples so they hash identically to the hand-written tuples the original
bench scripts passed to :class:`repro.harness.SweepTask` (the result-cache
key distinguishes lists from tuples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

KINDS = (
    "int",
    "float",
    "str",
    "bool",
    "list[int]",
    "list[float]",
    "list[str]",
)


class SchemaError(ValueError):
    """Raised when a config does not fit its experiment's parameter schema."""


@dataclass(frozen=True)
class ParamSpec:
    """One declared experiment parameter."""

    name: str
    kind: str
    default: Any = None
    choices: Optional[tuple] = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SchemaError(
                f"parameter {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {KINDS}"
            )

    # ------------------------------------------------------------- checking
    def coerce(self, value: Any, where: str = "") -> Any:
        """Validate ``value`` against this spec and return the canonical form.

        ``int`` is accepted where ``float`` is declared (YAML writes ``1``
        for ``1.0``); ``bool`` is *not* accepted as an int.  Lists and
        tuples are accepted for list kinds and canonicalized to tuples; each
        item is checked against ``choices``, and a repeated item is refused
        (each list item names a table row or column).
        """
        ctx = f"{where}: " if where else ""
        if not self.kind.startswith("list["):
            return self._item(value, self.kind, ctx)
        if not isinstance(value, (list, tuple)):
            raise SchemaError(
                f"{ctx}parameter {self.name!r} expects {self.kind}, "
                f"got {type(value).__name__} ({value!r})"
            )
        items: list = []
        for i, v in enumerate(value):
            item = self._item(v, self.kind[5:-1], ctx, index=i)
            if item in items:
                raise SchemaError(f"{ctx}parameter {self.name!r} repeats {item!r}")
            items.append(item)
        return tuple(items)

    def _item(
        self, value: Any, kind: str, ctx: str, index: Optional[int] = None
    ) -> Any:
        """One scalar or list item: coerced to ``kind``, checked against
        ``choices``."""
        at = f"{ctx}parameter {self.name!r}"
        if index is not None:
            at += f"[{index}]"
        out = _coerce_scalar(value, kind, at)
        if self.choices is not None and out not in self.choices:
            raise SchemaError(f"{at} must be one of {self.choices}, got {out!r}")
        return out


def _coerce_scalar(value: Any, kind: str, at: str) -> Any:
    if kind == "bool":
        if isinstance(value, bool):
            return value
    elif kind == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif kind == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind == "str":
        if isinstance(value, str):
            return value
    raise SchemaError(f"{at} expects {kind}, got {type(value).__name__} ({value!r})")


@dataclass(frozen=True)
class ParamSchema:
    """The full parameter table of one base experiment."""

    specs: tuple[ParamSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [s.name for s in self.specs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SchemaError(f"duplicate parameter specs: {sorted(dupes)}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def spec(self, name: str) -> ParamSpec:
        for s in self.specs:
            if s.name == name:
                return s
        raise KeyError(name)

    def resolve(
        self, overrides: Mapping[str, Any], where: str = ""
    ) -> dict[str, Any]:
        """Defaults merged with ``overrides``, fully validated.

        Unknown keys are rejected with the list of accepted names (catching
        typos like ``workload:`` vs ``workloads:`` before any simulation
        runs).
        """
        ctx = f"{where}: " if where else ""
        unknown = sorted(set(overrides) - set(self.names))
        if unknown:
            raise SchemaError(
                f"{ctx}unknown parameter(s) {unknown}; "
                f"this experiment accepts {sorted(self.names)}"
            )
        out: dict[str, Any] = {}
        for s in self.specs:
            if s.name in overrides:
                out[s.name] = s.coerce(overrides[s.name], where=where)
            else:
                out[s.name] = s.default
        return out


def specs(*raw: Sequence) -> ParamSchema:
    """Sugar: ``specs(("workloads", "list[str]", ("fft",)), ...)``."""
    built = []
    for entry in raw:
        if isinstance(entry, ParamSpec):
            built.append(entry)
        else:
            built.append(ParamSpec(*entry))
    return ParamSchema(tuple(built))
