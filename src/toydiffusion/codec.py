"""One JSON codec for every dataclass of the package.

to_payload writes a dataclass as a JSON-ready dict, its fields in order;
from_payload reads one back through the same field annotations, so the
config, the checkpoint and the init file share one schema: a key left out
takes its field's default, and no unknown key, missing required key, value
of the wrong JSON type or NaN or infinity where a number goes passes.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def read_json(path, what: str):
    """Parse the JSON file at path; a syntax error names what and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


@functools.cache
def _kinds(cls) -> dict:
    """The members of each field's annotation, by field name; computed once
    per class, and the caller must not mutate the dict."""
    return {name: get_args(hint) or (hint,)
            for name, hint in get_type_hints(cls).items()}


def _fits(value, kind) -> bool:
    """Whether a JSON value fits one member of a field annotation; a number
    is an int or a finite float, never a bool."""
    if is_dataclass(kind):
        return isinstance(value, dict)
    if kind in (tuple, np.ndarray):
        return isinstance(value, (list, tuple)) and all(_fits(v, float) for v in value)
    if isinstance(value, bool) or kind is bool:
        return kind is bool and isinstance(value, bool)
    if kind is float and isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int if kind is float else kind)


def _in(where: str) -> str:
    return f" in {where}" if where else " at the top level"


def to_payload(obj) -> dict:
    """JSON-ready view of a dataclass: nested dataclasses become objects,
    arrays and tuples lists, and a value of a float field a float."""
    kinds, out = _kinds(type(obj)), {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = to_payload(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, (tuple, list)):
            value = list(value)
        elif value is not None and float in kinds[f.name]:
            value = float(value)
        out[f.name] = value
    return out


def from_payload(cls, payload, where: str = ""):
    """Build cls from a JSON object, with every key a field, every field
    without a default present and every value of its annotated type (ints
    take no float, numbers no bool or string); a key left out takes its
    field's default.  A nested dataclass field is read the same way, named
    where.field; cls's own checks then run, and any error names where.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"expected a JSON object{_in(where)}, "
                          f"got {type(payload).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ConfigError(f"unknown keys{_in(where)}: {unknown}")
    kinds, payload = _kinds(cls), dict(payload)
    missing = [n for n, f in known.items() if n not in payload and f.default is MISSING]
    if missing:
        raise ConfigError(f"missing keys{_in(where)}: {missing}")
    for name, value in payload.items():
        if not any(_fits(value, k) for k in kinds[name]):
            raise ConfigError(f"{name}{_in(where)} must be {known[name].type}, "
                              f"got {reprlib.repr(value)}")
        if isinstance(value, dict):  # only a dataclass member takes one
            nested = next(k for k in kinds[name] if is_dataclass(k))
            inner = f"{where}.{name}" if where else name
            payload[name] = from_payload(nested, value, inner)
    try:
        return cls(**payload)
    except ValueError as exc:
        raise ConfigError(f"{exc}{_in(where)}") from exc
