"""The lab's files: one JSON codec for every dataclass, and every reader and writer.

to_payload writes a dataclass as a JSON-ready dict, its fields in order;
from_payload reads one back through the same field annotations, so the
config, the checkpoint and the init file share one schema: a key left out
takes its field's default, and no unknown key, missing required key, value
of the wrong JSON type or number that is not a finite double passes.
write_json and write_csv refuse to write such a number; check_range is
the one rule for a number's range, which the dataclasses' own checks call.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import reprlib
import sys
import warnings
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def check_range(value, name: str, low=-math.inf, high=math.inf,
                low_open: bool = False, high_open: bool = False):
    """value itself when it lies between low and high, each end closed unless
    its flag opens it; an infinite end is always open, so the defaults admit
    any finite number.  Otherwise ValueError "<name> must lie in <interval>,
    got <value>", the ends written by format's g (NaN fails)."""
    low_open, high_open = low_open or low == -math.inf, high_open or high == math.inf
    if (low < value if low_open else low <= value) and \
            (value < high if high_open else value <= high):
        return value
    interval = f"{'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"
    raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def read_json(path, what: str):
    """Parse the JSON file at path; a syntax error names what and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


_NON_FINITE = "{} would hold a non-finite number"  # the writers' one refusal


def write_json(path, payload, indent=2, sort_keys=True) -> None:
    """Write payload as JSON text, laid out by json.dumps's indent and
    sort_keys, and a newline.  A NaN or an infinity, which from_payload
    rejects, raises FloatingPointError naming path before the file is opened."""
    try:
        text = json.dumps(payload, allow_nan=False, indent=indent, sort_keys=sort_keys)
    except ValueError:  # allow_nan's error, the only one JSON-typed data raises
        raise FloatingPointError(_NON_FINITE.format(path)) from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _fmt(value) -> str:
    # repr of a numpy float is "np.float64(...)" under numpy 2; repr of the
    # builtin float is the shortest round-trip decimal
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, rows) -> None:
    """Write dict rows under a header of the first row's keys, floats
    repr-formatted (shortest round-trip); every row has those keys.  A NaN
    or an infinity raises FloatingPointError before the file is opened."""
    fieldnames = list(rows[0])
    if not all(math.isfinite(v) for row in rows for v in row.values()
               if isinstance(v, (float, np.floating))):
        raise FloatingPointError(_NON_FINITE.format(path))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def write_videos(path, videos) -> None:
    """One CSV row per flattened video, in columns x0, x1, ..., as read_videos reads."""
    flat = np.asarray(videos).reshape(len(videos), -1)
    names = [f"x{i}" for i in range(flat.shape[1])]
    write_csv(path, [dict(zip(names, row)) for row in flat])


def read_videos(path, n_frames: int, frame_dim: int):
    """The (B, n_frames, frame_dim) stack a video CSV holds under the header
    x0, x1, ... that write_videos writes; errors name the data file."""
    with open(path) as fh:
        header = fh.readline()
    names = header.rstrip("\n").split(",")
    if header and names != [f"x{i}" for i in range(len(names))]:
        raise ConfigError(f"data file {path} does not start with the video header "
                          f"x0,x1,...: its first line is {reprlib.repr(header)}")
    with warnings.catch_warnings():
        # an empty file is reported below as the one config error line
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"data file {path}: {exc}") from None
    if data.shape[0] == 0:
        raise ConfigError(f"data file {path} has no data rows")
    if data.shape[1] != n_frames * frame_dim:
        raise ConfigError(f"data file {path} has {data.shape[1]} columns, "
                          f"world needs {n_frames * frame_dim}")
    if not np.isfinite(data).all():
        raise ConfigError(f"data file {path} holds a non-finite value")
    return data.reshape(-1, n_frames, frame_dim)


def config_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_manifest(path, experiment: str, config_payload) -> None:
    """Manifest written beside every report: experiment name, the full
    resolved config with its digest, and the package version.  No
    timestamps — manifests must be byte-identical across reruns."""
    from . import __version__

    manifest = {
        "experiment": experiment,
        "config_digest": config_digest(config_payload),
        "version": f"toydiffusion-{__version__}",
        "config": config_payload,
    }
    write_json(path, manifest)


@functools.cache
def _kinds(cls) -> dict:
    """The members of each field's annotation, by field name; computed once
    per class, and the caller must not mutate the dict."""
    return {name: get_args(hint) or (hint,)
            for name, hint in get_type_hints(cls).items()}


def _fits(value, kind) -> bool:
    """Whether a JSON value fits one member of a field annotation; a number
    is an int or a float, never a bool (its finiteness is from_payload's)."""
    if is_dataclass(kind):
        return isinstance(value, dict)
    if kind in (tuple, np.ndarray):
        return isinstance(value, (list, tuple)) and all(_fits(v, float) for v in value)
    if isinstance(value, bool) or kind is bool:
        return kind is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if kind is float else kind)


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
        numbers = value if isinstance(value, (list, tuple)) else [value]
        if not all(abs(v) <= sys.float_info.max for v in numbers  # NaN fails too
                   if isinstance(v, (int, float))):
            raise ConfigError(f"{name}{_in(where)} must be finite and within a "
                              f"double's range, got {reprlib.repr(value)}")
        if isinstance(value, dict):  # only a dataclass member takes one
            nested = next(k for k in kinds[name] if is_dataclass(k))
            inner = f"{where}.{name}" if where else name
            payload[name] = from_payload(nested, value, inner)
    try:
        return cls(**payload)
    except ValueError as exc:
        raise ConfigError(f"{exc}{_in(where)}") from exc
