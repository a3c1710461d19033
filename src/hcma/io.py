"""Config files, binary snapshots, and report/CSV emission.

Config format: INI-style ``key = value`` under bracketed sections, parsed
with configparser; unknown sections or keys are rejected.  Snapshot format
(all little-endian):

    offset  size  field
    0       8     magic "HCMASNAP"
    8       4     version u32 (currently 1)
    12      12    nt, nx, ny as u32
    24      16    lattice modulus (re, im) as f64
    40      4     converged flag u32
    44      4     newton iterations u32
    48      8     final residual f64
    56      4     config-echo byte length u32
    60      n     config echo, UTF-8
    60+n    -     nt*nx*ny potential values f64, it-major (it, ix, iy)
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import json
import math
import re
import struct
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone

import numpy as np

from .grid import Grid, ScalarField, make_grid
from .solver import (AnnulusProfile, BoundarySpec, ConstantProfile, Solution,
                     SolverConfig)

MAGIC = b"HCMASNAP"
SNAPSHOT_VERSION = 1


class ConfigError(ValueError):
    pass


class SnapshotError(ValueError):
    pass


# profile kind -> (profile class, the config field holding its epsilon)
_PROFILES = {"annulus": (AnnulusProfile, "epsilon"),
             "constant": (ConstantProfile, "epsilon0")}


def _parse_modes(text: str):
    """Fourier mode list 'kx,ky,re,im; ...' -> tuple of (kx, ky, amplitude)."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ConfigError(f"bad boundary mode {chunk!r}: want kx,ky,re,im")
        try:
            kx, ky = int(parts[0]), int(parts[1])
            amp = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ConfigError(f"bad boundary mode {chunk!r}: {exc}") from None
        out.append((kx, ky, amp))
    return tuple(out)


def _fmt_modes(modes) -> str:
    return "; ".join(f"{kx},{ky},{complex(amp).real!r},{complex(amp).imag!r}"
                     for kx, ky, amp in modes)


def _parse_floats(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from None


def _fmt_float(value) -> str:
    """repr of float(value); a numpy scalar's own repr does not parse back."""
    return repr(float(value))


def _fmt_floats(values) -> str:
    return ", ".join(map(_fmt_float, values))


def _parse_kind(text: str) -> str:
    kind = text.strip().lower()
    if kind not in _PROFILES:
        raise ConfigError(f"unknown profile kind {kind!r}")
    return kind


def _one_line(text: str) -> str:
    """Stripped text; a line break inside it would not survive the echo."""
    text = text.strip()
    if "\n" in text:
        raise ConfigError(f"line break in {text!r}")
    return text


def parse_checks(text: str):
    """Check names of a comma list; None (every check) for "" or "all"."""
    names = tuple(map(_one_line, text.split(",")))
    return None if names in (("",), ("all",)) else names


def _parse_starts(text: str):
    starts = tuple(map(_parse_floats, text.split(";"))) if text.strip() else ()
    if any(len(s) != 3 for s in starts):
        raise ConfigError(f"bad trace starts {text!r}: want t,x,y; ...")
    return starts


def _key(section: str, default, parse, fmt=str, key: str | None = None):
    """A config field: the [section] and key (default: the field name) it is
    read from and echoed to, its default, and its text parser and formatter."""
    return dc_field(default=default, metadata={
        "section": section, "key": key, "parse": parse, "fmt": fmt})


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; each field is one INI key, declared once."""

    nt: int = _key("grid", 9, int)
    nx: int = _key("grid", 16, int)
    ny: int = _key("grid", 16, int)
    modulus: complex = _key("grid", 1j, lambda s: complex(s.replace(" ", "")),
                            lambda m: f"{m.real!r}{m.imag:+}j")
    profile_kind: str = _key("profile", "annulus", _parse_kind, key="kind")
    epsilon: float = _key("profile", 1e-3, float, _fmt_float)
    epsilon0: float = _key("profile", 0.25, float, _fmt_float)
    # continuation epsilons, decreasing
    schedule: tuple = _key("profile", (), _parse_floats, _fmt_floats)
    phi0_modes: tuple = _key("boundary", (), _parse_modes, _fmt_modes, "phi0")
    phi1_modes: tuple = _key("boundary", (), _parse_modes, _fmt_modes, "phi1")
    lambdas: tuple = _key("sweep", (), _parse_floats, _fmt_floats)
    newton_tol: float = _key("solver", SolverConfig.newton_tol, float, _fmt_float)
    max_newton_iters: int = _key("solver", SolverConfig.max_newton_iters, int)
    max_halvings: int = _key("solver", SolverConfig.max_halvings, int)
    admissibility_margin: float = _key(
        "solver", SolverConfig.admissibility_margin, float, _fmt_float)
    out_dir: str = _key("run", "out", _one_line)
    seed: int = _key("run", 0, int)
    checks: tuple | None = _key("run", None, parse_checks,  # None = all
                                lambda c: "all" if c is None else ", ".join(c))
    trace_starts: tuple = _key(
        "trace", (), _parse_starts,
        lambda starts: "; ".join(f"{t!r},{x!r},{y!r}" for t, x, y in starts),
        "starts")
    trace_step: float = _key("trace", 0.01, float, _fmt_float, "step")

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from None
        for section in cp.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key in cp[section]:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        values = {}
        for section, key, f in _KEYS:
            if cp.has_option(section, key):
                try:
                    values[f.name] = f.metadata["parse"](cp.get(section, key))
                except (ValueError, TypeError) as exc:
                    raise ConfigError(
                        f"bad value for {key!r} in [{section}]: {exc}") from None
        return cls(**values)

    def serialize(self) -> str:
        blocks = {}
        for section, key, f in _KEYS:
            blocks.setdefault(section, [f"[{section}]"]).append(
                f"{key} = {f.metadata['fmt'](getattr(self, f.name))}")
        return "\n".join("\n".join(lines) + "\n" for lines in blocks.values())

    # --- object factories ---
    def make_grid(self) -> Grid:
        return make_grid(self.nt, self.nx, self.ny, self.modulus)

    def make_profile(self, epsilon: float | None = None):
        profile, key = _PROFILES[self.profile_kind]
        return profile(getattr(self, key) if epsilon is None else epsilon)

    def make_boundary(self) -> BoundarySpec:
        return BoundarySpec(phi0=self.phi0_modes, phi1=self.phi1_modes)

    def make_solver_config(self) -> SolverConfig:
        return SolverConfig(**{f.name: getattr(self, f.name)
                               for f in dataclasses.fields(SolverConfig)})


# (section, key, field) of every config key, in echo order
_KEYS = tuple((f.metadata["section"], f.metadata["key"] or f.name, f)
              for f in dataclasses.fields(ExperimentConfig))
_SCHEMA = {section: {key for s, key, _ in _KEYS if s == section}
           for section, _, _ in _KEYS}


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


# --- snapshots ---------------------------------------------------------------

@dataclass
class Snapshot:
    config_text: str
    nt: int
    nx: int
    ny: int
    modulus: complex
    converged: bool
    iterations: int
    final_residual: float
    values: np.ndarray = dc_field(repr=False, default=None)

    @classmethod
    def from_solution(cls, solution, config: ExperimentConfig) -> "Snapshot":
        """Snapshot whose config echo carries the solution's own epsilon and
        boundary modes (a ladder rung's, not the base config's)."""
        g = solution.grid
        key = _PROFILES[config.profile_kind][1]
        config = dataclasses.replace(
            config, phi0_modes=solution.boundary.phi0,
            phi1_modes=solution.boundary.phi1,
            **{key: getattr(solution.profile, key, getattr(config, key))})
        return cls(config_text=config.serialize(), nt=g.nt, nx=g.nx, ny=g.ny,
                   modulus=g.lattice.modulus, converged=solution.converged,
                   iterations=solution.iterations,
                   final_residual=solution.final_residual,
                   values=solution.phi.values)

    def save(self, path) -> None:
        cfg = self.config_text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IIII", SNAPSHOT_VERSION,
                                 self.nt, self.nx, self.ny))
            fh.write(struct.pack("<dd", self.modulus.real, self.modulus.imag))
            fh.write(struct.pack("<IId", int(self.converged),
                                 self.iterations, self.final_residual))
            fh.write(struct.pack("<I", len(cfg)))
            fh.write(cfg)
            # the array's own buffer: no copy unless it is strided or not
            # little-endian float64
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").data)

    @classmethod
    def load(cls, path) -> "Snapshot":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None
        if len(raw) < 60 or raw[:8] != MAGIC:
            raise SnapshotError("bad snapshot magic")
        version, nt, nx, ny = struct.unpack_from("<IIII", raw, 8)
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        mre, mim = struct.unpack_from("<dd", raw, 24)
        conv, iters, res = struct.unpack_from("<IId", raw, 40)
        (cfg_len,) = struct.unpack_from("<I", raw, 56)
        try:
            cfg = raw[60:60 + cfg_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"config echo is not UTF-8: {exc}") from None
        n = nt * nx * ny
        body = raw[60 + cfg_len:]
        if len(body) != 8 * n:
            raise SnapshotError(
                f"snapshot payload {len(body)} bytes, expected {8 * n}")
        values = np.frombuffer(body, dtype="<f8").reshape(nt, nx, ny).copy()
        return cls(config_text=cfg, nt=nt, nx=nx, ny=ny,
                   modulus=complex(mre, mim), converged=bool(conv),
                   iterations=iters, final_residual=res, values=values)

    def to_solution(self):
        """Rebuild a Solution from the embedded config echo."""
        config = ExperimentConfig.parse(self.config_text)
        try:
            grid = make_grid(self.nt, self.nx, self.ny, self.modulus)
            phi = ScalarField(grid, self.values)
            profile = config.make_profile()
        except ValueError as exc:     # GridError, or a non-positive epsilon
            raise SnapshotError(f"snapshot is not a solution: {exc}") from None
        return Solution(
            phi=phi, grid=grid, profile=profile,
            boundary=config.make_boundary(), converged=self.converged,
            final_residual=self.final_residual,
            iterations=self.iterations), config


# --- reports and CSV ---------------------------------------------------------

def _finite_or_null(obj):
    """obj with each non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def report_json(report_dict: dict, timestamp: bool = True) -> str:
    """Deterministic, strict JSON: a non-finite number is written as null.
    The timestamp lives in its own meta field so comparisons can strip it."""
    out = dict(report_dict)
    meta = dict(out.get("meta", {}))
    if timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    out["meta"] = meta
    return json.dumps(_finite_or_null(out), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_report(report_dict: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report_dict))


# Values of an array column turned into Python objects at a time, so no
# column is held whole as Python objects.
CSV_BLOCK_ROWS = 1024
_CSV_QUOTED = re.compile('[,"\r\n]')   # csv.writer quotes a text holding one


def _csv_cells(column):
    """A column's cells: a tuple's pieces laid end to end, a numpy array's
    values a block at a time, and a list's as they are, each text quoted
    if it holds a comma, a quote or a line break."""
    if isinstance(column, tuple):
        return itertools.chain.from_iterable(map(_csv_cells, column))
    if isinstance(column, np.ndarray):
        return itertools.chain.from_iterable(
            column[i:i + CSV_BLOCK_ROWS].tolist()
            for i in range(0, len(column), CSV_BLOCK_ROWS))
    return ('"' + c.replace('"', '""') + '"'
            if isinstance(c, str) and _CSV_QUOTED.search(c) else c
            for c in column)


def write_csv(path, header, columns) -> None:
    """CSV of a header row and then equal-length columns (int or float
    arrays, lists, or tuples of such pieces), lines ending in CRLF.  Ints
    and floats are written with str, which for a float is its repr, so
    each parses back bitwise."""
    row = ",".join(["%s"] * len(header)) + "\r\n"
    rows = zip(*map(_csv_cells, columns), strict=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(row % tuple(_csv_cells(list(header))))
        fh.writelines(map(row.__mod__, rows))


def write_fields_csv(path, grid: Grid, fields: dict) -> None:
    """Node-per-row CSV: it, ix, iy, then one column per named field."""
    index = np.indices(grid.shape, dtype=np.int32).reshape(3, -1)
    write_csv(path, ["it", "ix", "iy", *fields], [*index, *(
        np.asarray(f, dtype=float).ravel() for f in fields.values())])


def write_leaf_csv(path, path_obj) -> None:
    write_csv(path, ["t", "re_z", "im_z", "q_b"], [
        path_obj.ts, path_obj.zs.real, path_obj.zs.imag, path_obj.qb_samples])
