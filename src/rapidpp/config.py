"""Parsing and validation of JSON configuration documents.

Model documents::

    {"type": "mmpp", "generator": [[-1, 1], [1, -1]], "rates": [0, 2], "initial_state": 0}
    {"type": "periodic", "breakpoints": [0, 0.5], "values": [2, 0]}
    {"type": "constant", "rate": 1.0}
    {"type": "renewal_gamma", "shape": 2, "rate": 2}

Service documents::

    {"type": "exponential", "rate": 1.0}
    {"type": "erlang", "shape": 2, "rate": 2.0}
    {"type": "uniform", "a": 0.0, "b": 2.0}

Violations raise :class:`ConfigError` carrying the offending field path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from .arrivals import (
    Model,
    PeriodicIntensity,
    PoissonBase,
    RenewalGammaBase,
    _check_eps_grid,
    _check_eps_t,
)
from .errors import ConfigError
from .expansions import (
    ErlangService,
    ExponentialService,
    ServiceModel,
    UniformService,
    _check_kmax,
    _check_truncation_mass,
)
from .harness import _check_reps, _check_seed, _check_workers
from .markov_env import CtmcModel, GeneratorMatrix

__all__ = [
    "ExperimentConfig",
    "parse_model",
    "parse_service",
    "parse_experiment_config",
    "load_config_file",
    "resolved_config_dict",
    "canonical_config",
    "config_sha256",
]


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError("missing required field", f"{path}.{key}" if path else key)
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    # json.loads reads NaN, Infinity and integers too long for a float.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError("expected a finite number", path)
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return value


def _matrix(value, path: str) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise ConfigError("expected a non-empty list of rows", path)
    return [_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]


def _vector(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError("expected a list of numbers", path)
    # A row of plain ints and finite floats converts in bulk; any other row
    # goes entry by entry, so that the error names the first bad entry.
    if set(map(type, value)) <= {int, float}:
        try:
            row = list(map(float, value))
        except OverflowError:
            pass
        else:
            if all(map(math.isfinite, row)):
                return row
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]


def parse_model(obj, path: str = "model") -> Model:
    """Parse a model document into its domain object."""
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    kind = _require(obj, "type", path)
    try:
        if kind == "mmpp":
            gen = GeneratorMatrix(_matrix(_require(obj, "generator", path), f"{path}.generator"))
            rates = _vector(_require(obj, "rates", path), f"{path}.rates")
            initial = _integer(obj.get("initial_state", 0), f"{path}.initial_state")
            return CtmcModel(gen, rates, initial)
        if kind == "periodic":
            return PeriodicIntensity(
                _vector(_require(obj, "breakpoints", path), f"{path}.breakpoints"),
                _vector(_require(obj, "values", path), f"{path}.values"),
            )
        if kind == "constant":
            return PoissonBase(_number(_require(obj, "rate", path), f"{path}.rate"))
        if kind == "renewal_gamma":
            return RenewalGammaBase(
                _number(_require(obj, "shape", path), f"{path}.shape"),
                _number(_require(obj, "rate", path), f"{path}.rate"),
            )
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc
    raise ConfigError(f"unknown model type {kind!r}", f"{path}.type")


def parse_service(obj, path: str = "service") -> ServiceModel:
    """Parse a service document into its domain object."""
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    kind = _require(obj, "type", path)
    try:
        if kind == "exponential":
            return ExponentialService(_number(_require(obj, "rate", path), f"{path}.rate"))
        if kind == "erlang":
            return ErlangService(
                _integer(_require(obj, "shape", path), f"{path}.shape"),
                _number(_require(obj, "rate", path), f"{path}.rate"),
            )
        if kind == "uniform":
            return UniformService(
                _number(_require(obj, "a", path), f"{path}.a"),
                _number(_require(obj, "b", path), f"{path}.b"),
            )
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc
    raise ConfigError(f"unknown service type {kind!r}", f"{path}.type")


@dataclass
class ExperimentConfig:
    """Resolved configuration shared by every command."""

    raw: dict
    model: Model
    service: ServiceModel | None
    kind: str
    t: float
    eps: float | None
    eps_grid: list[float] | None
    reps: int
    master_seed: int
    kmax: int | None
    workers: int
    tv_limit: bool
    truncation_mass: float
    out: str | None


_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)} - {"raw"}


def parse_experiment_config(obj) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("top-level document must be an object")
    unknown = set(obj) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown field(s): {sorted(unknown)}")
    model = parse_model(_require(obj, "model", ""))
    service = parse_service(obj["service"]) if obj.get("service") is not None else None

    kind = obj.get("kind", "counts")
    if kind not in ("counts", "queue"):
        raise ConfigError(f"expected 'counts' or 'queue', got {kind!r}", "kind")
    if kind == "queue" and service is None:
        raise ConfigError("queue experiments require a service spec", "service")
    if isinstance(model, PeriodicIntensity) and service is not None:
        raise ConfigError("periodic models do not take a service spec", "service")

    # The library's own rules, checked before any command runs; an absent eps checks t alone.
    t = _number(obj.get("t", 1.0), "t")
    eps = obj.get("eps")
    if eps is not None:
        eps = _number(eps, "eps")
    _check_eps_t(1.0 if eps is None else eps, t, eps_zero=True)
    eps_grid = obj.get("eps_grid")
    if eps_grid is not None:
        eps_grid = _check_eps_grid(_vector(eps_grid, "eps_grid"))
    if eps is not None and eps_grid is not None:
        raise ConfigError("give either eps or eps_grid, not both", "eps")

    reps = _integer(obj.get("reps", 100_000), "reps")
    _check_reps(reps)
    master_seed = _integer(obj.get("master_seed", 0), "master_seed")
    _check_seed(master_seed)
    kmax = obj.get("kmax")
    if kmax is not None:
        kmax = _integer(kmax, "kmax")
        _check_kmax(kmax)
    workers = _integer(obj.get("workers", 1), "workers")
    _check_workers(workers)
    tv_limit = obj.get("tv_limit", False)
    if not isinstance(tv_limit, bool):
        raise ConfigError("expected true or false", "tv_limit")
    truncation_mass = _number(obj.get("truncation_mass", 1e-10), "truncation_mass")
    _check_truncation_mass(truncation_mass)
    out = obj.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("expected a string path", "out")

    return ExperimentConfig(
        raw=obj,
        model=model,
        service=service,
        kind=kind,
        t=t,
        eps=eps,
        eps_grid=eps_grid,
        reps=reps,
        master_seed=master_seed,
        kmax=kmax,
        workers=workers,
        tv_limit=tv_limit,
        truncation_mass=truncation_mass,
        out=out,
    )


def load_config_file(path: str) -> dict:
    """Read a JSON config; parse failures raise ConfigError with line/column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    """Effective configuration with defaults filled.

    Execution-resource fields (workers) and the output destination are
    excluded so results from different worker counts compare byte-for-byte.
    """
    doc = {
        "model": cfg.raw["model"],
        "kind": cfg.kind,
        "t": cfg.t,
        "reps": cfg.reps,
        "master_seed": cfg.master_seed,
        "tv_limit": cfg.tv_limit,
        "truncation_mass": cfg.truncation_mass,
    }
    if cfg.service is not None:
        doc["service"] = cfg.raw["service"]
    if cfg.eps is not None:
        doc["eps"] = cfg.eps
    if cfg.eps_grid is not None:
        doc["eps_grid"] = cfg.eps_grid
    if cfg.kmax is not None:
        doc["kmax"] = cfg.kmax
    return doc


def canonical_config(cfg: ExperimentConfig) -> str:
    """The resolved configuration as compact JSON with sorted keys, as hashed and printed."""
    return json.dumps(resolved_config_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_sha256(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_config(cfg).encode("utf-8")).hexdigest()
