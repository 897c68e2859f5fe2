"""Command-line front end.

Subcommands: analyze | expand | simulate | validate | tv-limit.
Flags: --config PATH, --out PATH, --seed U64, --reps N (each overrides its
config field), and simulate-only --kind counts|queue.

Exit codes: 0 success, 2 config error (ConfigError: from the parser, which
reports a model constructor's ValueError on ``model``, or a library
ArgumentError naming its field), 3 numerical failure
(SingularSystemError: a modulated count table needing generator entries below
double precision, a stationary or g solve that is singular or leaves double
range, a first-order pmf out of double range, a long-run rate pi . f, a
baseline mean or validate's baseline pmf that underflows to zero, rate ratios
rates / lambda_star past the largest double, a NaN sigma2, or a JSON field
such as sigma2 that is not finite), 4 guard violation
(EnumerationTooLargeError: the TV limit's product grid, tv-limit's Monte Carlo
reps, the renewal CDF table, an environment segment walk, a default kmax or a
Poisson mean is too large).
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's first parser imports it: load it with the package
import os
import sys

import numpy as np

from .config import (
    ExperimentConfig,
    canonical_config,
    config_sha256,
    load_config_file,
    parse_experiment_config,
    resolved_config_dict,
)
from .errors import ConfigError, EnumerationTooLargeError, SingularSystemError
from .expansions import (  # noqa: F401
    PmfVector,
    corrected_count_pmf,  # patched by bench/tracer.py; not called here
    corrected_count_pmf_periodic,  # patched by bench/tracer.py; not called here
    corrected_queue_pmf,  # patched by bench/tracer.py; not called here
    eta_squared,
    poisson_pmf,  # patched by bench/tracer.py; not called here
    tv_limit_exact,
    tv_limit_mc,
)
from .harness import ExperimentSpec, convergence_study, estimate_pmf
from .markov_env import CtmcModel, analyze

__all__ = ["main"]


def _open_out(out: str, mode: str):
    try:
        return open(out, mode, encoding="utf-8", newline="\n")
    except OSError as exc:  # a missing directory, a directory, no permission
        raise ConfigError(f"cannot open for writing: {exc.strerror}", "out") from exc


def _check_out(out: str | None):
    """Fail before the work on an output path that cannot be opened; an existing file is
    opened for appending, so it is not truncated, and a file this check creates is removed."""
    if out:
        existed = os.path.lexists(out)
        _open_out(out, "a").close()
        if not existed:
            os.remove(out)


def _emit(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    with _open_out(out, "w") as fh:
        fh.write(text)


def _json_doc(cfg: ExperimentConfig, body: dict) -> str:
    """``body`` with the resolved config and its hash; a field holding inf or NaN, which
    JSON has no number for, raises SingularSystemError naming the field."""
    for key, value in body.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise SingularSystemError(f"{key} is not finite") from None
    doc = dict(body)
    doc["config"] = resolved_config_dict(cfg)
    doc["config_sha256"] = config_sha256(cfg)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_doc(cfg: ExperimentConfig, base: PmfVector, corrected: PmfVector, **estimate) -> str:
    """Config header comments, then a row per count k: k, each ``estimate`` column, both pmfs."""
    columns = {**estimate, "p_poisson": base.probs, "p_corrected": corrected.probs}
    lines = [
        f"# config_sha256: {config_sha256(cfg)}",
        f"# config: {canonical_config(cfg)}",
        f"# truncation_mass: {base.truncation_mass!r}",
        ",".join(["k", *columns]),
    ]
    for k, row in enumerate(zip(*columns.values())):
        lines.append(f"{k}," + ",".join(f"{float(x)!r}" for x in row))
    return "\n".join(lines) + "\n"


def _require_mmpp(cfg: ExperimentConfig) -> CtmcModel:
    if not isinstance(cfg.model, CtmcModel):
        raise ConfigError("this command requires an mmpp model", "model.type")
    return cfg.model


def _experiment(cfg: ExperimentConfig) -> ExperimentSpec:
    service = cfg.service if cfg.kind == "queue" else None
    return ExperimentSpec(cfg.model, cfg.t, cfg.eps, service)


def _cmd_analyze(cfg: ExperimentConfig, out: str | None) -> int:
    model = _require_mmpp(cfg)
    analysis = analyze(model)
    body = {
        "pi": analysis.pi.tolist(),
        "lambda_star": analysis.lambda_star,
        "g": analysis.g.tolist(),
        "sigma2": analysis.sigma2,
    }
    if cfg.service is not None:
        body["eta2"] = eta_squared(analysis.sigma2, cfg.service, cfg.t)
    if cfg.tv_limit:
        body["tv_limit"] = tv_limit_exact(model, cfg.t, cfg.truncation_mass)
    _emit(_json_doc(cfg, body), out)
    return 0


def _cmd_expand(cfg: ExperimentConfig, out: str | None) -> int:
    base, corrected = _experiment(cfg).expansion(cfg.kmax)
    _emit(_csv_doc(cfg, base, corrected), out)
    return 0


def _cmd_simulate(cfg: ExperimentConfig, out: str | None) -> int:
    spec = _experiment(cfg)
    base, corrected = spec.expansion(cfg.kmax)
    est = estimate_pmf(
        spec, cfg.reps, cfg.master_seed, kmax=base.kmax, workers=cfg.workers
    )
    doc = _csv_doc(cfg, base, corrected, p_hat=est.probs, ci_low=est.ci_low, ci_high=est.ci_high)
    _emit(doc, out)
    return 0


def _cmd_validate(cfg: ExperimentConfig, out: str | None) -> int:
    if cfg.eps_grid is None:
        raise ConfigError("missing required field", "eps_grid")
    service = cfg.service if cfg.kind == "queue" else None
    report = convergence_study(
        cfg.model,
        service,
        cfg.eps_grid,
        cfg.t,
        cfg.reps,
        cfg.master_seed,
        kmax=cfg.kmax,
        workers=cfg.workers,
    )
    _emit(_json_doc(cfg, report.to_json_dict()), out)
    return 0


def _cmd_tv_limit(cfg: ExperimentConfig, out: str | None, reps_requested: bool) -> int:
    model = _require_mmpp(cfg)
    body = {"tv_limit_exact": tv_limit_exact(model, cfg.t, cfg.truncation_mass)}
    if reps_requested:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.master_seed))
        est, se = tv_limit_mc(model, cfg.t, cfg.reps, rng)
        body["tv_limit_mc"] = {"estimate": est, "se": se, "reps": cfg.reps}
    _emit(_json_doc(cfg, body), out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rapidpp",
        description="Simulation and analytics for rapidly modulated arrival processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "expand", "simulate", "validate", "tv-limit"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON configuration file")
        sp.add_argument("--out", help="output path (overrides config; defaults to stdout)")
        if name in ("simulate", "validate", "tv-limit"):
            sp.add_argument("--seed", type=int, help="override master_seed")
            sp.add_argument("--reps", type=int, help="override replication count")
        if name == "simulate":
            sp.add_argument("--kind", choices=["counts", "queue"], help="override experiment kind")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = load_config_file(args.config)
        if not isinstance(raw, dict):
            raise ConfigError("top-level document must be an object")
        if getattr(args, "seed", None) is not None:
            raw["master_seed"] = args.seed
        if getattr(args, "reps", None) is not None:
            raw["reps"] = args.reps
        if getattr(args, "kind", None) is not None:
            raw["kind"] = args.kind
        cfg = parse_experiment_config(raw)
        out = args.out or cfg.out
        _check_out(out)
        if args.command == "analyze":
            return _cmd_analyze(cfg, out)
        if args.command == "expand":
            return _cmd_expand(cfg, out)
        if args.command == "simulate":
            return _cmd_simulate(cfg, out)
        if args.command == "validate":
            return _cmd_validate(cfg, out)
        reps_requested = "reps" in raw
        return _cmd_tv_limit(cfg, out, reps_requested)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except EnumerationTooLargeError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 4
