"""Command-line front end.

Configuration files are flat ``key = value`` text with ``#`` comments.
Every run writes its outputs as CSV under the configured output
directory together with a ``manifest.txt`` holding the fully resolved
configuration (itself a valid config file), so any run can be reproduced
byte-for-byte from its manifest.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .criteria import FAMILIES, calibrate, boundary_sample
from .engine import Broadcast, EvidenceModel, TopN
from .montecarlo import (
    DEFAULT_TABLE_SEED,
    ExperimentConfig,
    RandomRemainder,
    TABLE_IDS,
    _fmt,
    comparison_to_csv,
    letters_projection,
    reproduce_table,
    result_to_csv_dir,
    run_experiment,
    speed_accuracy_sweep,
    trajectory_ensemble,
)
from .simplex import SimplexPoint

USAGE_ERROR = 2

_CONFIG_KEYS = (
    "n", "prior", "true_index", "tau", "methods", "mu_pos", "c_pos",
    "mu_neg", "c_neg", "scheme", "trials", "max_sequences", "seed", "out_dir",
)

_DEFAULTS = {
    "true_index": "0",
    "methods": ",".join(FAMILIES),
    "scheme": "broadcast",
    "trials": "5000",
    "max_sequences": "100",
    "seed": "0",
    "out_dir": "results",
}


class ConfigError(Exception):
    pass


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key-value config; errors carry the offending line."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.split("#", 1)[0].strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if not value:
                raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
            raw[key] = value
    return raw


def _need(raw: dict[str, str], key: str) -> str:
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    return raw[key]


def _parse_float(raw: dict[str, str], key: str) -> float:
    try:
        return float(_need(raw, key))
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {raw[key]!r}") from None


def _parse_int(raw: dict[str, str], key: str) -> int:
    try:
        return int(_need(raw, key))
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {raw[key]!r}") from None


def build_experiment_config(raw: dict[str, str]) -> tuple[ExperimentConfig, dict[str, str]]:
    """Resolve a raw config into an ExperimentConfig plus the manifest view."""
    resolved = dict(_DEFAULTS)
    resolved.update(raw)

    n = _parse_int(resolved, "n")
    prior_text = _need(resolved, "prior")
    prior: SimplexPoint | RandomRemainder
    if prior_text.startswith("random_remainder:"):
        try:
            prior = RandomRemainder(float(prior_text.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"key 'prior': {exc}") from None
    else:
        try:
            values = [float(v) for v in prior_text.split(",")]
            prior = SimplexPoint.from_probs(values)
        except ValueError as exc:
            raise ConfigError(f"key 'prior': {exc}") from None
        if prior.n != n:
            raise ConfigError(f"key 'prior': has {prior.n} entries but n = {n}")

    methods = tuple(m.strip() for m in resolved["methods"].split(","))

    scheme_text = resolved["scheme"]
    if scheme_text == "broadcast":
        scheme = Broadcast()
    elif scheme_text.startswith("topN:"):
        try:
            scheme = TopN(int(scheme_text.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"key 'scheme': {exc}") from None
    else:
        raise ConfigError(f"key 'scheme': expected 'broadcast' or 'topN:<N>', got {scheme_text!r}")

    model = EvidenceModel(
        mu_pos=_parse_float(resolved, "mu_pos"),
        c_pos=_parse_float(resolved, "c_pos"),
        mu_neg=_parse_float(resolved, "mu_neg"),
        c_neg=_parse_float(resolved, "c_neg"),
    )
    try:
        cfg = ExperimentConfig(
            n=n,
            prior=prior,
            tau=_parse_float(resolved, "tau"),
            methods=methods,
            model=model,
            true_index=_parse_int(resolved, "true_index"),
            scheme=scheme,
            n_trials=_parse_int(resolved, "trials"),
            max_sequences=_parse_int(resolved, "max_sequences"),
            master_seed=_parse_int(resolved, "seed"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, resolved


def write_manifest(out_dir: str, entries: dict[str, str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def _cmd_simulate(args) -> int:
    cfg, resolved = build_experiment_config(parse_config_file(args.config))
    result = run_experiment(cfg)
    out_dir = resolved["out_dir"]
    result_to_csv_dir(result, out_dir)
    write_manifest(out_dir, resolved)
    print(f"wrote results for {len(cfg.methods)} methods x "
          f"{cfg.max_sequences} sequences to {out_dir}")
    return 0


def _cmd_table(args) -> int:
    comp = reproduce_table(args.table, n_trials=args.trials, master_seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    comparison_to_csv(comp, os.path.join(args.out_dir, f"comparison_{args.table}.csv"))
    result_to_csv_dir(comp.result, args.out_dir)
    write_manifest(args.out_dir, {
        "table": args.table,
        "trials": str(args.trials),
        "seed": str(args.seed),
        "tolerance": _fmt(comp.tolerance),
        "out_dir": args.out_dir,
    })
    n_fail = len(comp.failures())
    print(f"table {args.table}: {len(comp.cells) - n_fail}/{len(comp.cells)} cells "
          f"within {comp.tolerance}")
    return 0 if comp.all_pass else 1


def _cmd_sweep(args) -> int:
    cfg, resolved = build_experiment_config(parse_config_file(args.config))
    try:
        taus = [float(t) for t in args.tau_list.split(",")]
    except ValueError:
        print("error: --tau-list must be comma-separated numbers", file=sys.stderr)
        return USAGE_ERROR
    points = speed_accuracy_sweep(cfg, taus)
    out_dir = resolved["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("method,tau,mean_sequences,mean_accuracy\n")
        for p in points:
            fh.write(f"{p.method},{_fmt(p.tau)},{_fmt(p.mean_sequences)},"
                     f"{_fmt(p.mean_accuracy)}\n")
    resolved["tau_list"] = args.tau_list
    write_manifest(out_dir, resolved)
    print(f"wrote {len(points)} sweep points to {out_dir}")
    return 0


def _parse_s_range(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _cmd_bounds(args) -> int:
    cfg, resolved = build_experiment_config(parse_config_file(args.config))
    if not isinstance(cfg.prior, SimplexPoint):
        print("error: key 'prior': bounds need an explicit prior vector", file=sys.stderr)
        return USAGE_ERROR
    try:
        s_values = _parse_s_range(args.s_range)
    except ValueError:
        print("error: --s-range must be 'lo:hi' or comma-separated integers",
              file=sys.stderr)
        return USAGE_ERROR
    probs = np.array(cfg.prior.probs)
    probs[cfg.true_index] = -1.0
    competitor = int(np.argmax(probs))
    query = bounds_mod.BoundQuery(cfg.prior, cfg.true_index, competitor, cfg.tau,
                                  mu=cfg.model.mu_pos, c=cfg.model.c_pos)
    report = bounds_mod.verify_prop5_ordering(query, s_values)
    out_dir = resolved["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bounds.csv"), "w", encoding="utf-8") as fh:
        fh.write("s,tp_m1,tp_mp,tp_m2norm,fa_m1,fa_mp,fa_m1bar,ordering_ok\n")
        for i, s in enumerate(report.s_values):
            if cfg.tau > 0.5:
                q3 = bounds_mod.BoundQuery(cfg.prior, cfg.true_index, competitor,
                                           cfg.tau, mu=cfg.model.mu_pos,
                                           c=cfg.model.c_pos, s=s, rule_kind="M2norm")
                tp3 = _fmt(bounds_mod.stop_probability_lognormal(q3))
            else:
                tp3 = "nan"
            fh.write(",".join([
                str(s), _fmt(report.tp_m1[i]), _fmt(report.tp_mp[i]), tp3,
                _fmt(report.fa_m1[i]), _fmt(report.fa_mp[i]),
                _fmt(report.fa_m1bar[i]), str(report.ok).lower(),
            ]) + "\n")
    resolved["s_range"] = args.s_range
    write_manifest(out_dir, resolved)
    if report.violations:
        print("ordering violations:\n  " + "\n  ".join(report.violations))
    else:
        print(f"wrote bounds for {len(report.s_values)} sequence counts to {out_dir}; "
              "orderings hold")
    return 0


def _cmd_boundary(args) -> int:
    if args.method not in FAMILIES or args.method == "M5":
        print(f"error: method must be one of "
              f"{[m for m in FAMILIES if m != 'M5']}", file=sys.stderr)
        return USAGE_ERROR
    rule = calibrate(args.method, args.tau, 3)
    points = boundary_sample(rule, args.resolution)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"boundary_{args.method}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p1,p2,p3\n")
        for pt in points:
            fh.write(",".join(_fmt(v) for v in pt.probs) + "\n")
    write_manifest(args.out_dir, {
        "method": args.method,
        "tau": _fmt(args.tau),
        "resolution": str(args.resolution),
        "out_dir": args.out_dir,
    })
    print(f"wrote {len(points)} boundary points to {path}")
    return 0


def _cmd_letters(args) -> int:
    value = letters_projection(args.acc, args.eseq, total_letters=args.total,
                               literal=args.literal_pseudocode)
    print(format(value, ".10g"))
    return 0


def _cmd_trajectories(args) -> int:
    cfg, resolved = build_experiment_config(parse_config_file(args.config))
    if not isinstance(cfg.prior, SimplexPoint):
        print("error: key 'prior': trajectories need an explicit prior vector",
              file=sys.stderr)
        return USAGE_ERROR
    ensembles = trajectory_ensemble([cfg.prior], cfg, n_paths=args.paths)
    ens = ensembles[0]
    out_dir = resolved["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    cols = ",".join(f"p{i + 1}" for i in range(cfg.n))
    with open(os.path.join(out_dir, "trajectory_mean.csv"), "w", encoding="utf-8") as fh:
        fh.write("s," + cols + "\n")
        for s, row in enumerate(ens.mean):
            fh.write(str(s) + "," + ",".join(_fmt(v) for v in row) + "\n")
    with open(os.path.join(out_dir, "trajectory_paths.csv"), "w", encoding="utf-8") as fh:
        fh.write("path,s," + cols + "\n")
        for k, path_states in enumerate(ens.paths):
            for s, row in enumerate(path_states):
                fh.write(f"{k},{s}," + ",".join(_fmt(v) for v in row) + "\n")
    resolved["paths"] = str(args.paths)
    write_manifest(out_dir, resolved)
    print(f"wrote {len(ens.paths)} trajectories to {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbc-stoplab",
        description="Recursive Bayesian classification with calibrated stopping rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an experiment from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("table", help="rerun a bundled benchmark table and compare")
    p.add_argument("table", choices=TABLE_IDS)
    p.add_argument("--trials", type=int, default=5000)
    p.add_argument("--seed", type=int, default=DEFAULT_TABLE_SEED)
    p.add_argument("--out-dir", default="results")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sweep", help="speed-accuracy sweep over confidence anchors")
    p.add_argument("config")
    p.add_argument("--tau-list", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="analytic stop/false-stop probabilities")
    p.add_argument("config")
    p.add_argument("--s-range", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("boundary", help="trace a rule's decision boundary on the 3-simplex")
    p.add_argument("method")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out-dir", default="results")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("letters", help="sequences needed to type a full phrase")
    p.add_argument("--acc", type=float, required=True)
    p.add_argument("--eseq", type=float, required=True)
    p.add_argument("--total", type=int, default=100)
    p.add_argument("--literal-pseudocode", action="store_true")
    p.set_defaults(func=_cmd_letters)

    p = sub.add_parser("trajectories", help="simulate trajectory bundles from a prior")
    p.add_argument("config")
    p.add_argument("--paths", type=int, default=100)
    p.set_defaults(func=_cmd_trajectories)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
