"""Command-line front end.

Configuration files are flat ``key = value`` text with ``#`` comments.
Every run writes its outputs as CSV under the configured output
directory together with a ``manifest.txt`` holding the fully resolved
configuration and the random-number layout (``rng_layout``), all
through :func:`write_outputs`.  The manifests of
``simulate``, ``sweep``, ``bounds`` and ``trajectories`` are valid config
files that rerun their own command byte-for-byte.

Errors are named in one place, :func:`main`: a rejected value, or one
too large to hold, is reported with the flag that set it when the flag
was given, otherwise with its config key.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import bounds as bounds_mod
from .criteria import FAMILIES, calibrate, boundary_sample
from .engine import RNG_LAYOUT, Broadcast, EvidenceModel, TopN
from .montecarlo import (
    DEFAULT_TABLE_SEED,
    ExperimentConfig,
    RandomRemainder,
    TABLE_IDS,
    TooLarge,
    _held,
    comparison_to_csv,
    format_cell,
    letters_projection,
    reproduce_table,
    result_to_csv_dir,
    run_experiment,
    speed_accuracy_sweep,
    trajectory_ensemble,
    write_csv,
)
from .simplex import SimplexPoint

USAGE_ERROR = 2

_CONFIG_KEYS = (
    "n", "prior", "true_index", "tau", "methods", "mu_pos", "c_pos",
    "mu_neg", "c_neg", "scheme", "trials", "max_sequences", "seed", "out_dir", "rng_layout",
)

# the config key behind each experiment config field, which its errors name
_FIELD_KEYS = {**{key: f"key {key!r}" for key in _CONFIG_KEYS}, "n_trials": "key 'trials'"}

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


def parse_config_file(path: str, own_key: str | None = None) -> dict[str, str]:
    """Read a flat key-value config, each key at most once; errors carry
    the offending line.

    ``own_key`` is the one extra key a command accepts: the value of its
    own option, which its manifest records.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.split("#", 1)[0].strip()
            if key not in _CONFIG_KEYS and key != own_key:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if not value:
                raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats the one on line "
                                  f"{lines[key]}")
            raw[key], lines[key] = value, lineno
    return raw


def _need(raw: dict[str, str], key: str) -> str:
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    return raw[key]


def _parse_number(raw: dict[str, str], key: str, kind: type = float) -> float | int:
    """The value of ``key`` as a ``kind`` (``float`` or ``int``)."""
    try:
        return kind(_need(raw, key))
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r}: not {noun}: {raw[key]!r}") from None


def build_experiment_config(raw: dict[str, str]) -> tuple[ExperimentConfig, dict[str, str]]:
    """Resolve a raw config into an ExperimentConfig plus the manifest view."""
    resolved = dict(_DEFAULTS)
    resolved.update(raw)
    if resolved.get("rng_layout", RNG_LAYOUT) != RNG_LAYOUT:
        raise ConfigError(f"key 'rng_layout': this version draws with {RNG_LAYOUT!r}, so a run "
                          f"recorded with {resolved['rng_layout']!r} cannot be reproduced")

    n = _parse_number(resolved, "n", int)
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

    try:
        cfg = ExperimentConfig(
            n=n,
            prior=prior,
            tau=_parse_number(resolved, "tau"),
            methods=methods,
            model=EvidenceModel(**{key: _parse_number(resolved, key)
                                   for key in ("mu_pos", "c_pos", "mu_neg", "c_neg")}),
            true_index=_parse_number(resolved, "true_index", int),
            scheme=scheme,
            n_trials=_parse_number(resolved, "trials", int),
            max_sequences=_parse_number(resolved, "max_sequences", int),
            master_seed=_parse_number(resolved, "seed", int),
        )
    except (ValueError, TooLarge) as exc:
        raise ConfigError(_named(exc, _FIELD_KEYS)) from None
    return cfg, resolved


def _own_option(args, resolved: dict[str, str], key: str, param: str,
                default: str | None = None) -> str:
    """A command's own option: its flag if given, else the config's ``key``,
    else ``default``; the manifest records the value used, and errors in
    the library parameter ``param`` name the flag or the key."""
    flag, option = getattr(args, key), f"--{key.replace('_', '-')}"
    args.names[param] = option if flag is not None else f"key {key!r}"
    if flag is not None:
        resolved[key] = str(flag)
    elif key not in resolved:
        if default is None:
            raise ConfigError(f"{option} is required (or key {key!r} in the config)")
        resolved[key] = default
    return resolved[key]


def _named(exc: Exception, names: dict[str, str]) -> str:
    """``exc``'s message, prefixed with what the user typed: for a
    ``TooLarge``, the options or keys that set the array's size; for a
    ``ValueError`` whose message starts with a parameter in ``names``, the
    option or key that set that parameter."""
    if isinstance(exc, TooLarge):
        return f"{' and '.join(names[field] for field in exc.fields)}: {exc}"
    param = str(exc).split(" ", 1)[0]
    return f"{names[param]}: {exc}" if isinstance(exc, ValueError) and param in names else str(exc)


def write_outputs(out_dir: str, manifest: dict, csvs=(), result=None,
                  comparison=None) -> None:
    """Create ``out_dir``, write a run's CSVs, then its ``manifest.txt``,
    which ends with the ``rng_layout`` the run drew with.

    ``csvs`` holds ``(file name, header, rows)`` triples; ``result`` adds
    the experiment matrices and summary, ``comparison`` a table comparison.
    """
    os.makedirs(out_dir, exist_ok=True)
    if comparison is not None:
        comparison_to_csv(comparison,
                          os.path.join(out_dir, f"comparison_{comparison.table}.csv"))
    if result is not None:
        result_to_csv_dir(result, out_dir)
    for name, header, rows in csvs:
        write_csv(os.path.join(out_dir, name), header, rows)
    manifest = {**manifest, "rng_layout": RNG_LAYOUT}
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {format_cell(value)}\n" for key, value in manifest.items())


def _cmd_simulate(args) -> int:
    cfg, resolved = build_experiment_config(parse_config_file(args.config))
    result = run_experiment(cfg)
    write_outputs(resolved["out_dir"], resolved, result=result)
    print(f"wrote results for {len(cfg.methods)} methods x "
          f"{cfg.max_sequences} sequences to {resolved['out_dir']}")
    return 0


def _cmd_table(args) -> int:
    args.names.update(n_trials="--trials", seed="--seed")
    comp = reproduce_table(args.table, args.trials, args.seed)
    write_outputs(args.out_dir, {"table": args.table, "trials": args.trials, "seed": args.seed,
                                 "tolerance": comp.tolerance, "out_dir": args.out_dir},
                  result=comp.result, comparison=comp)
    n_fail = len(comp.failures())
    print(f"table {args.table}: {len(comp.cells) - n_fail}/{len(comp.cells)} cells "
          f"within {comp.tolerance}")
    return 0 if comp.all_pass else 1


def _cmd_sweep(args) -> int:
    cfg, resolved = build_experiment_config(parse_config_file(args.config, "tau_list"))
    text = _own_option(args, resolved, "tau_list", "tau")
    try:
        taus = [float(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"{args.names['tau']} must be comma-separated numbers") from None
    points = speed_accuracy_sweep(cfg, taus)
    write_outputs(resolved["out_dir"], resolved, [(
        "sweep.csv", ["method", "tau", "mean_sequences", "mean_accuracy"],
        ([p.method, p.tau, p.mean_sequences, p.mean_accuracy] for p in points))])
    print(f"wrote {len(points)} sweep points to {resolved['out_dir']}")
    return 0


def _parse_s_range(text: str, name: str) -> list[int]:
    """Sequence counts from ``lo:hi`` or comma-separated integers; ``name``
    is the option or key the text came from, and a range too long to hold
    raises :class:`TooLarge` for the ``s`` parameter."""
    try:
        if ":" in text:
            lo, hi = (int(v) for v in text.split(":", 1))
            with _held(("s",), f"{hi + 1 - lo} sequence counts"):
                np.empty(max(hi + 1 - lo, 0), dtype=np.intp)  # as large as the list's pointers
            values = list(range(lo, hi + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{name} must be 'lo:hi' or comma-separated integers, "
                          f"got {text!r}") from None
    if not values:
        raise ConfigError(f"{name} must list at least one sequence count, got {text!r}")
    if min(values) < 1:
        raise ConfigError(f"{name} must hold sequence counts of at least 1, got {text!r}")
    return values


def _cmd_bounds(args) -> int:
    cfg, resolved = build_experiment_config(parse_config_file(args.config, "s_range"))
    if not isinstance(cfg.prior, SimplexPoint):
        raise ConfigError("key 'prior': bounds need an explicit prior vector")
    s_values = _parse_s_range(_own_option(args, resolved, "s_range", "s"), args.names["s"])
    probs = np.array(cfg.prior.probs)
    probs[cfg.true_index] = -1.0
    competitor = int(np.argmax(probs))
    query = bounds_mod.BoundQuery(cfg.prior, cfg.true_index, competitor, cfg.tau,
                                  mu=cfg.model.mu_pos, c=cfg.model.c_pos)
    report = bounds_mod.verify_prop5_ordering(query, s_values)
    rows = []
    for i, s in enumerate(report.s_values):
        tp_m2norm = (bounds_mod.stop_probability_lognormal(
            replace(query, s=s, rule_kind="M2norm")) if cfg.tau > 0.5 else np.nan)
        rows.append([s, report.tp_m1[i], report.tp_mp[i], tp_m2norm, report.fa_m1[i],
                     report.fa_mp[i], report.fa_m1bar[i], report.ok])
    write_outputs(resolved["out_dir"], resolved, [(
        "bounds.csv", ["s", "tp_m1", "tp_mp", "tp_m2norm", "fa_m1", "fa_mp", "fa_m1bar",
                       "ordering_ok"], rows)])
    if report.violations:
        print("ordering violations:\n  " + "\n  ".join(report.violations))
    else:
        print(f"wrote bounds for {len(report.s_values)} sequence counts to "
              f"{resolved['out_dir']}; orderings hold")
    return 0


def _cmd_boundary(args) -> int:
    if args.resolution < 3:
        raise ConfigError(f"--resolution must be at least 3, got {args.resolution}")
    args.names.update(tau="--tau", resolution="--resolution")
    rule = calibrate(args.method, args.tau, 3)
    with _held(("resolution",), f"the directions of {args.resolution} rays"):
        np.empty((args.resolution, 3))  # held by boundary_sample before it traces any ray
    points = boundary_sample(rule, args.resolution)
    name = f"boundary_{args.method}.csv"
    write_outputs(args.out_dir, {"method": args.method, "tau": args.tau,
                                 "resolution": args.resolution, "out_dir": args.out_dir},
                  [(name, ["p1", "p2", "p3"], (pt.probs for pt in points))])
    print(f"wrote {len(points)} boundary points to {os.path.join(args.out_dir, name)}")
    return 0


def _cmd_letters(args) -> int:
    args.names.update(acc="--acc", e_seq="--eseq", total_letters="--total")
    value = letters_projection(args.acc, args.eseq, total_letters=args.total,
                               literal=args.literal_pseudocode)
    print(format(value, ".10g"))
    return 0


def _cmd_trajectories(args) -> int:
    cfg, resolved = build_experiment_config(parse_config_file(args.config, "paths"))
    if not isinstance(cfg.prior, SimplexPoint):
        raise ConfigError("key 'prior': trajectories need an explicit prior vector")
    _own_option(args, resolved, "paths", "n_trials", default="100")
    ens = trajectory_ensemble(cfg, _parse_number(resolved, "paths", int))
    cols = [f"p{i + 1}" for i in range(cfg.n)]
    write_outputs(resolved["out_dir"], resolved, [
        ("trajectory_mean.csv", ["s", *cols], ([s, *row] for s, row in enumerate(ens.mean))),
        ("trajectory_paths.csv", ["path", "s", *cols],
         ([k, s, *row] for k, path in enumerate(ens.paths) for s, row in enumerate(path))),
    ])
    print(f"wrote {len(ens.paths)} trajectories to {resolved['out_dir']}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes
    about twenty times as long as parsing a command line with it.  Each
    parse fills a new namespace, so no command sees another's options."""
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
    p.add_argument("--tau-list")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="analytic stop/false-stop probabilities")
    p.add_argument("config")
    p.add_argument("--s-range")
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
    p.add_argument("--paths", type=int)
    p.set_defaults(func=_cmd_trajectories)

    return parser


def main(argv=None) -> int:
    """Run one command; a rejected value exits ``USAGE_ERROR``, its message
    naming the flag or key behind it.  Each command adds its own flags to
    ``args.names``, the map from library parameters to what set them."""
    args = _build_parser().parse_args(argv)
    args.names = dict(_FIELD_KEYS)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {_named(exc, args.names)}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
