"""Command-line interface.

Subcommands: fit, encode, decode, distortion, sweep, rate-experiment,
approx-trend, baseline, plus sample for materializing synthetic datasets.
All randomness is seeded; identical arguments produce byte-identical
output files.  rate-experiment, approx-trend and baseline also accept a
JSON config file (--config); explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .datagen import (
    KINDS,
    GeneratorSpec,
    normalize,
    read_dataset,
    read_points_csv,
    sample,
    write_csv,
    write_dataset,
)
from .errors import naming
from .experiment import (
    RateExperimentConfig,
    RateRow,
    run_approximation_trend,
    run_baseline_comparison,
    run_eta_sweep_experiment,
    run_rate_experiment,
)
from .oracle import DiscreteDistribution
from .reconstruction import (
    Quantizer,
    RateSchedule,
    decode,
    empirical_distortion,
    encode,
    fit,
    load_codebook,
    save_codebook,
    sweep,
)
from .stats import Dataset


_CONFIG_COMMANDS = ("rate-experiment", "approx-trend", "baseline")


def _load_data(path: str, do_normalize: bool = False, dim: int | None = None) -> Dataset:
    pts = read_points_csv(path) if path.endswith(".csv") else read_dataset(path).points
    with naming(path):
        data = normalize(pts) if do_normalize else Dataset(pts)
        if dim not in (None, data.dim):
            raise ValueError(f"data dim {data.dim} != codebook dim {dim}")
    return data


def _generator_from_args(args) -> GeneratorSpec:
    bounds = None
    if getattr(args, "density_bounds", None):
        bounds = tuple(_list_flag("--density-bounds", args.density_bounds, float, length=2))
    return GeneratorSpec(
        kind=args.generator,
        ambient_dim=args.dim,
        seed=args.seed,
        density_bounds=bounds,
    )


def _schedule_from_args(args, dim: int) -> RateSchedule:
    branching = 1 << dim
    if args.theoretical_constant:
        if args.threshold_constant is not None:
            raise ValueError("rate-experiment takes --threshold-constant or --theoretical-constant, "
                             "not both")
        return RateSchedule.with_theoretical_constant(branching, args.gamma, args.beta)
    if args.threshold_constant is None:
        return RateSchedule(branching, args.gamma, args.beta)
    return RateSchedule(branching, args.gamma, args.beta, args.threshold_constant)


def _flag_names(keys) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in keys)


def _list_flag(flag: str, text: str, kind, length: int | None = None) -> list:
    """The comma-separated values of a list flag; ValueError naming the flag and a bad token."""
    values = []
    for tok in filter(str.strip, text.split(",")):
        try:
            values.append(kind(tok))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag} {text!r}: {tok.strip()!r} is not {noun}") from None
    if length is not None and len(values) != length:
        raise ValueError(f"{flag} {text!r}: needs {length} comma-separated values, "
                         f"not {len(values)}")
    return values


def _etas(text: str) -> list[float]:
    values = _list_flag("--etas", text, float)
    if not values:
        raise ValueError(f"--etas {text!r}: no thresholds given")
    return values


def _config_flags(path) -> list[str]:
    """A JSON config as command-line flags, so argparse types and checks every value."""
    with naming(f"config {path}"):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"must hold a JSON object, not a {type(cfg).__name__}")
    flags = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not None and value is not False:
            flags += [flag, str(value)]
    return flags


def _cmd_fit(args) -> int:
    data = _load_data(args.data, args.normalize)
    quantizer = fit(data, args.eta, RateSchedule(1 << data.dim, args.gamma))
    save_codebook(quantizer, args.output)
    print(f"fit: {len(quantizer.starts)} leaves at eta={args.eta} -> {args.output}")
    return 0


def _codebook_and_data(args) -> tuple[Quantizer, Dataset]:
    q = load_codebook(args.codebook)
    return q, _load_data(args.data, dim=q.dim)


def _cmd_encode(args) -> int:
    q, data = _codebook_and_data(args)
    depths, index = encode(q, data.points)
    header = ["depth"] + [f"k{j}" for j in range(q.dim)]
    write_csv(args.output, header, np.column_stack([depths, index]).tolist())
    print(f"encode: {data.n} points -> {args.output}")
    return 0


def _cmd_decode(args) -> int:
    q = load_codebook(args.codebook)
    ids = read_points_csv(args.ids, dtype=np.int64)
    with naming(args.ids):
        if ids.shape[1] != 1 + q.dim:
            raise ValueError(f"id rows must have 1+{q.dim} integers, not {ids.shape[1]}")
        vectors = decode(q, ids[:, 0], ids[:, 1:])
    write_csv(args.output, [f"x{k}" for k in range(q.dim)], vectors.tolist())
    print(f"decode: {ids.shape[0]} ids -> {args.output}")
    return 0


def _cmd_distortion(args) -> int:
    q, data = _codebook_and_data(args)
    value = empirical_distortion(q, data)
    write_csv(args.output, ["n", "distortion"], [(data.n, value)])
    print(f"distortion: {value!r} over n={data.n}")
    return 0


# The generator-mode flags of sweep, with their defaults; --data mode refuses them.
_SWEEP_GENERATOR = {"n": 1024, "dim": 1, "seed": 0, "holdout_n": None, "density_bounds": None}
_SWEEP_HEADER = ["eta", "leaf_count", "train_distortion"]


def _cmd_sweep(args) -> int:
    etas = _etas(args.etas)
    given = [k for k in _SWEEP_GENERATOR if vars(args)[k] is not None]
    if args.data and given:
        raise ValueError(f"sweep --data does not take {_flag_names(given)}")
    if args.generator and args.normalize:
        raise ValueError("sweep --generator does not take --normalize")
    if args.data:
        data = _load_data(args.data, args.normalize)
        schedule = RateSchedule(1 << data.dim, args.gamma)
        rows = [(eta, leaves, train) for eta, _, leaves, train in sweep(data, etas, schedule)]
        write_csv(args.output, _SWEEP_HEADER, rows)
    else:
        vars(args).update({k: v for k, v in _SWEEP_GENERATOR.items() if vars(args)[k] is None})
        spec = _generator_from_args(args)
        rows = run_eta_sweep_experiment(spec, args.n, etas, args.gamma, args.holdout_n)
        write_csv(args.output, _SWEEP_HEADER + ["holdout_distortion"], rows)
    print(f"sweep: {len(rows)} rows -> {args.output}")
    return 0


def _cmd_rate_experiment(args) -> int:
    spec = _generator_from_args(args)
    schedule = _schedule_from_args(args, args.dim)
    cfg = RateExperimentConfig(
        generator=spec,
        n_grid=tuple(_list_flag("--n-grid", args.n_grid, int)),
        schedule=schedule,
        holdout_n=args.holdout_n,
        trials=args.trials,
        seed=args.seed,
    )
    result = run_rate_experiment(cfg)
    header = [field.name for field in dataclasses.fields(RateRow)]
    write_csv(args.output, header, [dataclasses.astuple(row) for row in result.rows])
    print(f"rate-experiment: fitted_slope={result.fitted_slope!r} -> {args.output}")
    return 0


def _uniform_grid_atoms(count: int, dim: int) -> DiscreteDistribution:
    if count < 1 or dim < 1:
        raise ValueError(f"--uniform-atoms {count} and --dim {dim} must be positive")
    per_axis = max(1, round(count ** (1.0 / dim)))
    if per_axis**dim >= 1 << 63:
        raise ValueError(f"a grid of {per_axis}^{dim} atoms does not fit in int64")
    # Row r holds the base-per_axis digits of r, most significant first: the
    # grid in np.meshgrid's "ij" order, without its limit of 32 axes.
    place = per_axis ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    digits = np.arange(per_axis**dim, dtype=np.int64)[:, None] // place % per_axis
    pts = (digits + 0.5) / per_axis
    return DiscreteDistribution(pts, np.full(pts.shape[0], 1.0 / pts.shape[0]))


# The uniform-grid flags of approx-trend, with their defaults; --atoms-csv refuses them.
_TREND_GRID = {"uniform_atoms": 4096, "dim": 1}


def _cmd_approx_trend(args) -> int:
    given = [k for k in _TREND_GRID if vars(args)[k] is not None]
    if args.atoms_csv and given:
        raise ValueError(f"approx-trend --atoms-csv does not take {_flag_names(given)}")
    if args.weighted and not args.atoms_csv:
        raise ValueError("approx-trend --weighted needs --atoms-csv")
    if args.atoms_csv:
        raw = read_points_csv(args.atoms_csv)
        with naming(args.atoms_csv):
            if args.weighted:
                dist = DiscreteDistribution(raw[:, :-1], raw[:, -1])
            else:
                dist = DiscreteDistribution(raw, np.full(raw.shape[0], 1.0 / raw.shape[0]))
    else:
        vars(args).update({k: v for k, v in _TREND_GRID.items() if vars(args)[k] is None})
        dist = _uniform_grid_atoms(args.uniform_atoms, args.dim)
    rows, slope = run_approximation_trend(dist, _etas(args.etas))
    write_csv(args.output, ["eta", "approx_error", "leaf_count"], rows)
    print(f"approx-trend: fitted_slope={slope!r} -> {args.output}")
    return 0


def _cmd_baseline(args) -> int:
    spec = _generator_from_args(args)
    rows = run_baseline_comparison(spec, args.n, _etas(args.etas), args.gamma, args.holdout_n)
    header = ["eta", "leaf_count", "tree_train_distortion", "tree_holdout_distortion",
              "k", "kmeans_train_distortion", "kmeans_holdout_distortion"]
    write_csv(args.output, header, rows)
    print(f"baseline: {len(rows)} matched rows -> {args.output}")
    return 0


def _cmd_sample(args) -> int:
    spec = _generator_from_args(args)
    data = sample(spec, args.n)
    if args.output.endswith(".csv"):
        write_csv(args.output, [f"x{k}" for k in range(data.dim)], data.points.tolist())
    else:
        write_dataset(args.output, data)
    print(f"sample: {data.n} points ({spec.kind}, dim {spec.ambient_dim}) -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectree",
        description="Multi-scale vector quantization on dyadic partition trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flag(p):
        p.add_argument("--data", required=True, help="dataset (.rtds binary or .csv)")

    def add_gamma_flag(p):
        p.add_argument("--gamma", type=float, default=1.5,
                       help="depth exponent in j_n = floor(gamma ln n / ln a)")

    p = sub.add_parser("fit", help="fit a quantizer at one threshold")
    p.set_defaults(run=_cmd_fit)
    add_data_flag(p)
    p.add_argument("--normalize", action="store_true",
                   help="map ingested data into the unit cube before use")
    p.add_argument("--eta", type=float, required=True)
    add_gamma_flag(p)
    p.add_argument("--output", required=True, help="codebook JSON path")

    p = sub.add_parser("encode", help="map points to leaf cell ids")
    p.set_defaults(run=_cmd_encode)
    p.add_argument("--codebook", required=True)
    add_data_flag(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("decode", help="map leaf cell ids to code vectors")
    p.set_defaults(run=_cmd_decode)
    p.add_argument("--codebook", required=True)
    p.add_argument("--ids", required=True, help="CSV from the encode subcommand")
    p.add_argument("--output", required=True)

    p = sub.add_parser("distortion", help="mean squared reconstruction error")
    p.set_defaults(run=_cmd_distortion)
    p.add_argument("--codebook", required=True)
    add_data_flag(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("sweep", help="quantizers over a list of thresholds")
    p.set_defaults(run=_cmd_sweep)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--data", help="dataset file: report train distortion")
    mode.add_argument("--generator", choices=KINDS,
                      help="sample train and holdout sets: report both distortions")
    p.add_argument("--normalize", action="store_true", help="--data mode only")
    p.add_argument("--dim", type=int, help="--generator mode only (default 1)")
    p.add_argument("--n", type=int, help="--generator mode only (default 1024)")
    p.add_argument("--holdout-n", type=int, help="--generator mode only (default 10 n)")
    p.add_argument("--density-bounds", help="--generator mode only")
    p.add_argument("--seed", type=int, help="--generator mode only (default 0)")
    p.add_argument("--etas", required=True, help="comma-separated thresholds")
    add_gamma_flag(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("rate-experiment", help="distortion vs n with the eta_n schedule")
    p.set_defaults(run=_cmd_rate_experiment)
    p.add_argument("--generator", default="uniform_cube", choices=KINDS)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n-grid", default=",".join(str(2**k) for k in range(8, 17)))
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--holdout-n", type=int, default=None)
    p.add_argument("--density-bounds", default=None)
    p.add_argument("--seed", type=int, default=0)
    add_gamma_flag(p)
    p.add_argument("--beta", type=float, default=1.0, help="confidence exponent (> 0)")
    p.add_argument(
        "--threshold-constant",
        type=float,
        help="calibration constant c in eta_n = sqrt((gamma+beta) ln n / (c n)) (default 1.5)",
    )
    p.add_argument(
        "--theoretical-constant",
        action="store_true",
        help="use the analysis constant c_a = 1/(128(a+1)) instead",
    )
    p.add_argument("--output", required=True)

    p = sub.add_parser("approx-trend", help="exact oracle approximation error vs eta")
    p.set_defaults(run=_cmd_approx_trend)
    p.add_argument("--uniform-atoms", type=int,
                   help="grid atoms (default 4096); not with --atoms-csv")
    p.add_argument("--dim", type=int, help="grid dimension (default 1); not with --atoms-csv")
    p.add_argument("--atoms-csv", default=None)
    p.add_argument("--weighted", action="store_true",
                   help="treat the last CSV column as atom weights (--atoms-csv only)")
    p.add_argument("--etas", default=",".join(repr(2.0**-k) for k in range(1, 9)))
    p.add_argument("--output", required=True)

    p = sub.add_parser("baseline", help="tree vs k-means at matched codebook sizes")
    p.set_defaults(run=_cmd_baseline)
    p.add_argument("--generator", default="uniform_cube", choices=KINDS)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--holdout-n", type=int, default=None)
    p.add_argument("--density-bounds", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--etas", required=True)
    add_gamma_flag(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("sample", help="materialize a synthetic dataset")
    p.set_defaults(run=_cmd_sample)
    p.add_argument("--generator", required=True, choices=KINDS)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density-bounds", default=None)
    p.add_argument("--output", required=True, help=".rtds binary or .csv")

    for name in _CONFIG_COMMANDS:
        sub.choices[name].add_argument("--config", help="JSON config; flags override")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv[:1] and argv[0] in _CONFIG_COMMANDS:
            find = argparse.ArgumentParser(prog=f"rectree {argv[0]}", add_help=False)
            find.add_argument("--config")
            config = find.parse_known_args(argv[1:])[0].config
            if config:
                # Config flags go first, so explicit flags after them win.
                argv = argv[:1] + _config_flags(config) + argv[1:]
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
