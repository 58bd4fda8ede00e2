"""Command-line interface.

Subcommands: fit, encode, decode, distortion, sweep, rate-experiment,
approx-trend, baseline, plus sample for materializing synthetic datasets.
All randomness is seeded; identical arguments produce byte-identical
output files.  rate-experiment, approx-trend and baseline also accept a
JSON config file (--config); explicit flags win over config values.
"""

from __future__ import annotations

import argparse
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
    RATE_COLUMNS,
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
    """A .rtds file as its reader checked it, a CSV checked here; or either normalized."""
    data = None if path.endswith(".csv") else read_dataset(path)
    pts = read_points_csv(path) if data is None else data.points
    with naming(path):
        if do_normalize or data is None:
            data = normalize(pts) if do_normalize else Dataset(pts)
        if dim not in (None, data.dim):
            raise ValueError(f"data dim {data.dim} != codebook dim {dim}")
    return data


def _generator_from_args(args) -> GeneratorSpec:
    return GeneratorSpec(args.generator, args.dim, seed=args.seed,
                         density_bounds=args.density_bounds)


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


# The comma-separated list flags: value type, and the number of values (None: any;
# --etas needs at least one).
_LIST_FLAGS = {"--etas": (float, None), "--n-grid": (int, None), "--density-bounds": (float, 2)}


def _list_flag(flag: str, text: str) -> tuple:
    """The values of a list flag; ValueError naming the flag and a bad token."""
    kind, length = _LIST_FLAGS[flag]
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
    if flag == "--etas" and not values:
        raise ValueError(f"{flag} {text!r}: no thresholds given")
    return tuple(values)


def _config_flags(path, options: dict) -> list[str]:
    """A JSON config as command-line flags, each key and value checked in the file's name.

    ``options`` maps the command's flags to their argparse actions.  A key is
    a flag, in dashes or underscores, and its value is what would follow the
    flag: a number or a string of the flag's type and choices (a list flag's
    values are one comma-separated string, parsed as on the command line),
    or true or false for an on/off flag.  null leaves the default.
    """
    flags = []
    with naming(f"config {path}"):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"must hold a JSON object, not a {type(cfg).__name__}")
        for key, value in cfg.items():
            flag = "--" + key.replace("_", "-")
            action = options.get(flag)
            if action is None or flag in ("--config", "--help"):
                raise ValueError(f"unknown key {key!r}")
            on_off = action.nargs == 0
            if value is not None and type(value) not in ((bool,) if on_off else (int, float, str)):
                want = "true or false" if on_off else "a number or a string"
                raise ValueError(f"{flag} takes {want}, not {json.dumps(value)}")
            if value is None or value is False:
                continue
            text = str(value)
            if action.type in (int, float):
                try:
                    action.type(text)
                except ValueError:
                    noun = "an integer" if action.type is int else "a number"
                    raise ValueError(f"{flag} {text!r} is not {noun}") from None
            if action.choices and text not in action.choices:
                raise ValueError(f"{flag} {text!r} is not one of {', '.join(action.choices)}")
            if flag in _LIST_FLAGS:
                _list_flag(flag, text)
            flags.append(flag if value is True else f"{flag}={text}")
    return flags


def _cmd_fit(args) -> None:
    data = _load_data(args.data, args.normalize)
    quantizer = fit(data, args.eta, RateSchedule(1 << data.dim, args.gamma))
    save_codebook(quantizer, args.output)
    print(f"fit: {len(quantizer.starts)} leaves at eta={args.eta} -> {args.output}")


def _codebook_and_data(args) -> tuple[Quantizer, Dataset]:
    q = load_codebook(args.codebook)
    return q, _load_data(args.data, dim=q.dim)


def _cmd_encode(args) -> None:
    q, data = _codebook_and_data(args)
    depths, index = encode(q, data.points)
    header = ["depth"] + [f"k{j}" for j in range(q.dim)]
    write_csv(args.output, header, np.column_stack([depths, index]).tolist())
    print(f"encode: {data.n} points -> {args.output}")


def _cmd_decode(args) -> None:
    q = load_codebook(args.codebook)
    ids = read_points_csv(args.ids, dtype=np.int64)
    with naming(args.ids):
        if ids.shape[1] != 1 + q.dim:
            raise ValueError(f"id rows must have 1+{q.dim} integers, not {ids.shape[1]}")
        vectors = decode(q, ids[:, 0], ids[:, 1:])
    write_csv(args.output, [f"x{k}" for k in range(q.dim)], vectors.tolist())
    print(f"decode: {ids.shape[0]} ids -> {args.output}")


def _cmd_distortion(args) -> None:
    q, data = _codebook_and_data(args)
    value = empirical_distortion(q, data)
    write_csv(args.output, ["n", "distortion"], [(data.n, value)])
    print(f"distortion: {value!r} over n={data.n}")


# The generator-mode flags of sweep, with their defaults; --data mode refuses them.
_SWEEP_GENERATOR = {"n": 1024, "dim": 1, "seed": 0, "holdout_n": None, "density_bounds": None}
_SWEEP_HEADER = ["eta", "leaf_count", "train_distortion"]


def _cmd_sweep(args) -> None:
    given = [k for k in _SWEEP_GENERATOR if vars(args)[k] is not None]
    if args.data and given:
        raise ValueError(f"sweep --data does not take {_flag_names(given)}")
    if args.generator and args.normalize:
        raise ValueError("sweep --generator does not take --normalize")
    if args.data:
        data = _load_data(args.data, args.normalize)
        schedule = RateSchedule(1 << data.dim, args.gamma)
        rows = [(eta, leaves, train) for eta, _, leaves, train in sweep(data, args.etas, schedule)]
        write_csv(args.output, _SWEEP_HEADER, rows)
    else:
        vars(args).update({k: v for k, v in _SWEEP_GENERATOR.items() if vars(args)[k] is None})
        spec = _generator_from_args(args)
        rows = run_eta_sweep_experiment(spec, args.n, args.etas, args.gamma, args.holdout_n)
        write_csv(args.output, _SWEEP_HEADER + ["holdout_distortion"], rows)
    print(f"sweep: {len(rows)} rows -> {args.output}")


def _cmd_rate_experiment(args) -> None:
    rows, slope = run_rate_experiment(
        _generator_from_args(args), args.n_grid, _schedule_from_args(args, args.dim),
        args.holdout_n, args.trials, args.seed)
    write_csv(args.output, RATE_COLUMNS, rows)
    print(f"rate-experiment: fitted_slope={slope!r} -> {args.output}")


def _uniform_grid_atoms(count: int, dim: int) -> DiscreteDistribution:
    """Equal-mass atoms at the cell centers of a grid of round(count^(1/dim))^dim cells.

    Not ``count`` atoms unless it is a dim-th power: 4096 gives 8192 in 13-D and 3125 in 5-D.
    """
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


def _cmd_approx_trend(args) -> None:
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
    rows, slope = run_approximation_trend(dist, args.etas)
    write_csv(args.output, ["eta", "approx_error", "leaf_count"], rows)
    print(f"approx-trend: fitted_slope={slope!r} -> {args.output}")


def _cmd_baseline(args) -> None:
    spec = _generator_from_args(args)
    rows = run_baseline_comparison(spec, args.n, args.etas, args.gamma, args.holdout_n)
    header = ["eta", "leaf_count", "tree_train_distortion", "tree_holdout_distortion",
              "k", "kmeans_train_distortion", "kmeans_holdout_distortion"]
    write_csv(args.output, header, rows)
    print(f"baseline: {len(rows)} matched rows -> {args.output}")


def _cmd_sample(args) -> None:
    spec = _generator_from_args(args)
    data = sample(spec, args.n)
    if args.output.endswith(".csv"):
        write_csv(args.output, [f"x{k}" for k in range(data.dim)], data.points.tolist())
    else:
        write_dataset(args.output, data)
    print(f"sample: {data.n} points ({spec.kind}, dim {spec.ambient_dim}) -> {args.output}")


def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The rectree parser, and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="rectree", description="Multi-scale vector quantization on dyadic partition trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    def add_data_flag(p):
        p.add_argument("--data", required=True, help="dataset (.rtds binary or .csv)")

    def add_gamma_flag(p):
        p.add_argument("--gamma", type=float, default=1.5,
                       help="depth exponent in j_n = floor(gamma ln n / ln a)")

    p = command("fit", _cmd_fit, "fit a quantizer at one threshold")
    add_data_flag(p)
    p.add_argument("--normalize", action="store_true",
                   help="map ingested data into the unit cube before use")
    p.add_argument("--eta", type=float, required=True)
    add_gamma_flag(p)

    p = command("encode", _cmd_encode, "map points to leaf cell ids")
    p.add_argument("--codebook", required=True)
    add_data_flag(p)

    p = command("decode", _cmd_decode, "map leaf cell ids to code vectors")
    p.add_argument("--codebook", required=True)
    p.add_argument("--ids", required=True, help="CSV from the encode subcommand")

    p = command("distortion", _cmd_distortion, "mean squared reconstruction error")
    p.add_argument("--codebook", required=True)
    add_data_flag(p)

    p = command("sweep", _cmd_sweep, "quantizers over a list of thresholds")
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

    p = command("rate-experiment", _cmd_rate_experiment, "distortion vs n with the eta_n schedule")
    p.add_argument("--generator", default="uniform_cube", choices=KINDS)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n-grid", default=",".join(str(2**k) for k in range(8, 17)))
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--holdout-n", type=int, default=None)
    p.add_argument("--density-bounds", default=None)
    p.add_argument("--seed", type=int, default=0)
    add_gamma_flag(p)
    p.add_argument("--beta", type=float, default=1.0, help="confidence exponent (> 0)")
    p.add_argument("--threshold-constant", type=float, help="calibration constant c in "
                   "eta_n = sqrt((gamma+beta) ln n / (c n)) (default 1.5)")
    p.add_argument("--theoretical-constant", action="store_true",
                   help="use the analysis constant c_a = 1/(128(a+1)) instead")

    p = command("approx-trend", _cmd_approx_trend, "exact oracle approximation error vs eta")
    p.add_argument("--uniform-atoms", type=int,
                   help="a grid of round(N^(1/D))^D atoms for --uniform-atoms N and --dim D "
                   "(default N = 4096); not with --atoms-csv")
    p.add_argument("--dim", type=int, help="grid dimension (default 1); not with --atoms-csv")
    p.add_argument("--atoms-csv", default=None)
    p.add_argument("--weighted", action="store_true",
                   help="treat the last CSV column as atom weights (--atoms-csv only)")
    p.add_argument("--etas", default=",".join(repr(2.0**-k) for k in range(1, 9)))

    p = command("baseline", _cmd_baseline, "tree vs k-means at matched codebook sizes")
    p.add_argument("--generator", default="uniform_cube", choices=KINDS)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--holdout-n", type=int, default=None)
    p.add_argument("--density-bounds", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--etas", required=True)
    add_gamma_flag(p)

    p = command("sample", _cmd_sample, "materialize a synthetic dataset")
    p.add_argument("--generator", required=True, choices=KINDS)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density-bounds", default=None)

    outputs = {"fit": "codebook JSON path", "sample": ".rtds binary or .csv"}
    for name, p in sub.choices.items():
        p.add_argument("--output", required=True, help=outputs.get(name))
    for name in _CONFIG_COMMANDS:
        sub.choices[name].add_argument("--config", help="JSON config; flags override")
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, commands = _parsers()
        if argv[:1] and argv[0] in _CONFIG_COMMANDS:
            find = argparse.ArgumentParser(prog=f"rectree {argv[0]}", add_help=False)
            find.add_argument("--config")
            config = find.parse_known_args(argv[1:])[0].config
            if config:
                # Config flags go first, so explicit flags after them win.
                options = commands[argv[0]]._option_string_actions
                argv = argv[:1] + _config_flags(config, options) + argv[1:]
        args = parser.parse_args(argv)
        for flag in _LIST_FLAGS:
            dest = flag[2:].replace("-", "_")
            if vars(args).get(dest) is not None:
                vars(args)[dest] = _list_flag(flag, vars(args)[dest])
        args.run(args)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
