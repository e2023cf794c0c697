"""Command-line entry point: estimate, simulate, and bias-oracle subcommands.

Each setting is one flag, whose ``add_argument`` call holds its default,
type and choices.  An optional --config JSON file (keys mirror the flag
names with underscores) goes through the same parser, ahead of the flags,
so explicitly supplied flags win.  Config keys are shared; flags are not.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import warnings

import numpy as np

from . import bandwidth as bw
from .data import Sample
from .errors import BddistError, DataParseError, DataSchemaError, InvalidInputError
from .formatting import open_text, read_json, write_csv
from .geometry import load_boundary, make_grid
from .inference import DEFAULT_ALPHA, DEFAULT_NUM_DRAWS, estimate, pointwise_ci
from .kernels import DEFAULT_KERNEL, FAMILIES
from .oracle import fixed_h_bias
from .simulation import (DEFAULT_GRID_SIZE, DgpSpec, default_dgp, describe_failures,
                         run_monte_carlo)


_COLUMNS = ("y", "x1", "x2")
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_header(reader, path) -> list[int]:
    """Column indices of y, x1 and x2 in the header row of a csv reader."""
    try:
        header = [c.strip() for c in next(reader)]
    except StopIteration:
        raise InvalidInputError(f"{path}: empty file") from None
    for name in _COLUMNS:
        if name not in header:
            raise DataSchemaError(name)
    return [header.index(name) for name in _COLUMNS]


def _read_rows(path):
    """Row-by-row parser behind ``read_dataset``: it defines the accepted
    input, and every error's class, row number and message."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        cols = _read_header(reader, path)
        ys, x1s, x2s = [], [], []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                vals = [float(row[i]) for i in cols]
            except (ValueError, IndexError) as exc:
                raise DataParseError(rownum, str(exc)) from None
            if not all(math.isfinite(v) for v in vals):
                raise DataParseError(rownum, "non-finite value")
            ys.append(vals[0])
            x1s.append(vals[1])
            x2s.append(vals[2])
    if not ys:
        raise InvalidInputError(f"{path}: no data rows")
    return np.asarray(ys), np.column_stack([np.asarray(x1s), np.asarray(x2s)])


def read_dataset(path):
    """Read a CSV with columns y, x1, x2 (extra columns ignored).

    The dialect: comma-separated, with a header row naming the columns in
    any order; any cell may be double-quoted; blank lines are skipped; there
    are no comment lines; a leading UTF-8 byte-order mark is skipped.  A
    non-numeric or non-finite cell raises DataParseError with its row
    number (the header is row 1).

    Returns (y, x) arrays; the treatment indicator is never read from the
    file, it is derived later from the boundary's assignment rule.

    One ``np.loadtxt`` call reads a well-formed file.  Anything it rejects,
    or reads as no rows or as a non-finite value, goes through the row
    parser instead, so every input gives the same values or the same error
    either way.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        cols = _read_header(reader, path)
    # loadtxt skips physical lines, so a quoted newline in the header would
    # shift it.  It opens a path through numpy's DataSource, which takes a
    # relative "scheme://..." path for a URL and decompresses these suffixes.
    abspath = os.path.abspath(path)
    if reader.line_num == 1 and not abspath.endswith(_COMPRESSED_SUFFIXES):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty input
                table = np.loadtxt(abspath, delimiter=",", skiprows=1, comments=None,
                                   quotechar='"', usecols=cols, ndmin=2, dtype=float)
        except ValueError:
            pass
        else:
            if len(table) and np.isfinite(table).all():
                return np.ascontiguousarray(table[:, 0]), np.ascontiguousarray(table[:, 1:])
    return _read_rows(path)


def _bandwidth_rule(cfg):
    if cfg.bw_rule == "fixed":
        if cfg.h is None:
            raise InvalidInputError("--bw-rule fixed requires --h")
        return bw.Fixed(cfg.h)
    if cfg.bw_rule == "rot":
        return bw.RuleOfThumb(c0=cfg.c0, exponent=cfg.bw_exponent)
    if cfg.bw_rule == "mse":
        return bw.MsePilot()
    return bw.KinkAdaptive(c0=cfg.c0, exponent=cfg.bw_exponent)


def run_estimate(cfg: argparse.Namespace) -> int:
    """Per-point estimates, pointwise CIs, and the uniform band, as CSV.

    Points whose fit fails are emitted with their error's code; the exit
    status is 2 when any point failed and 0 otherwise.
    """
    if cfg.boundary is None or cfg.data is None:
        raise InvalidInputError("estimate requires --boundary and --data")
    polyline, rule = load_boundary(cfg.boundary)
    y, x = read_dataset(cfg.data)
    sample = Sample.from_data(y, x, rule)
    grid = make_grid(polyline, cfg.grid_size)
    est = estimate(sample, grid, cfg.bw_rule, cfg.kernel, cfg.p, cfg.alpha, cfg.band_draws,
                   cfg.seed)

    rows = [[k + 1, *b] for k, b in enumerate(grid.points)]
    for k, fit in enumerate(est.points):
        if isinstance(fit, BddistError):
            rows[k] += [None] * 9 + [fit.code]
    if est.fitted:
        se, band = est.surface.se, est.band
        columns = zip(est.fitted, est.fits, se, *pointwise_ci(est.fits, se, est.alpha),
                      band.lower, band.upper)
        for k, fit, *values in columns:
            rows[k] += [fit.h, fit.fit0.n_eff, fit.fit1.n_eff, fit.theta_hat, *values, None]
    if cfg.dump_cov:  # with no fitted point, a matrix of no rows and no columns
        write_csv(cfg.dump_cov, [f"x{j + 1}" for j in range(len(est.fitted))],
                  est.surface.xi if est.fitted else [], cfg.precision)

    header = ["point_id", "b1", "b2", "h", "n_eff_0", "n_eff_1", "theta_hat",
              "se", "ci_lower", "ci_upper", "band_lower", "band_upper", "error"]
    write_csv(cfg.out if cfg.out else sys.stdout, header, rows, cfg.precision)
    failed = grid.count - len(est.fitted)
    if est.fitted and failed:
        print(f"warning: uniform band covers {len(est.fitted)} of {grid.count} grid points",
              file=sys.stderr)
    return 2 if failed else 0


def _load_dgp(cfg) -> DgpSpec:
    overrides = read_json(cfg.dgp) if cfg.dgp else {}
    if {"boundary", "assignment"} & set(overrides):
        raise InvalidInputError(f"{cfg.dgp}: 'boundary' and 'assignment' come from --boundary")
    if cfg.boundary is not None:
        overrides["boundary"], overrides["assignment"] = load_boundary(cfg.boundary)
    unknown = set(overrides) - {f.name for f in dataclasses.fields(DgpSpec)}
    if unknown:
        raise InvalidInputError(f"unknown DGP override keys: {sorted(unknown)}")
    try:
        return dataclasses.replace(default_dgp(), **overrides)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{cfg.dgp}: invalid DGP override ({exc})") from None


def run_simulate(cfg: argparse.Namespace) -> int:
    """Monte Carlo coverage study written as a report CSV."""
    spec = _load_dgp(cfg)
    grid = make_grid(spec.boundary, cfg.grid_size)
    report = run_monte_carlo(
        spec, cfg.n, cfg.reps, grid=grid, p=cfg.p, kernel=cfg.kernel, bw_rule=cfg.bw_rule,
        alpha=cfg.alpha, band_draws=cfg.band_draws, seed=cfg.seed,
    )
    report.to_csv(cfg.out if cfg.out else sys.stdout, cfg.precision)
    if report.invalid:
        print(f"warning: {report.n_failed}/{report.reps_requested} replications "
              f"failed; report flagged invalid: {describe_failures(report.failures)}",
              file=sys.stderr)
    return 0


def _parse_s_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise InvalidInputError("--s-grid expects start:stop:count or a comma list")
    try:
        if len(parts) == 1:
            s_values = np.asarray([float(v) for v in text.split(",")])
        else:
            s_values = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise InvalidInputError(f"--s-grid {text!r}: {exc}") from None
    if s_values.size == 0:
        raise InvalidInputError(f"--s-grid {text!r}: no values")
    if np.isnan(s_values).any():
        raise InvalidInputError(f"--s-grid {text!r}: NaN value")
    return s_values


def run_bias_oracle(cfg: argparse.Namespace) -> int:
    """Exact fixed-h bias values on a grid of kink distances, as CSV."""
    s_values = _parse_s_grid(cfg.s_grid).tolist()
    rows = [[s, fixed_h_bias(cfg.kernel, cfg.p, cfg.h, s)] for s in s_values]
    write_csv(cfg.out if cfg.out else sys.stdout, ["s", "bias"], rows, cfg.precision)
    return 0


_RUNS = {"estimate": run_estimate, "simulate": run_simulate, "bias-oracle": run_bias_oracle}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", help="JSON file mirroring the flags; flags win")
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--kernel", choices=FAMILIES, default=DEFAULT_KERNEL)
    sp.add_argument("--out")
    sp.add_argument("--precision", choices=("human", "full"), default="human")


def _add_pipeline(sp):
    """The common flags and those of the estimation pipeline."""
    _add_common(sp)
    sp.add_argument("--h", type=float)
    sp.add_argument("--boundary", help="boundary spec JSON file")
    sp.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    sp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sp.add_argument("--bw-rule", choices=("fixed", "rot", "mse", "kink"), default="rot")
    sp.add_argument("--c0", type=float, default=bw.DEFAULT_C0)
    sp.add_argument("--bw-exponent", type=float, default=bw.DEFAULT_BW_EXPONENT)
    sp.add_argument("--band-draws", type=int, default=DEFAULT_NUM_DRAWS)
    sp.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bddist",
        description="Distance-based estimation and inference for boundary "
                    "discontinuity designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="effect curve with CIs and a uniform band")
    _add_pipeline(est)
    est.add_argument("--data", help="CSV with columns y, x1, x2")
    est.add_argument("--dump-cov", help="write the covariance matrix CSV")

    sim = sub.add_parser("simulate", help="Monte Carlo coverage study")
    _add_pipeline(sim)
    sim.add_argument("--n", type=int, default=5000)
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--dgp", help="JSON overriding DGP fields")

    orc = sub.add_parser("bias-oracle", help="exact fixed-h bias on a grid")
    _add_common(orc)
    orc.add_argument("--h", type=float, default=1.0)
    orc.add_argument("--s-grid", default="0.01:1.0:40",
                     help="start:stop:count or comma-separated values")
    return parser


def build_config(argv=None) -> argparse.Namespace:
    """The parsed and checked settings of one run.

    A --config file's values go through the same parser as the flags: each
    key the subcommand takes becomes a ``--key=value`` token placed ahead of
    the command-line arguments.  So a flag wins (argparse keeps the last
    occurrence), and a value that the flag's type or choices reject ends as
    that flag would, with exit status 2.  The ``=`` form keeps a value such
    as ``-1`` from being read as an option.  A null value is not given; a
    key that only another subcommand takes is skipped, and any other key is
    an error.

    The range checks then run, before any file but the config is read; for
    ``estimate`` and ``simulate``, ``bw_rule`` becomes the bandwidth rule.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    cfg = parser.parse_args(argv)
    if cfg.config:
        values = read_json(cfg.config)
        keys = {key for name in _RUNS for key in vars(parser.parse_args([name]))}
        unknown = set(values) - (keys - {"command", "config"})
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        tokens = [f"--{key.replace('_', '-')}="
                  + (value if isinstance(value, str) else json.dumps(value))
                  for key, value in values.items() if key in vars(cfg) and value is not None]
        at = argv.index(cfg.command) + 1
        cfg = parser.parse_args(argv[:at] + tokens + argv[at:])
    if cfg.p < 0:
        raise InvalidInputError(f"p must be >= 0, got {cfg.p}")
    if cfg.command == "bias-oracle":
        if not 0.0 < cfg.h < math.inf:
            raise InvalidInputError(f"h must be positive and finite, got {cfg.h}")
        return cfg
    if not 0.0 < cfg.alpha < 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1), got {cfg.alpha}")
    if cfg.grid_size < 1:
        raise InvalidInputError(f"grid-size must be >= 1, got {cfg.grid_size}")
    if cfg.seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.band_draws < 1000:
        raise InvalidInputError(f"band-draws must be >= 1000, got {cfg.band_draws}")
    if cfg.command == "simulate" and cfg.n < 2:
        raise InvalidInputError(f"n must be >= 2 for any bandwidth rule, got {cfg.n}")
    if cfg.command == "simulate" and cfg.reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {cfg.reps}")
    if cfg.bw_rule in ("rot", "kink"):
        if not 0.0 < cfg.c0 < math.inf:
            raise InvalidInputError(f"c0 must be positive and finite, got {cfg.c0}")
        if not math.isfinite(cfg.bw_exponent):
            raise InvalidInputError(f"bw-exponent must be finite, got {cfg.bw_exponent}")
        if cfg.command == "simulate":  # estimate's n is known once the data is read
            rate = bw.rot_rate(cfg.n, cfg.bw_exponent)
            if not 0.0 < rate < math.inf:
                raise InvalidInputError(f"rule-of-thumb n^(-bw-exponent) = {rate} is not positive "
                                        f"and finite (n = {cfg.n}, bw-exponent = {cfg.bw_exponent})")
    cfg.bw_rule = _bandwidth_rule(cfg)
    return cfg


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
        return _RUNS[cfg.command](cfg)
    except (BddistError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
