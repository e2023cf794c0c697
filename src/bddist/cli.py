"""Command-line entry point: estimate, simulate, and bias-oracle subcommands.

Configuration precedence is built-in defaults, then values from an optional
--config JSON file (keys mirror the flag names with underscores), then
explicitly supplied flags.  Config keys are shared; flags are not.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from . import bandwidth as bw
from .data import Sample
from .errors import BddistError, DataParseError, DataSchemaError, InvalidInputError
from .formatting import format_number, open_text, read_json, write_csv
from .geometry import load_boundary, make_grid
from .inference import estimate, pointwise_ci
from .kernels import FAMILIES
from .oracle import fixed_h_bias
from .simulation import DgpSpec, default_dgp, describe_failures, run_monte_carlo

DEFAULTS = {
    "boundary": None,
    "data": None,
    "grid_size": 21,
    "p": 1,
    "kernel": "triangular",
    "alpha": 0.05,
    "bw_rule": "rot",
    "c0": 1.0,
    "h": None,
    "bw_exponent": 0.25,
    "band_draws": 10000,
    "seed": 0,
    "out": None,
    "precision": "human",
    "dump_cov": None,
    "n": 5000,
    "reps": 100,
    "dgp": None,
    "s_grid": "0.01:1.0:40",
}


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
    name = cfg.bw_rule
    if name == "fixed":
        if cfg.h is None:
            raise InvalidInputError("--bw-rule fixed requires --h")
        return bw.Fixed(float(cfg.h))
    if name == "rot":
        return bw.RuleOfThumb(c0=float(cfg.c0), exponent=float(cfg.bw_exponent))
    if name == "mse":
        return bw.MsePilot()
    if name == "kink":
        return bw.KinkAdaptive(c0=float(cfg.c0), exponent=float(cfg.bw_exponent))
    raise InvalidInputError(f"unknown bandwidth rule {name!r}")


def run_estimate(cfg: SimpleNamespace) -> int:
    """Per-point estimates, pointwise CIs, and the uniform band, as CSV.

    Points whose fit fails are emitted with their error's code; the exit
    status is 2 when any point failed and 0 otherwise.
    """
    if cfg.boundary is None or cfg.data is None:
        raise InvalidInputError("estimate requires --boundary and --data")
    polyline, rule = load_boundary(cfg.boundary)
    y, x = read_dataset(cfg.data)
    sample = Sample.from_data(y, x, rule)
    grid = make_grid(polyline, int(cfg.grid_size))
    est = estimate(sample, grid, _bandwidth_rule(cfg), cfg.kernel, int(cfg.p),
                   float(cfg.alpha), int(cfg.band_draws), int(cfg.seed))

    prec = cfg.precision
    band_by_key = {}  # the band's intervals carry each fitted point's se
    if est.fitted:
        band_by_key = dict(zip(est.fitted, est.band.intervals))
        if cfg.dump_cov:
            write_csv(cfg.dump_cov,
                      [f"x{j + 1}" for j in range(len(est.fitted))],
                      [[format_number(v, prec) for v in row] for row in est.surface.xi])

    header = ["point_id", "b1", "b2", "h", "n_eff_0", "n_eff_1", "theta_hat",
              "se", "ci_lower", "ci_upper", "band_lower", "band_upper", "error"]
    rows = []
    for k, fit in enumerate(est.points):
        row = [str(k + 1), *(format_number(b, prec) for b in grid.points[k])]
        if isinstance(fit, BddistError):
            rows.append(row + [""] * 9 + [fit.code])
            continue
        bi = band_by_key[k]
        ci = pointwise_ci(fit, bi.se, est.alpha)
        values = (fit.theta_hat, bi.se, ci.lower, ci.upper, bi.lower, bi.upper)
        rows.append(row + [format_number(fit.h, prec), str(fit.fit0.n_eff), str(fit.fit1.n_eff),
                           *(format_number(v, prec) for v in values), ""])
    write_csv(cfg.out if cfg.out else sys.stdout, header, rows)
    failed = grid.count - len(est.fitted)
    if est.fitted and failed:
        print(f"warning: uniform band covers {len(est.fitted)} of {grid.count} grid points",
              file=sys.stderr)
    return 2 if failed else 0


def _load_dgp(cfg) -> DgpSpec:
    overrides = read_json(cfg.dgp) if cfg.dgp else {}
    if cfg.boundary is not None:
        overrides["boundary"], overrides["assignment"] = load_boundary(cfg.boundary)
    unknown = set(overrides) - {f.name for f in dataclasses.fields(DgpSpec)}
    if unknown:
        raise InvalidInputError(f"unknown DGP override keys: {sorted(unknown)}")
    try:
        return dataclasses.replace(default_dgp(), **overrides)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{cfg.dgp}: invalid DGP override ({exc})") from None


def run_simulate(cfg: SimpleNamespace) -> int:
    """Monte Carlo coverage study written as a report CSV."""
    spec = _load_dgp(cfg)
    grid = make_grid(spec.boundary, int(cfg.grid_size))
    report = run_monte_carlo(
        spec, int(cfg.n), int(cfg.reps), grid=grid, p=int(cfg.p), kernel=cfg.kernel,
        bw_rule=_bandwidth_rule(cfg), alpha=float(cfg.alpha),
        band_draws=int(cfg.band_draws), seed=int(cfg.seed),
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
            return np.asarray([float(v) for v in text.split(",")])
        return np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise InvalidInputError(f"--s-grid {text!r}: {exc}") from None


def run_bias_oracle(cfg: SimpleNamespace) -> int:
    """Exact fixed-h bias values on a grid of kink distances, as CSV."""
    h = float(cfg.h) if cfg.h is not None else 1.0
    s_values = _parse_s_grid(cfg.s_grid)
    rows = [[format_number(s, cfg.precision),
             format_number(fixed_h_bias(cfg.kernel, int(cfg.p), h, float(s)),
                           cfg.precision)]
            for s in s_values]
    write_csv(cfg.out if cfg.out else sys.stdout, ["s", "bias"], rows)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", help="JSON file mirroring the flags; flags win")
    sp.add_argument("--p", type=int)
    sp.add_argument("--kernel", choices=FAMILIES)
    sp.add_argument("--h", type=float)
    sp.add_argument("--out")
    sp.add_argument("--precision", choices=("human", "full"))


def _add_pipeline(sp):
    """The common flags and those of the estimation pipeline."""
    _add_common(sp)
    sp.add_argument("--boundary", help="boundary spec JSON file")
    sp.add_argument("--grid-size", type=int, dest="grid_size")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--bw-rule", choices=("fixed", "rot", "mse", "kink"), dest="bw_rule")
    sp.add_argument("--c0", type=float)
    sp.add_argument("--bw-exponent", type=float, dest="bw_exponent")
    sp.add_argument("--band-draws", type=int, dest="band_draws")
    sp.add_argument("--seed", type=int)


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
    est.add_argument("--dump-cov", dest="dump_cov", help="write the covariance matrix CSV")

    sim = sub.add_parser("simulate", help="Monte Carlo coverage study")
    _add_pipeline(sim)
    sim.add_argument("--n", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--dgp", help="JSON overriding DGP fields")

    orc = sub.add_parser("bias-oracle", help="exact fixed-h bias on a grid")
    _add_common(orc)
    orc.add_argument("--s-grid", dest="s_grid",
                     help="start:stop:count or comma-separated values")
    return parser


def build_config(args: argparse.Namespace) -> SimpleNamespace:
    values = dict(DEFAULTS)
    supplied = {k: v for k, v in vars(args).items()
                if k not in ("command", "config") and v is not None}
    if getattr(args, "config", None):
        file_values = read_json(args.config)
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    values.update(supplied)
    if int(values["p"]) < 0:
        raise InvalidInputError(f"p must be >= 0, got {values['p']}")
    if args.command != "bias-oracle":
        if not 0.0 < float(values["alpha"]) < 1.0:
            raise InvalidInputError(f"alpha must be in (0, 1), got {values['alpha']}")
        if int(values["grid_size"]) < 1:
            raise InvalidInputError("grid-size must be >= 1")
        if int(values["seed"]) < 0:
            raise InvalidInputError(f"seed must be >= 0, got {values['seed']}")
        if int(values["band_draws"]) < 1000:
            raise InvalidInputError(f"band-draws must be >= 1000, got {values['band_draws']}")
        if values["bw_rule"] in ("rot", "kink"):
            if not 0.0 < float(values["c0"]) < math.inf:
                raise InvalidInputError(f"c0 must be positive and finite, got {values['c0']}")
            if not math.isfinite(float(values["bw_exponent"])):
                raise InvalidInputError(f"bw-exponent must be finite, got {values['bw_exponent']}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "estimate":
            return run_estimate(cfg)
        if args.command == "simulate":
            return run_simulate(cfg)
        return run_bias_oracle(cfg)
    except BddistError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
