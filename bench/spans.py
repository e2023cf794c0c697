"""Outside-in span recorder for the benchmark's traced run.

Nothing under ``src/`` is instrumented.  Instead, ``install`` replaces each
entry of ``WRAPS`` -- a function looked up by its caller under a module or
class attribute, such as ``bddist.cli.fit_point`` -- with a wrapper that
records a span (group, name, start, end, parent) and bumps counters.  Spans
stay in memory; ``layer_metrics`` turns one operation's spans and counters
into the per-layer metrics named ``<module>.<metric>``.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

MB = 1e6

# Modules whose self time is reported as <module>.self_s.  ``oracle`` is
# deliberately not wrapped; its time falls into its caller's self time.
MODULES = ("cli", "data", "simulation", "geometry", "bandwidth", "kernels",
           "locpoly", "covariance", "inference", "formatting")

# Counters that depend only on the program's structure, not on the data, so
# they must repeat exactly from one operation (and one run) to the next.
EXACT_COUNTS = ("bandwidth.diameter_calls", "bandwidth.pilot_fits",
                "bandwidth.candidates", "kernels.columns", "kernels.rows_scanned",
                "locpoly.fits", "inference.band_draws")


def _held_bytes(obj, seen) -> int:
    """Bytes of the distinct numpy buffers reachable from a fit object."""
    if isinstance(obj, np.ndarray):
        owner = obj.base if isinstance(obj.base, np.ndarray) else obj
        if id(owner) in seen:
            return 0
        seen.add(id(owner))
        return owner.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_held_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(v, seen) for v in obj)
    return 0


def _count_fit(counts, fit):
    counts["locpoly.fits"] += 1
    counts["locpoly.n_eff_sum"] += fit.fit0.n_eff + fit.fit1.n_eff


def _on_fit(counts, args, result):
    _count_fit(counts, result)


def _on_retained_fit(counts, args, result):
    _count_fit(counts, result)
    counts["locpoly.retained_bytes"] += _held_bytes(result, set())


def _on_fit_grid(counts, args, result):
    fits = [f for f in result if not isinstance(f, Exception)]
    counts["locpoly.retained_bytes"] += _held_bytes(fits, set())


def _on_pilot_fit_call(counts, args):
    counts["bandwidth.pilot_fits"] += 1


def _on_column(counts, args, result):
    counts["kernels.columns"] += 1
    counts["kernels.rows_scanned"] += len(result)


def _on_read(counts, args, result):
    counts["cli.read_rows"] += len(result[0])


def _on_diameter_call(counts, args):
    counts["bandwidth.diameter_calls"] += 1


def _on_candidates(counts, args, result):
    counts["bandwidth.candidates"] += len(result)


def _on_surface(counts, args, result):
    counts["covariance.regularized"] += int(result.regularization_applied)


def _on_band(counts, args, result):
    counts["inference.band_draws"] += result.num_draws


# (owner, attribute, span group, on_call(counts, args), on_result(counts, args, result))
# The owner is the namespace the caller looks the function up in, so a call
# made through ``bddist.cli.fit_point`` and one made through
# ``bddist.bandwidth.fit_point`` are wrapped separately.
WRAPS = (
    ("bddist.cli", "main", "cli.main", None, None),
    ("bddist.cli", "read_dataset", "cli.read", None, _on_read),
    ("bddist.data:Sample", "from_data", "data.sample", None, None),
    ("bddist.data:Sample", "__post_init__", "data.sample", None, None),
    ("bddist.cli", "run_monte_carlo", "simulation.run", None, None),
    ("bddist.simulation", "draw_sample", "simulation.draw", None, None),
    ("bddist.kernels", "signed_distances", "geometry.distance", None, None),
    ("bddist.geometry:BoundaryPolyline", "distance_to", "geometry.distance", None, None),
    ("bddist.bandwidth", "resolve_bandwidths", "bandwidth.select", None, None),
    ("bddist.simulation", "resolve_bandwidths", "bandwidth.select", None, None),
    ("bddist.bandwidth", "rot_bandwidth", "bandwidth.select", None, None),
    ("bddist.bandwidth", "mse_pilot_bandwidth", "bandwidth.select", None, None),
    ("bddist.bandwidth", "kink_adaptive_bandwidth", "bandwidth.select", None, None),
    ("bddist.bandwidth", "rot_scale", "bandwidth.scale", None, None),
    ("bddist.bandwidth", "data_diameter", "bandwidth.diameter", _on_diameter_call, None),
    ("bddist.bandwidth", "candidate_bandwidths", "bandwidth.candidates", None, _on_candidates),
    ("bddist.bandwidth", "build_distance_column", "kernels.column", None, _on_column),
    ("bddist.locpoly", "build_distance_column", "kernels.column", None, _on_column),
    ("bddist.bandwidth", "fit_point", "locpoly.fit", _on_pilot_fit_call, _on_fit),
    ("bddist.cli", "fit_point", "locpoly.fit", None, _on_retained_fit),
    ("bddist.locpoly", "fit_point", "locpoly.fit", None, _on_fit),
    ("bddist.simulation", "fit_grid", "locpoly.fit", None, _on_fit_grid),
    ("bddist.bandwidth", "xi_pair", "covariance.pair", None, None),
    ("bddist.cli", "build_surface", "covariance.surface", None, _on_surface),
    ("bddist.simulation", "build_surface", "covariance.surface", None, _on_surface),
    ("bddist.cli", "uniform_band", "inference.band", None, _on_band),
    ("bddist.simulation", "uniform_band", "inference.band", None, _on_band),
    ("bddist.cli", "write_csv", "formatting.write", None, None),
    ("bddist.simulation", "write_csv", "formatting.write", None, None),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory spans and counters for the operation in progress."""

    def __init__(self):
        self.missing: list[str] = []
        self.reset()

    def reset(self):
        self.spans: list[list] = []   # [group, name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []   # indices of the open spans
        self._raised: list[BaseException] = []

    def _wrap(self, fn, name, group, on_call, on_result):
        # One thread only: the benchmark runs bddist with BDD_THREADS=1.
        def wrapper(*args, **kwargs):
            stack = self._stack
            span = [group, name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(self.spans))
            self.spans.append(span)
            if on_call is not None:
                on_call(self.counts, args)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                # Count each error once, in the innermost span it left.
                if not any(err is seen for seen in self._raised):
                    self._raised.append(err)
                    self.counts[f"errors.{type(err).__name__}"] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every entry of WRAPS that exists; record the ones that do not."""
        for owner_name, attr, group, on_call, on_result in WRAPS:
            name = f"{owner_name.replace(':', '.')}.{attr}"
            try:
                owner = _resolve(owner_name)
            except (ImportError, AttributeError):
                owner = None
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self._wrap(raw.__func__, name, group, on_call, on_result)))
            else:
                setattr(owner, attr, self._wrap(raw, name, group, on_call, on_result))

    def spans_as_records(self) -> list[dict]:
        return [{"group": g, "name": n, "start": s, "end": e, "parent": p}
                for g, n, s, e, p in self.spans]

    def layer_metrics(self, per: int = 1) -> dict:
        """Per-layer metrics of the operation just traced, divided by ``per``.

        A group's time is the summed duration of its outermost spans (a span
        nested in another span of the same group is not counted twice).  A
        module's self time is its spans' durations minus their children's.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for group, _, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        incl, self_time = Counter(), Counter()
        for i, (group, _, start, end, parent) in enumerate(spans):
            dur = end - start
            self_time[group.split(".")[0]] += dur - child_time[i]
            a = parent
            while a is not None and spans[a][0] != group:
                a = spans[a][4]
            if a is None:
                incl[group] += dur
        c = self.counts
        totals = {
            "cli.read_s": incl["cli.read"],
            "data.sample_s": incl["data.sample"],
            "simulation.draw_s": incl["simulation.draw"],
            "geometry.distance_s": incl["geometry.distance"],
            "bandwidth.select_s": incl["bandwidth.select"],
            "bandwidth.scale_s": incl["bandwidth.scale"],
            "bandwidth.diameter_s": incl["bandwidth.diameter"],
            "bandwidth.diameter_calls": c["bandwidth.diameter_calls"],
            "bandwidth.pilot_fits": c["bandwidth.pilot_fits"],
            "bandwidth.candidates": c["bandwidth.candidates"],
            "kernels.column_s": incl["kernels.column"],
            "kernels.columns": c["kernels.columns"],
            "kernels.rows_scanned": c["kernels.rows_scanned"],
            "locpoly.fit_s": incl["locpoly.fit"],
            "locpoly.fits": c["locpoly.fits"],
            "locpoly.retained_mb": c["locpoly.retained_bytes"] / MB,
            "covariance.surface_s": incl["covariance.surface"],
            "covariance.regularized": c["covariance.regularized"],
            "inference.band_s": incl["inference.band"],
            "inference.band_draws": c["inference.band_draws"],
            "formatting.write_s": incl["formatting.write"],
        }
        totals.update({f"{m}.self_s": self_time[m] for m in MODULES})
        out = {k: v / per for k, v in totals.items()}
        out["cli.read_rows_per_s"] = _ratio(c["cli.read_rows"], incl["cli.read"])
        out["locpoly.n_eff"] = _ratio(c["locpoly.n_eff_sum"], c["locpoly.fits"])
        out["locpoly.support_ratio"] = _ratio(c["locpoly.n_eff_sum"],
                                              c["kernels.rows_scanned"])
        out["errors"] = {k.split(".", 1)[1]: v for k, v in c.items() if k.startswith("errors.")}
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
