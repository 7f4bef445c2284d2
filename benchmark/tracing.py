"""Layer spans for the traced run, installed from outside the program.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span, both under the defining module's name and under
every ``from .x import y`` binding elsewhere in the package, and
``uninstall`` puts the originals back.  Spans are kept in memory and reduced
to per-layer metrics after each pass.

A span's *layer-exclusive* time is its duration minus the time covered by
spans of other layers below it; calls into the same layer stay included.  So
``estimator.fit_em_s`` holds the E-steps, M-steps and log-likelihoods of the
fit but not its design build, and ``<layer>.self_s`` counts each moment of a
layer once.  The bookkeeping an observer does after a call is removed from
every enclosing span's clock.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("data", "descriptors", "fpca", "design", "estimator", "evaluation", "cli")
# images at or above this many pixels count as "large" TPC inputs (FFT path)
LARGE_TPC_PIXELS = 256 * 256
_MB = 1024.0 * 1024.0

# per-layer metrics built from summed layer-exclusive seconds of these spans
_TIME_METRICS = {
    "data.load_dataset_s": ("data.load_dataset",),
    "data.center_baseline_s": ("data.center_baseline",),
    "descriptors.load_pgm_s": ("descriptors.load_pgm",),
    "descriptors.tpc_tile_s": ("descriptors.tpc_tile",),
    "descriptors.tpc_large_s": ("descriptors.tpc_large",),
    "descriptors.extract_particles_s": ("descriptors.extract_particles",),
    "descriptors.compute_rdf_s": ("descriptors.compute_rdf",),
    "fpca.fit_fpca_s": ("fpca.fit_fpca",),
    "fpca.project_scores_s": ("fpca.project_scores",),
    "design.build_design_matrices_s": ("design.build_design_matrices",),
    "estimator.fit_em_s": ("estimator.fit_em",),
    "estimator.e_step_s": ("estimator.e_step",),
    "estimator.m_step_s": ("estimator.update_zeta", "estimator.update_sigma_gamma",
                           "estimator.update_sigma_eps"),
    "estimator.marginal_loglik_s": ("estimator.marginal_loglik",),
    "evaluation.temporal_split_s": ("evaluation.temporal_split",),
    "evaluation.predict_unit_s": ("evaluation.predict_unit",),
    "evaluation.effect_decomposition_s": ("evaluation.effect_decomposition",),
    "evaluation.kfold_cv_s": ("evaluation.kfold_cv",),
    "evaluation.compare_models_s": ("evaluation.compare_models",),
}
_CALL_METRICS = {
    "estimator.e_step_calls": "estimator.e_step",
    "estimator.marginal_loglik_calls": "estimator.marginal_loglik",
    "evaluation.predict_unit_calls": "evaluation.predict_unit",
    "estimator.fit_em_calls": "estimator.fit_em",
}
# tracemalloc peaks above the level at entry, from the separate memory pass
PEAK_METRICS = {
    "descriptors.compute_tpc_peak_mb": ("descriptors.tpc_tile", "descriptors.tpc_large"),
    "descriptors.compute_rdf_peak_mb": ("descriptors.compute_rdf",),
    "design.build_design_matrices_peak_mb": ("design.build_design_matrices",),
    "estimator.fit_em_peak_mb": ("estimator.fit_em",),
}


class Tracer:
    """Span recorder; one pass at a time, single-threaded."""

    def __init__(self, zeta_error=None):
        self._zeta_error = zeta_error  # FitResult -> float, or None if not comparable
        self._originals = []           # (module, attribute, original function)
        self._stack = []
        self._offset = 0.0
        self.memory = False
        self.reset()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"degramix.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name[0] != "_":
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}", layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "degramix" and not mod_name.startswith("degramix."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._originals.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, fn in self._originals:
            setattr(mod, attr, fn)
        self._originals = []

    def _wrap(self, fn, name, layer):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                t = time.perf_counter()
                observe(self, signature.bind(*args, **kwargs).arguments, result)
                self._offset += time.perf_counter() - t
            return result

        return traced

    # -- spans ---------------------------------------------------------------

    def clock(self) -> float:
        """perf_counter minus the time observers spent after calls."""
        return time.perf_counter() - self._offset

    def reset(self) -> None:
        # (name, layer, parent layer, duration, layer-exclusive, peak bytes)
        self.spans = []
        self.counts = {}    # observer tallies

    def _enter(self, name, layer):
        # [name, layer, start, other-layer time below, base, saved peak, child peak]
        frame = [name, layer, 0.0, 0.0, 0, 0, 0]
        if self.memory:
            frame[4], frame[5] = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        self._stack.append(frame)
        frame[2] = self.clock()
        return frame

    def _exit(self, frame):
        duration = self.clock() - frame[2]
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        name, layer = frame[0], frame[1]
        if parent is not None:
            parent[3] += duration if parent[1] != layer else frame[3]
        peak = 0
        if self.memory:
            peak = max(tracemalloc.get_traced_memory()[1], frame[6])
            if parent is not None:
                parent[6] = max(parent[6], frame[5], peak)
        self.spans.append((name, layer, parent[1] if parent else None,
                           duration, duration - frame[3], peak - frame[4]))

    def rename_last(self, name) -> None:
        """Relabel the span that just closed (it is the last one recorded)."""
        self.spans[-1] = (name,) + self.spans[-1][1:]

    def tally(self, key, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- reduction -----------------------------------------------------------

    def pass_metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of the pass whose spans were just recorded."""
        excl, calls = {}, {}
        for name, _, _, _, ex, _ in self.spans:
            excl[name] = excl.get(name, 0.0) + ex
            calls[name] = calls.get(name, 0) + 1
        out = {m: sum(excl.get(n, 0.0) for n in names) for m, names in _TIME_METRICS.items()}
        out.update({m: float(calls.get(n, 0)) for m, n in _CALL_METRICS.items()})
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_s"] = sum(ex for _, lay, parent, _, ex, _ in self.spans
                                         if lay == layer and parent != layer)
        covered = sum(d for _, lay, parent, d, _, _ in self.spans
                      if lay != "cli" and parent in (None, "cli"))
        out["cli.self_s"] = pass_s - covered
        c = self.counts
        load_s = excl.get("data.load_dataset", 0.0)
        out["data.rows_per_s"] = c.get("rows", 0) / load_s if load_s else 0.0
        materialised = c.get("rdf_distances", 0)
        out["descriptors.rdf_pair_yield"] = c.get("rdf_pairs", 0) / materialised if materialised else 0.0
        out["fpca.k_selected"] = float(c.get("k_max", 0))
        out["design.design_bytes"] = float(c.get("design_bytes", 0))
        fits = calls.get("estimator.fit_em", 0)
        out["estimator.iterations"] = float(c.get("iterations", 0))
        out["estimator.converged_ratio"] = c.get("converged", 0) / fits if fits else 0.0
        latent_iters = c.get("latent_iterations", 0)
        out["estimator.s_per_iteration"] = (c.get("latent_fit_s", 0.0) / latent_iters
                                            if latent_iters else 0.0)
        out["estimator.final_loglik"] = float(c.get("final_loglik", 0.0))
        out["estimator.zeta_rel_err"] = float(c.get("zeta_err_max", 0.0))
        rows = c.get("variant_rows", 0)
        out["evaluation.variant_error_ratio"] = c.get("variant_errors", 0) / rows if rows else 0.0
        return out

    def peak_metrics(self) -> dict:
        return {m: max((s[5] for s in self.spans if s[0] in names), default=0) / _MB
                for m, names in PEAK_METRICS.items()}

    def fired(self) -> set:
        return {s[0] for s in self.spans}


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


# -- observers: counts from a call's bound arguments and its result ----------

def _observe_load_dataset(tr, args, ds):
    tr.tally("rows", sum(u.n_obs for u in ds.units) + ds.n_units
             + ds.n_units * ds.n_functional * ds.r_grid.size)


def _observe_tpc(tr, args, curve):
    img = args["img"]
    large = img.width * img.height >= LARGE_TPC_PIXELS
    tr.rename_last("descriptors.tpc_large" if large else "descriptors.tpc_tile")


def _observe_rdf(tr, args, curve):
    ps, r_max, dr = args["ps"], float(args["r_max"]), float(args["dr"])
    if curve.degenerate:
        return
    w, h = ps.window
    x, y = ps.coordinates[:, 0], ps.coordinates[:, 1]
    m = ps.n_particles
    m_int = int(np.count_nonzero((x >= r_max) & (x <= w - r_max)
                                 & (y >= r_max) & (y <= h - r_max)))
    n_bins = curve.values.size
    areas = np.pi * np.diff((np.arange(n_bins + 1) * dr) ** 2)
    pairs = np.rint(curve.values * (m_int * (m / (w * h)) * areas)).sum()
    tr.tally("rdf_pairs", int(pairs))
    tr.tally("rdf_distances", m_int * (m - 1))


def _observe_project(tr, args, scores):
    tr.counts["k_max"] = max(tr.counts.get("k_max", 0), int(args["model"].k))


def _observe_design(tr, args, dm):
    total = 0
    for f in dataclasses.fields(dm):
        val = getattr(dm, f.name)
        items = val if isinstance(val, tuple) else (val,)
        total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    tr.tally("design_bytes", total)


def _observe_fit(tr, args, fit):
    tr.tally("iterations", fit.iterations)
    tr.tally("converged", int(fit.converged))
    tr.tally("final_loglik", fit.loglik)
    if fit.params.latent_dim:
        tr.tally("latent_iterations", fit.iterations)
        tr.tally("latent_fit_s", tr.spans[-1][4])
        tr.counts.setdefault("latent_fit_iterations", []).append(fit.iterations)
    else:
        tr.counts.setdefault("plain_fit_iterations", []).append(fit.iterations)
    if tr._zeta_error is not None:
        err = tr._zeta_error(fit)
        if err is not None:
            tr.counts["zeta_err_max"] = max(tr.counts.get("zeta_err_max", 0.0), err)


def _observe_compare(tr, args, rows):
    tr.tally("variant_rows", len(rows))
    tr.tally("variant_errors", sum(r.error is not None for r in rows))


_OBSERVERS = {
    "data.load_dataset": _observe_load_dataset,
    "descriptors.compute_tpc": _observe_tpc,
    "descriptors.compute_rdf": _observe_rdf,
    "fpca.project_scores": _observe_project,
    "design.build_design_matrices": _observe_design,
    "estimator.fit_em": _observe_fit,
    "evaluation.compare_models": _observe_compare,
}
