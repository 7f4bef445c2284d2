"""Batch command-line front end: reproducible pipelines over the library.

Every subcommand reads files, writes fixed-named outputs into --out, and
echoes its resolved configuration to stderr.  Outputs carry no timestamps so
a rerun with the same inputs and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ModelConfig,
    center_baseline,
    config_from_dict,
    config_to_dict,
    json_array,
    json_value,
    load_dataset,
    save_dataset,
    write_csv,
    write_curves_csv,
)
from .descriptors import (
    binarize_image,
    compute_rdf,
    compute_tpc,
    extract_particles,
    load_particles_csv,
    load_pgm,
)
from .estimator import ConvergenceWarning, FitResult, NumericalError, fit_em
from .evaluation import (
    count_parameters,
    effect_decomposition,
    fit_and_score,
    compare_models,
    kfold_cv,
    predict_unit,
    table1_variants,
)
from .fpca import FpcaModel, fit_scores
from .simulate import default_spec, generate_dataset

_DATA_FILES = ("responses.csv", "scalars.csv", "curves.csv")


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _json_default(obj):
    """What ``json`` cannot write itself: arrays and numpy scalars.  (An
    ``np.float64`` is a ``float`` and never reaches this hook.)"""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
                    encoding="utf-8")


def _echo_config(name: str, payload: dict) -> None:
    print(f"[degramix {name}] " + json.dumps(payload, sort_keys=True, default=_json_default),
          file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(args):
    data_dir = Path(args.data)
    paths = [data_dir / name for name in _DATA_FILES]
    for p in paths:
        if not p.exists():
            raise CliError(f"missing data file {p}")
    return load_dataset(*paths)


def _resolve_config(args) -> ModelConfig:
    if getattr(args, "variant", None):
        variant = table1_variants().get(args.variant)
        if variant is None:
            raise CliError(f"unknown variant {args.variant!r}; expected Model1..Model7")
        config = variant.config
    elif getattr(args, "config", None):
        try:
            config = config_from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
        except ValueError as exc:
            raise CliError(f"{args.config}: {exc}") from None
    else:
        config = ModelConfig()
    updates = {"k": getattr(args, "k", None), "fve_threshold": getattr(args, "fve", None)}
    return replace(config, **{key: v for key, v in updates.items() if v is not None})


def _fpca_record(model) -> dict:
    return {
        "r_grid": model.r_grid,
        "mean_curve": model.mean_curve,
        "eigenfunctions": model.eigenfunctions[: model.k],
        "eigenvalues": model.eigenvalues,
        "fve_trace": model.fve_trace,
        "k": model.k,
    }


def _fit_report(fit: FitResult) -> dict:
    layout = fit.layout
    parts = layout.split(fit.params.zeta)
    report = {
        "config": config_to_dict(fit.config),
        "layout": {
            "levels": list(layout.levels),
            "n_scalars": layout.n_scalars,
            "n_functional": layout.n_functional,
            "n_components": layout.n_components,
            "size": layout.size,
            "names": layout.names(),
        },
        "zeta": {
            "values": fit.params.zeta,
            "nu": parts["nu"],
            "beta": parts["beta"],
            "b": parts["b"],
            "b_interaction": parts["b_int"],
        },
        "sigma_eps2": fit.params.sigma_eps2,
        "sigma_gamma": fit.params.sigma_gamma,
        "latent_posterior": {
            "unit_ids": list(fit.unit_ids),
            "mu": fit.posterior.mu,
        },
        "loglik_trace": fit.loglik_trace,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "stop_reason": fit.stop_reason,
        "r_support": fit.r_support,
    }
    if fit.scores is not None:
        report["scores"] = {"unit_ids": list(fit.unit_ids), "values": fit.scores}
    if fit.fpca_models is not None:
        report["fpca"] = [_fpca_record(m) for m in fit.fpca_models]
    return report


# the JSON type of each --spec key's value: an integer, a number, or an
# array of numbers of the given shape (None: any length)
_SPEC_TYPES = {"n_units": int, "n_obs": int, "seed": int, "sigma_eps2": float,
               "zeta": (None,), "score_variances": (None,), "times": (None,), "r_grid": (None,),
               "mean_curve": (None,), "sigma_gamma": (None, None), "modes": (None, None),
               "scalar_ranges": (None, 2)}


def _spec_overrides(path) -> dict:
    """The keys of a --spec file as ``default_spec`` overrides; a file not a
    JSON object, an unknown key or a value of the wrong type raises ValueError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"spec must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_SPEC_TYPES))
    if unknown:
        raise ValueError(f"unknown spec key {unknown[0]!r}")
    overrides = {}
    for key, value in payload.items():
        kind, name = _SPEC_TYPES[key], f"spec key {key!r}"
        overrides[key] = (json_array(name, value, kind) if isinstance(kind, tuple)
                          else json_value(name, value, kind))
    if "scalar_ranges" in overrides:
        overrides["scalar_ranges"] = tuple(map(tuple, overrides["scalar_ranges"].tolist()))
    return overrides


def _cmd_simulate(args) -> int:
    try:  # only a --spec file can make the spec invalid
        overrides = _spec_overrides(args.spec) if args.spec else {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        spec = default_spec(**overrides)
    except ValueError as exc:
        raise CliError(f"{args.spec}: {exc}") from None
    _echo_config("simulate", {"seed": spec.seed, "n_units": spec.n_units, "n_obs": spec.n_obs})

    ds, truth = generate_dataset(spec)
    out = _out_dir(args)
    save_dataset(ds, out / "responses.csv", out / "scalars.csv", out / "curves.csv")
    _write_json(out / "truth.json", {
        "zeta": truth.zeta,
        "zeta_names": truth.layout.names(),
        "sigma_eps2": truth.sigma_eps2,
        "sigma_gamma": truth.sigma_gamma,
        "gamma": truth.gamma,
        "scores": truth.scores,
        "r_support": truth.r_support,
        "seed": spec.seed,
    })
    return 0


def _cmd_descriptor(args) -> int:
    _echo_config("descriptor", {
        "kind": args.kind, "r_max": args.r_max, "dr": args.dr,
        "threshold": args.threshold, "periodic": args.periodic,
    })
    if args.s < 1:
        raise CliError(f"descriptor requires --s >= 1, got {args.s}")
    out = _out_dir(args)
    entries = []
    if args.kind == "tpc":
        if not args.image:
            raise CliError("descriptor tpc requires at least one --image")
        if not args.r_max.is_integer():
            raise CliError(f"descriptor tpc requires a whole-pixel --r-max, got {args.r_max!r}")
        for path in args.image:
            img = binarize_image(load_pgm(path), args.threshold)
            curve = compute_tpc(img, int(args.r_max), periodic=args.periodic)
            entries.append((Path(path).stem, args.s, curve.r_grid, curve.values))
    else:
        if args.dr is None:
            raise CliError("descriptor rdf requires --dr")
        sources = []
        for path in args.image or []:
            img = binarize_image(load_pgm(path), args.threshold)
            sources.append((Path(path).stem, extract_particles(img)))
        for path in args.particles or []:
            sources.append((Path(path).stem, load_particles_csv(path)))
        if not sources:
            raise CliError("descriptor rdf requires --image or --particles input")
        for name, ps in sources:
            curve = compute_rdf(ps, args.r_max, args.dr)
            if curve.degenerate:
                print(f"[degramix descriptor] {name}: degenerate particle set", file=sys.stderr)
            entries.append((name, args.s, curve.r_grid, curve.values))
    write_curves_csv(out / "curves.csv", entries)
    return 0


def _cmd_fpca(args) -> int:
    ds = _load_data(args)
    config = _resolve_config(args)
    _echo_config("fpca", {"k": config.k, "fve": config.fve_threshold, "data": str(args.data)})
    out = _out_dir(args)
    report = []
    if ds.n_functional:
        models, scores = fit_scores(ds.curves, ds.r_grid, config.k, config.fve_threshold)
        report = [{**_fpca_record(m), "s": s + 1,
                   "scores": {"unit_ids": list(ds.unit_ids), "values": scores[:, s]}}
                  for s, m in enumerate(models)]
    _write_json(out / "fpca_report.json", {"covariates": report})
    return 0


def _prepare(ds, config, args):
    if args.center if args.center is not None else config.center_baseline:
        return center_baseline(ds)
    return ds


def _cmd_fit(args) -> int:
    ds = _load_data(args)
    config = _resolve_config(args)
    _echo_config("fit", config_to_dict(config))
    ds = _prepare(ds, config, args)
    fit = fit_em(ds, config, max_iter=args.max_iter, tol=args.tol)
    out = _out_dir(args)
    _write_json(out / "fit_report.json", _fit_report(fit))
    if args.dump_design:
        dm = fit.design
        write_csv(out / "design_omega.csv", dm.layout.names(), dm.omega.T)
        write_csv(out / "design_lambda.csv",
                  ["unit_id", *(f"gamma_l{level}" for level in dm.layout.levels)],
                  [np.repeat(np.array(dm.unit_ids, dtype=object), dm.counts), *dm.lam.T])
    return 0


def _entry(report, *path):
    """The fit report's entry at ``path``, object keys and array indices.  A
    missing entry raises KeyError naming its path, such as ``scores.values``
    or ``fpca[0].r_grid``; a step into a non-container raises ValueError."""
    node, name = report, ""
    for key in path:
        step = list if isinstance(key, int) else dict
        if not isinstance(node, step):
            raise ValueError(f"{name or 'fit report'} must be a JSON "
                             f"{'array' if step is list else 'object'}, got {type(node).__name__}")
        name = f"{name}[{key}]" if step is list else f"{name}.{key}" if name else key
        if key not in (range(len(node)) if step is list else node):
            raise KeyError(name)
        node = node[key]
    return node


def _positive(name: str, value) -> float:
    """``value`` as a float when it is a positive JSON number."""
    value = float(json_value(name, value, float))
    if not value > 0.0:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


# how far a report's Sigma_gamma may be from symmetric, and its smallest
# eigenvalue below zero, relative to its largest absolute entry
_PSD_TOL = 1e-10


def _covariance(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr`` when it is a symmetric, positive semidefinite matrix, each
    within ``_PSD_TOL``; otherwise ValueError naming it."""
    tol = _PSD_TOL * np.abs(arr).max(initial=0.0)
    if np.abs(arr - arr.T).max(initial=0.0) > tol:
        raise ValueError(f"{name} is not symmetric")
    if np.linalg.eigvalsh(arr).min(initial=0.0) < -tol:
        raise ValueError(f"{name} is not positive semidefinite")
    return arr


def _fpca_from_record(report, s: int, k: int) -> FpcaModel:
    """The FpcaModel ``_fpca_record`` wrote for covariate ``s`` (from 0),
    truncated to ``k`` components."""
    def array(key, shape):
        return json_array(f"fpca {key}", _entry(report, "fpca", s, key), shape)

    r_grid = array("r_grid", (None,))
    if r_grid.size < 2 or not np.all(np.diff(r_grid) > 0):
        raise ValueError("fpca r_grid must rise strictly through at least two points")
    eigenvalues = array("eigenvalues", (None,))
    return FpcaModel(r_grid, array("mean_curve", r_grid.shape),
                     array("eigenfunctions", (k, r_grid.size)), eigenvalues,
                     array("fve_trace", eigenvalues.shape), k)


def _fit_from_report(report) -> FitResult:
    """The FitResult a fit report holds, each array in the shape the layout
    fixes; sigma_eps2 and r_support must be positive and sigma_gamma a
    covariance (``_covariance``)."""
    from .design import layout_for
    from .estimator import LatentPosterior, Parameters

    config = config_from_dict(_entry(report, "config"))
    sizes = [json_value(f"layout {key}", _entry(report, "layout", key), int)
             for key in ("n_scalars", "n_functional", "n_components")]
    if min(sizes) < 0:
        raise ValueError(f"layout sizes must be nonnegative, got {sizes}")
    layout = layout_for(config, *sizes)
    unit_ids = _entry(report, "latent_posterior", "unit_ids")
    if not (isinstance(unit_ids, list) and all(isinstance(u, str) for u in unit_ids)):
        raise ValueError("latent_posterior unit_ids is not an array of strings")
    n, d = len(unit_ids), layout.latent_dim if config.include_latent else 0
    s, k = layout.n_functional, layout.n_components
    scores = fpca_models = None
    if config.include_functional:
        scores = json_array("scores", _entry(report, "scores", "values"), (n, s, k))
        fpca_models = tuple(_fpca_from_record(report, i, k) for i in range(s))
        if len(report["fpca"]) != s:
            raise ValueError(f"fpca holds {len(report['fpca'])} models, expected {s}")
    sigma_gamma = json_array("sigma_gamma", _entry(report, "sigma_gamma"), (d, d))
    return FitResult(
        params=Parameters(json_array("zeta", _entry(report, "zeta", "values"), (layout.size,)),
                          _positive("sigma_eps2", _entry(report, "sigma_eps2")),
                          _covariance("sigma_gamma", sigma_gamma)),
        posterior=LatentPosterior(
            mu=json_array("latent_posterior mu", _entry(report, "latent_posterior", "mu"), (n, d)),
            v=np.zeros((n, d, d))),
        loglik_trace=json_array("loglik_trace", _entry(report, "loglik_trace"), (None,)),
        iterations=json_value("iterations", _entry(report, "iterations"), int),
        converged=json_value("converged", _entry(report, "converged"), bool),
        config=config,
        layout=layout,
        unit_ids=tuple(unit_ids),
        r_support=_positive("r_support", _entry(report, "r_support")),
        scores=scores,
        fpca_models=fpca_models,
    )


def _load_fit(path) -> FitResult:
    """The fit a fit_report.json records.  A report that is not JSON, lacks
    an entry or holds one of the wrong type or shape raises CliError naming
    the file."""
    try:
        return _fit_from_report(json.loads(Path(path).read_text(encoding="utf-8")))
    except KeyError as exc:
        raise CliError(f"{path}: fit report has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _cmd_predict(args) -> int:
    fit = _load_fit(args.fit)
    ds = _load_data(args)
    _echo_config("predict", {"fit": str(args.fit), "use_latent": args.use_latent})
    ds = _prepare(ds, fit.config, args)
    pred = predict_unit(fit, ds, use_latent=args.use_latent)
    ids = np.repeat(np.array(ds.unit_ids, dtype=object), ds.counts)
    write_csv(_out_dir(args) / "predictions.csv", ["unit_id", "time", "y", "y_hat"],
              [ids, ds.times, ds.responses, pred])
    return 0


def _cmd_evaluate(args) -> int:
    ds = _load_data(args)
    config = _resolve_config(args)
    _echo_config("evaluate", {**config_to_dict(config), "split": args.split, "folds": args.folds})
    ds = _prepare(ds, config, args)
    metrics, fit = fit_and_score(ds, config, split_fraction=args.split,
                                 max_iter=args.max_iter, tol=args.tol)
    payload = {
        "r2": metrics.r2,
        "loglik": metrics.loglik,
        "aic": metrics.aic,
        "bic": metrics.bic,
        "mse_train": metrics.mse_train,
        "mse_test": metrics.mse_test,
        "p": count_parameters(fit),
        "n_units": ds.n_units,
        "split_fraction": args.split,
    }
    if args.folds:
        payload["cv_error"] = kfold_cv(ds, config, args.folds, args.seed,
                                       max_iter=args.max_iter, tol=args.tol)
        payload["cv_seed"] = args.seed
    out = _out_dir(args)
    _write_json(out / "metrics.json", payload)
    # effects read only ids, scalars and curves, which the train split keeps
    effects = effect_decomposition(fit, ds)
    header = ["unit_id", "level", "marginal_effect", "interaction_effect", "latent_effect"]
    write_csv(out / "effects.csv", header,
              [[getattr(r, name) for r in effects] for name in header])
    return 0


def _cmd_compare(args) -> int:
    ds = _load_data(args)
    registry = table1_variants(k=args.k, fve_threshold=args.fve)
    names = args.variant or [n for n in registry if n != "Model6"]
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise CliError(f"unknown variant {unknown[0]!r}; expected Model1..Model7")
    _echo_config("compare", {"variants": names, "split": args.split})
    micro = None
    if args.micro_column is not None:
        col = args.micro_column - 1
        if not (0 <= col < ds.n_scalars):
            raise CliError(f"--micro-column {args.micro_column} out of range 1..{ds.n_scalars}")
        micro = ds.scalars[:, col]
        ds = replace(ds, scalars=np.delete(ds.scalars, col, axis=1))
    if any(registry[n].config.center_baseline for n in names):
        ds = center_baseline(ds)
    rows = compare_models(ds, [registry[n] for n in names], split_fraction=args.split,
                          micro_scalar=micro, max_iter=args.max_iter, tol=args.tol)
    for row in rows:
        if row.error is not None:
            print(f"[degramix compare] {row.model} failed: {row.error}", file=sys.stderr)
    # a failed variant's metrics are written as empty fields
    header = ["model", "r2", "loglik", "aic", "bic", "mse_train", "mse_test"]
    write_csv(_out_dir(args) / "comparison.csv", header,
              [[r.model for r in rows]] + [
                  np.array(["" if r.error is not None else float(getattr(r, name)) for r in rows],
                           dtype=object) for name in header[1:]])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="degramix",
                     description="Degradation modeling with mixed covariates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--spec", help="JSON overrides of the default synthetic spec")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("descriptor", help="extract TPC/RDF descriptor curves")
    p.add_argument("kind", choices=["tpc", "rdf"])
    p.add_argument("--image", action="append")
    p.add_argument("--particles", action="append")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--dr", type=float)
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--s", type=int, default=1, help="functional covariate index")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fpca", help="fit FPCA on functional covariates")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--fve", type=float)
    p.add_argument("--out", required=True)

    def fit_args(p):
        p.add_argument("--data", required=True)
        model = p.add_mutually_exclusive_group()
        model.add_argument("--config")
        model.add_argument("--variant")
        p.add_argument("--k", type=int)
        p.add_argument("--fve", type=float)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=500)
        p.add_argument("--center", action=argparse.BooleanOptionalAction, default=None,
                       help="apply baseline centering (default: follow config)")
        p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit one model on the full dataset")
    fit_args(p)
    p.add_argument("--dump-design", action="store_true")

    p = sub.add_parser("predict", help="predict responses from a fit report")
    p.add_argument("--fit", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--use-latent", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--center", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="temporal-split metrics and effects")
    fit_args(p)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("compare", help="fit the model-comparison family")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", action="append")
    p.add_argument("--k", type=int)
    p.add_argument("--fve", type=float)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--micro-column", type=int,
                   help="1-based scalar column used as the microstructure scalar (Model6)")
    p.add_argument("--out", required=True)

    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "descriptor": _cmd_descriptor,
    "fpca": _cmd_fpca,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def _stderr_line(command: str, show):
    """A ``warnings.showwarning`` that prints each ConvergenceWarning as one
    ``[degramix <command>]`` stderr line and hands other warnings to ``show``."""
    def showwarning(message, category, *args, **kwargs):
        if issubclass(category, ConvergenceWarning):
            print(f"[degramix {command}] {message}", file=sys.stderr)
        else:
            show(message, category, *args, **kwargs)
    return showwarning


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        with warnings.catch_warnings():
            warnings.simplefilter("always", ConvergenceWarning)
            warnings.showwarning = _stderr_line(args.command, warnings.showwarning)
            return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError) as exc:  # an OSError's text names its path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
