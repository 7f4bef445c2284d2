"""Batch command-line front end: reproducible pipelines over the library.

Every subcommand reads files, writes fixed-named outputs into --out, and
echoes its resolved configuration to stderr.  Outputs carry no timestamps so
a rerun with the same inputs and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DatasetRuleError,
    ModelConfig,
    center_baseline,
    check_fve_threshold,
    check_truncation,
    config_from_dict,
    config_to_dict,
    first_repeat,
    json_array,
    json_object,
    json_value,
    load_dataset,
    save_dataset,
    write_csv,
    write_curves_csv,
    write_json,
)
from .descriptors import (
    binarize_image,
    check_dr,
    check_r_max,
    check_threshold,
    check_tpc_r_max,
    compute_rdf,
    compute_tpc,
    extract_particles,
    load_particles_csv,
    load_pgm,
)
from .design import layout_for, stacked_design
from .estimator import ConvergenceWarning, FitResult, NumericalError, check_stopping, fit_em
from .evaluation import (
    Metrics,
    check_folds,
    check_fraction,
    compare_models,
    count_parameters,
    effect_decomposition,
    fit_and_score,
    kfold_cv,
    predict_unit,
    table1_variants,
    temporal_split,
)
from .fpca import FpcaModel, fit_scores
from .simulate import check_seed, default_spec, generate_dataset

_DATA_FILES = ("responses.csv", "scalars.csv", "curves.csv")
# the numbers of a comparison row, in field order
_METRICS = tuple(f.name for f in fields(Metrics) if f.name not in ("model", "error"))


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _echo_config(name: str, payload: dict) -> None:
    print(f"[degramix {name}] " + json.dumps(payload, sort_keys=True), file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _data_paths(args) -> list:
    """The --data directory's three dataset files, each of which must exist."""
    paths = [Path(args.data) / name for name in _DATA_FILES]
    for p in paths:
        if not p.exists():
            raise CliError(f"missing data file {p}")
    return paths


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


def _unit_ids(name: str, ids) -> list:
    """``ids`` when it is an array of distinct strings."""
    if not (isinstance(ids, list) and all(isinstance(u, str) for u in ids)):
        raise ValueError(f"{name} is not an array of strings")
    twice = first_repeat(ids)
    if twice is not None:
        raise ValueError(f"{name} names unit {twice!r} twice")
    return ids


def _positive(name: str, value) -> float:
    """``value`` as a float when it is a positive JSON number."""
    value = float(json_value(name, value, float))
    if not value > 0.0:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


# one FPCA model's record, in fit_report.json's "fpca" array and in
# fpca_report.json; g is the length of its r_grid, e of its eigenvalues
_FPCA = (
    (("r_grid",), "fpca r_grid", ("g",), lambda m: m.r_grid),
    (("eigenvalues",), "fpca eigenvalues", ("e",), lambda m: m.eigenvalues),
    (("mean_curve",), "fpca mean_curve", ("g",), lambda m: m.mean_curve),
    (("eigenfunctions",), "fpca eigenfunctions", ("k", "g"), lambda m: m.eigenfunctions[: m.k]),
    (("fve_trace",), "fpca fve_trace", ("e",), lambda m: m.fve_trace),
    (("k",), None, None, lambda m: m.k),
)

# fit_report.json, one row per entry: its path, the name its errors give, its
# kind, and its value in a FitResult.  A kind is a JSON type (json_value); a
# shape (json_array) whose letters are lengths (n units, d latent levels, s
# functional covariates, k components, z coefficients; a letter not yet known
# takes the first length it meets); a reader of the name and the value; or
# _FPCA, an array of s such records.  A row of no name and kind is written
# for the file's readers and not read back.  The rows before the first shape
# fix the layout; the entries under _FUNCTIONAL exist for functional fits only.
_FIT_REPORT = (
    (("config",), "config", lambda _, value: config_from_dict(value),
     lambda fit: config_to_dict(fit.config)),
    (("layout", "n_scalars"), "layout n_scalars", int, lambda fit: fit.layout.n_scalars),
    (("layout", "n_functional"), "layout n_functional", int, lambda fit: fit.layout.n_functional),
    (("layout", "n_components"), "layout n_components", int, lambda fit: fit.layout.n_components),
    (("layout", "levels"), None, None, lambda fit: list(fit.layout.levels)),
    (("layout", "size"), None, None, lambda fit: fit.layout.size),
    (("layout", "names"), None, None, lambda fit: fit.layout.names()),
    (("latent_posterior", "unit_ids"), "latent_posterior unit_ids", _unit_ids,
     lambda fit: list(fit.unit_ids)),
    (("scores", "unit_ids"), "scores unit_ids", _unit_ids, lambda fit: list(fit.unit_ids)),
    (("scores", "values"), "scores", ("n", "s", "k"), lambda fit: fit.scores),
    (("fpca",), "fpca", _FPCA, lambda fit: fit.fpca_models),
    (("sigma_gamma",), "sigma_gamma", ("d", "d"), lambda fit: fit.params.sigma_gamma),
    (("zeta", "values"), "zeta", ("z",), lambda fit: fit.params.zeta),
    (("zeta", "nu"), None, None, lambda fit: fit.layout.split(fit.params.zeta)["nu"]),
    (("zeta", "beta"), None, None, lambda fit: fit.layout.split(fit.params.zeta)["beta"]),
    (("zeta", "b"), None, None, lambda fit: fit.layout.split(fit.params.zeta)["b"]),
    (("zeta", "b_interaction"), None, None,
     lambda fit: fit.layout.split(fit.params.zeta)["b_int"]),
    (("sigma_eps2",), "sigma_eps2", _positive, lambda fit: fit.params.sigma_eps2),
    (("latent_posterior", "mu"), "latent_posterior mu", ("n", "d"), lambda fit: fit.posterior.mu),
    (("loglik_trace",), "loglik_trace", (None,), lambda fit: fit.loglik_trace),
    (("iterations",), "iterations", int, lambda fit: fit.iterations),
    (("converged",), "converged", bool, lambda fit: fit.converged),
    (("stop_reason",), None, None, lambda fit: fit.stop_reason),
    (("r_support",), "r_support", _positive, lambda fit: fit.r_support),
)
_FUNCTIONAL = ("scores", "fpca")


def _report(rows, source) -> dict:
    """The JSON object ``rows`` state for ``source``: a FitResult for
    _FIT_REPORT, an FpcaModel for _FPCA."""
    report = {}
    for path, _, kind, value in rows:
        if path[0] in _FUNCTIONAL and not source.config.include_functional:
            continue
        node = report
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = [_report(kind, m) for m in value(source)] if kind is _FPCA else value(source)
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
    overrides = json_object("spec", payload, _SPEC_TYPES)
    if "scalar_ranges" in overrides:
        overrides["scalar_ranges"] = tuple(map(tuple, overrides["scalar_ranges"].tolist()))
    return overrides


def _cmd_simulate(args) -> int:
    try:
        overrides = _spec_overrides(args.spec) if args.spec else {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        spec = default_spec(**overrides)
    except ValueError as exc:  # only a --spec file can fail: --seed is checked
        raise CliError(f"{args.spec}: {exc}") from None
    _echo_config("simulate", {"seed": spec.seed, "n_units": spec.n_units, "n_obs": spec.n_obs})

    ds, truth = generate_dataset(spec)
    out = _out_dir(args)
    save_dataset(ds, out / "responses.csv", out / "scalars.csv", out / "curves.csv")
    write_json(out / "truth.json", {
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
    entries = []
    if args.kind == "tpc":
        if not args.image:
            raise CliError("descriptor tpc requires at least one --image")
        try:
            check_tpc_r_max(args.r_max)
        except ValueError as exc:
            raise CliError(f"argument --r-max: {exc}") from None
        # no image is referenced past its own curve, so each is freed
        # before the next is read
        for path in args.image:
            curve = compute_tpc(binarize_image(load_pgm(path), args.threshold),
                                int(args.r_max), periodic=args.periodic)
            entries.append((Path(path).stem, args.s, curve.r_grid, curve.values))
    else:
        if args.dr is None:
            raise CliError("descriptor rdf requires --dr")
        sources = []
        for path in args.image or []:
            sources.append((Path(path).stem,
                            extract_particles(binarize_image(load_pgm(path), args.threshold))))
        for path in args.particles or []:
            sources.append((Path(path).stem, load_particles_csv(path)))
        if not sources:
            raise CliError("descriptor rdf requires --image or --particles input")
        for name, ps in sources:
            curve = compute_rdf(ps, args.r_max, args.dr)
            if curve.degenerate:
                print(f"[degramix descriptor] {name}: degenerate particle set", file=sys.stderr)
            entries.append((name, args.s, curve.r_grid, curve.values))
    write_curves_csv(_out_dir(args) / "curves.csv", entries)
    return 0


def _cmd_fpca(args) -> int:
    ds = load_dataset(*_data_paths(args))
    config = _resolve_config(args)
    _echo_config("fpca", {"k": config.k, "fve": config.fve_threshold, "data": str(args.data)})
    report = []
    if ds.n_functional:
        models, scores = fit_scores(ds.curves, ds.r_grid, config.k, config.fve_threshold)
        report = [{**_report(_FPCA, m), "s": s + 1,
                   "scores": {"unit_ids": list(ds.unit_ids), "values": scores[:, s]}}
                  for s, m in enumerate(models)]
    write_json(_out_dir(args) / "fpca_report.json", {"covariates": report})
    return 0


def _prepare(ds, config, args):
    if args.center if args.center is not None else config.center_baseline:
        return center_baseline(ds)
    return ds


def _cmd_fit(args) -> int:
    ds = load_dataset(*_data_paths(args))
    config = _resolve_config(args)
    _echo_config("fit", config_to_dict(config))
    ds = _prepare(ds, config, args)
    fit = fit_em(ds, config, max_iter=args.max_iter, tol=args.tol)
    out = _out_dir(args)
    write_json(out / "fit_report.json", _report(_FIT_REPORT, fit))
    if args.dump_design:
        omega, lam = stacked_design(ds, config, fit.layout, fit.scores)
        write_csv(out / "design_omega.csv", fit.layout.names(), omega.T)
        write_csv(out / "design_lambda.csv",
                  ["unit_id", *(f"gamma_l{level}" for level in fit.layout.levels)],
                  [np.repeat(np.array(ds.unit_ids, dtype=object), ds.counts), *lam.T])
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


def _read(report, rows, lengths=None, prefix=()) -> dict:
    """The entries ``rows`` state under ``prefix`` in ``report``, keyed by
    path, each as its kind reads it; an entry of another kind raises
    ValueError naming it, and a missing one KeyError (``_entry``)."""
    got = {}
    for path, name, kind, _ in rows:
        if kind is None or path[0] in _FUNCTIONAL and not got["config",].include_functional:
            continue
        if isinstance(kind, tuple) and lengths is None:
            # the rows before fix the layout, kept as the "layout" entry's value
            sizes = [got["layout", key] for key in ("n_scalars", "n_functional", "n_components")]
            if min(sizes) < 0:
                raise ValueError(f"layout sizes must be nonnegative, got {sizes}")
            layout = got["layout",] = layout_for(got["config",], *sizes)
            lengths = {"n": len(got["latent_posterior", "unit_ids"]),
                       "d": layout.n_levels if got["config",].include_latent else 0,
                       "s": layout.n_functional, "k": layout.n_components, "z": layout.size}
        value = _entry(report, *prefix, *path)
        if kind is _FPCA:
            s = lengths["s"]
            got[path] = [_read(report, _FPCA, dict(lengths), (*prefix, *path, i)) for i in range(s)]
            if len(value) != s:
                raise ValueError(f"{name} holds {len(value)} models, expected {s}")
        elif isinstance(kind, tuple):
            got[path] = json_array(name, value, tuple(lengths.get(x) for x in kind))
            lengths.update((x, m) for x, m in zip(kind, got[path].shape) if x)
        elif isinstance(kind, type):
            got[path] = json_value(name, value, kind)
        else:
            got[path] = kind(name, value)
    return got


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


def _load_fit(path) -> FitResult:
    """The fit a fit_report.json records, its entries read by ``_read``:
    sigma_gamma must be a covariance (``_covariance``), each FPCA r_grid
    must rise strictly, and the scores must name the units the latent
    posterior names, in its order.  A report that is not JSON, lacks an
    entry or holds one that fails a check raises CliError naming the file."""
    from .estimator import LatentPosterior, Parameters

    try:
        got = _read(json.loads(Path(path).read_text(encoding="utf-8")), _FIT_REPORT)
        config, layout = got["config",], got["layout",]
        unit_ids, mu = got["latent_posterior", "unit_ids"], got["latent_posterior", "mu"]
        scores = fpca_models = None
        if config.include_functional:
            for have, want in zip(got["scores", "unit_ids"] + [None], unit_ids + [None]):
                if have != want:
                    raise ValueError(f"scores unit_ids name {json.dumps(have)} where "
                                     f"latent_posterior unit_ids name {json.dumps(want)}")
            scores, k = got["scores", "values"], layout.n_components
            fpca_models = tuple(FpcaModel(**{key: v for (key,), v in r.items()}, k=k)
                                for r in got["fpca",])
            for model in fpca_models:
                if model.r_grid.size < 2 or not np.all(np.diff(model.r_grid) > 0):
                    raise ValueError("fpca r_grid must rise strictly through at least two points")
        params = Parameters(got["zeta", "values"], got["sigma_eps2",],
                            _covariance("sigma_gamma", got["sigma_gamma",]))
    except KeyError as exc:
        raise CliError(f"{path}: fit report has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None
    return FitResult(params, LatentPosterior(mu, np.zeros((*mu.shape, mu.shape[1]))),
                     got["loglik_trace",], got["iterations",], got["converged",], config, layout,
                     tuple(unit_ids), got["r_support",], scores, fpca_models)


def _cmd_predict(args) -> int:
    fit = _load_fit(args.fit)
    responses, scalars, curves = _data_paths(args)
    # the report holds the scores of the units the fit saw, so the curves
    # are read only for a functional fit, to project the units it did not
    functional = fit.config.include_functional
    ds = load_dataset(responses, scalars, curves if functional else None, scored=fit.unit_ids)
    _echo_config("predict", {"fit": str(args.fit), "use_latent": args.use_latent})
    ds = _prepare(ds, fit.config, args)
    try:
        pred = predict_unit(fit, ds, use_latent=args.use_latent)
    except DatasetRuleError as exc:  # the dataset breaks a rule of the fit's
        files = {"responses": responses, "scalars": scalars, "curves": curves}
        raise CliError(f"{files[exc.source]}: {exc} (fit report {args.fit})") from None
    ids = np.repeat(np.array(ds.unit_ids, dtype=object), ds.counts)
    write_csv(_out_dir(args) / "predictions.csv", ["unit_id", "time", "y", "y_hat"],
              [ids, ds.times, ds.responses, pred])
    return 0


def _cmd_evaluate(args) -> int:
    ds = load_dataset(*_data_paths(args))
    if args.folds is not None:
        check_folds(args.folds, ds.n_units)
    config = _resolve_config(args)
    _echo_config("evaluate", {**config_to_dict(config), "split": args.split, "folds": args.folds})
    ds = _prepare(ds, config, args)
    metrics, fit = fit_and_score(*temporal_split(ds, args.split), config,
                                 max_iter=args.max_iter, tol=args.tol)
    payload = {
        **{name: getattr(metrics, name) for name in _METRICS},
        "p": count_parameters(fit),
        "n_units": ds.n_units,
        "split_fraction": args.split,
    }
    if args.folds is not None:
        payload["cv_error"] = kfold_cv(ds, config, args.folds, args.seed,
                                       max_iter=args.max_iter, tol=args.tol)
        payload["cv_seed"] = args.seed
    out = _out_dir(args)
    write_json(out / "metrics.json", payload)
    # effects read only ids, scalars and curves, which the train split keeps
    effects = effect_decomposition(fit, ds)
    header = ["unit_id", "level", "marginal_effect", "interaction_effect", "latent_effect"]
    write_csv(out / "effects.csv", header, [effects[name] for name in header])
    return 0


def _cmd_compare(args) -> int:
    ds = load_dataset(*_data_paths(args))
    registry = table1_variants(k=args.k, fve_threshold=args.fve)
    names = args.variant or [n for n in registry if n != "Model6"]
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise CliError(f"unknown variant {unknown[0]!r}; expected Model1..Model7")
    _echo_config("compare", {"variants": names, "split": args.split})
    micro = None
    if args.micro_column is not None:
        col = args.micro_column - 1
        if col >= ds.n_scalars:
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
    write_csv(_out_dir(args) / "comparison.csv", ["model", *_METRICS],
              [[r.model for r in rows]] + [
                  np.array(["" if r.error is not None else float(getattr(r, name)) for r in rows],
                           dtype=object) for name in _METRICS])
    return 0


def _checked(parse, check):
    """An argparse ``type=``: ``parse`` the flag's text, then hold the value
    to the library's ``check``, whose ValueError text argparse prints after
    the flag's name, before any file is read."""
    def convert(text):
        value = parse(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = parse.__name__  # unparsable text reads "invalid int value"
    return convert


_K = _checked(int, check_truncation)
_FVE = _checked(float, check_fve_threshold)
_TOL = _checked(float, lambda tol: check_stopping(0, tol))
_MAX_ITER = _checked(int, lambda max_iter: check_stopping(max_iter, 0.0))
_SPLIT = _checked(float, check_fraction)
_SEED = _checked(int, check_seed)


def _index(name: str):
    """The lower bound of a 1-based index flag; the upper one (the scalar
    count of --micro-column, the S of a dataset for --s) needs the data."""
    def check(index: int) -> None:
        if index < 1:
            raise ValueError(f"{name} must be >= 1, got {index}")
    return check


def build_parser() -> _Parser:
    parser = _Parser(prog="degramix",
                     description="Degradation modeling with mixed covariates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--spec", help="JSON overrides of the default synthetic spec")
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--out", required=True)

    p = sub.add_parser("descriptor", help="extract TPC/RDF descriptor curves")
    p.add_argument("kind", choices=["tpc", "rdf"])
    p.add_argument("--image", action="append")
    p.add_argument("--particles", action="append")
    p.add_argument("--threshold", type=_checked(float, check_threshold), default=0.5)
    p.add_argument("--r-max", type=_checked(float, check_r_max), required=True)
    p.add_argument("--dr", type=_checked(float, check_dr))
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--s", type=_checked(int, _index("covariate index s")), default=1,
                   help="functional covariate index")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fpca", help="fit FPCA on functional covariates")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=_K)
    p.add_argument("--fve", type=_FVE)
    p.add_argument("--out", required=True)

    def fit_args(p):
        p.add_argument("--data", required=True)
        model = p.add_mutually_exclusive_group()
        model.add_argument("--config")
        model.add_argument("--variant")
        p.add_argument("--k", type=_K)
        p.add_argument("--fve", type=_FVE)
        p.add_argument("--tol", type=_TOL, default=1e-8)
        p.add_argument("--max-iter", type=_MAX_ITER, default=500)
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
    p.add_argument("--split", type=_SPLIT, default=0.8)
    # n_units, the folds' upper bound, is known only after the load
    p.add_argument("--folds", type=_checked(int, lambda k: check_folds(k, k)))
    p.add_argument("--seed", type=_SEED, default=0)

    p = sub.add_parser("compare", help="fit the model-comparison family")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", action="append")
    p.add_argument("--k", type=_K)
    p.add_argument("--fve", type=_FVE)
    p.add_argument("--split", type=_SPLIT, default=0.8)
    p.add_argument("--tol", type=_TOL, default=1e-8)
    p.add_argument("--max-iter", type=_MAX_ITER, default=500)
    p.add_argument("--micro-column", type=_checked(int, _index("column")),
                   help="1-based scalar column used as the microstructure scalar (Model6)")
    p.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The argparse tree, built once per process: parsing leaves it as it was."""
    return build_parser()


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
    parser = _parser()
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

