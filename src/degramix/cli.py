"""Batch command-line front end: reproducible pipelines over the library.

Every subcommand reads files, writes fixed-named outputs into --out, and
echoes its resolved configuration to stderr.  Outputs carry no timestamps so
a rerun with the same inputs and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    ModelConfig,
    center_baseline,
    config_from_dict,
    config_to_dict,
    load_dataset,
    save_dataset,
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
from .estimator import FitResult, NumericalError, fit_em
from .evaluation import (
    count_parameters,
    effect_decomposition,
    fit_and_score,
    compare_models,
    kfold_cv,
    predict_unit,
    table1_variants,
)
from .fpca import fit_fpca, project_scores, select_k_by_fve, with_k
from .simulate import default_spec, generate_dataset

_DATA_FILES = ("responses.csv", "scalars.csv", "curves.csv")


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _fmt(v) -> str:
    return repr(float(v))


def _echo_config(name: str, payload: dict) -> None:
    print(f"[degramix {name}] " + json.dumps(_jsonable(payload), sort_keys=True),
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
        config = config_from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    else:
        config = ModelConfig()
    updates = {}
    if getattr(args, "k", None) is not None:
        updates["k"] = args.k
    if getattr(args, "fve", None) is not None:
        updates["fve_threshold"] = args.fve
    if updates:
        from dataclasses import replace
        config = replace(config, **updates)
    return config


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
        "r_support": fit.r_support,
    }
    if fit.scores is not None:
        report["scores"] = {"unit_ids": list(fit.unit_ids), "values": fit.scores}
    if fit.fpca_models is not None:
        report["fpca"] = [
            {
                "r_grid": m.r_grid,
                "mean_curve": m.mean_curve,
                "eigenfunctions": m.eigenfunctions[: m.k],
                "eigenvalues": m.eigenvalues,
                "fve_trace": m.fve_trace,
                "k": m.k,
            }
            for m in fit.fpca_models
        ]
    return report


def _cmd_simulate(args) -> int:
    overrides = {}
    if args.spec:
        payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        for key in ("n_units", "n_obs", "sigma_eps2", "seed"):
            if key in payload:
                overrides[key] = payload[key]
        for key in ("zeta", "sigma_gamma", "score_variances", "times", "r_grid",
                    "mean_curve", "modes"):
            if key in payload:
                overrides[key] = np.asarray(payload[key], dtype=float)
        if "scalar_ranges" in payload:
            overrides["scalar_ranges"] = tuple(tuple(r) for r in payload["scalar_ranges"])
    if args.seed is not None:
        overrides["seed"] = args.seed
    spec = default_spec(**overrides)
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
    _echo_config("fpca", {"k": args.k, "fve": args.fve, "data": str(args.data)})
    out = _out_dir(args)
    report = []
    for s in range(ds.n_functional):
        curves = np.vstack([u.curves[s] for u in ds.units])
        model = fit_fpca(curves, ds.r_grid)
        k = args.k if args.k is not None else select_k_by_fve(model, args.fve or 0.95)
        model = with_k(model, min(k, model.eigenvalues.size))
        scores = project_scores(model, curves)
        report.append({
            "s": s + 1,
            "eigenvalues": model.eigenvalues,
            "fve_trace": model.fve_trace,
            "k": model.k,
            "scores": {"unit_ids": [u.unit_id for u in ds.units], "values": scores},
            "mean_curve": model.mean_curve,
            "eigenfunctions": model.eigenfunctions[: model.k],
            "r_grid": model.r_grid,
        })
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
        np.savetxt(out / "design_omega.csv", dm.omega, delimiter=",",
                   header=",".join(dm.layout.names()), comments="")
        rows = np.column_stack([np.repeat(np.array(dm.unit_ids, dtype=object), dm.counts), dm.lam])
        names = [f"gamma_l{level}" for level in dm.layout.levels]
        np.savetxt(out / "design_lambda.csv", rows, delimiter=",", comments="",
                   header=",".join(["unit_id", *names]), fmt=["%s"] + ["%.18e"] * len(names))
    return 0


def _load_fit(path) -> FitResult:
    from .design import ZetaLayout
    from .estimator import LatentPosterior, Parameters
    from .fpca import FpcaModel

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    config = config_from_dict(payload["config"])
    lay = payload["layout"]
    layout = ZetaLayout(
        levels=tuple(lay["levels"]),
        n_scalars=lay["n_scalars"],
        n_functional=lay["n_functional"],
        n_components=lay["n_components"],
        include_scalar=config.include_scalar,
        include_functional=config.include_functional,
        include_interaction=config.include_interaction,
    )
    mu = np.asarray(payload["latent_posterior"]["mu"], dtype=float)
    if mu.size == 0:
        mu = mu.reshape(len(payload["latent_posterior"]["unit_ids"]), 0)
    d = mu.shape[1]
    params = Parameters(
        np.asarray(payload["zeta"]["values"], dtype=float),
        payload["sigma_eps2"],
        np.asarray(payload["sigma_gamma"], dtype=float).reshape(d, d),
    )
    posterior = LatentPosterior(mu=mu, v=np.zeros((mu.shape[0], d, d)))
    fpca_models = None
    if "fpca" in payload:
        fpca_models = tuple(
            FpcaModel(
                r_grid=np.asarray(m["r_grid"], dtype=float),
                mean_curve=np.asarray(m["mean_curve"], dtype=float),
                eigenfunctions=np.asarray(m["eigenfunctions"], dtype=float),
                eigenvalues=np.asarray(m["eigenvalues"], dtype=float),
                fve_trace=np.asarray(m["fve_trace"], dtype=float),
                k=int(m["k"]),
            )
            for m in payload["fpca"]
        )
    scores = None
    if "scores" in payload:
        scores = np.asarray(payload["scores"]["values"], dtype=float)
    return FitResult(
        params=params,
        posterior=posterior,
        loglik_trace=np.asarray(payload["loglik_trace"], dtype=float),
        iterations=payload["iterations"],
        converged=payload["converged"],
        config=config,
        layout=layout,
        unit_ids=tuple(payload["latent_posterior"]["unit_ids"]),
        r_support=payload["r_support"],
        scores=scores,
        fpca_models=fpca_models,
    )


def _cmd_predict(args) -> int:
    fit = _load_fit(args.fit)
    ds = _load_data(args)
    _echo_config("predict", {"fit": str(args.fit), "use_latent": args.use_latent})
    ds = _prepare(ds, fit.config, args)
    out = _out_dir(args)
    with open(out / "predictions.csv", "w", newline="\n", encoding="utf-8") as fh:
        fh.write("unit_id,time,y,y_hat\n")
        for u in ds.units:
            use_latent = args.use_latent and fit.unit_index(u.unit_id) is not None
            pred = predict_unit(fit, u, use_latent=use_latent)
            for t, y, yh in zip(u.times, u.responses, pred):
                fh.write(f"{u.unit_id},{_fmt(t)},{_fmt(y)},{_fmt(yh)}\n")
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
    rows = effect_decomposition(fit, ds)
    with open(out / "effects.csv", "w", newline="\n", encoding="utf-8") as fh:
        fh.write("unit_id,level,marginal_effect,interaction_effect,latent_effect\n")
        for r in rows:
            fh.write(f"{r.unit_id},{r.level},{_fmt(r.marginal_effect)},"
                     f"{_fmt(r.interaction_effect)},{_fmt(r.latent_effect)}\n")
    return 0


def _cmd_compare(args) -> int:
    ds = _load_data(args)
    registry = table1_variants(k=args.k, fve_threshold=args.fve or 0.95)
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
        micro = np.array([u.scalars[col] for u in ds.units])
        from dataclasses import replace as _replace
        keep = [p for p in range(ds.n_scalars) if p != col]
        units = tuple(_replace(u, scalars=u.scalars[keep]) for u in ds.units)
        from .data import DegradationDataset
        ds = DegradationDataset(units, ds.r_grid)
    if any(registry[n].config.center_baseline for n in names):
        ds = center_baseline(ds)
    rows = compare_models(ds, [registry[n] for n in names], split_fraction=args.split,
                          micro_scalar=micro, max_iter=args.max_iter, tol=args.tol)
    out = _out_dir(args)
    with open(out / "comparison.csv", "w", newline="\n", encoding="utf-8") as fh:
        fh.write("model,r2,loglik,aic,bic,mse_train,mse_test\n")
        for row in rows:
            if row.error is not None:
                print(f"[degramix compare] {row.model} failed: {row.error}", file=sys.stderr)
                fh.write(f"{row.model},,,,,,\n")
                continue
            fh.write(f"{row.model},{_fmt(row.r2)},{_fmt(row.loglik)},{_fmt(row.aic)},"
                     f"{_fmt(row.bic)},{_fmt(row.mse_train)},{_fmt(row.mse_test)}\n")
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
        p.add_argument("--config")
        p.add_argument("--variant")
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


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
