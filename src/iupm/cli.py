"""Command-line front end: ``iupm fit``, ``iupm lrt``, ``iupm simulate``.

Exit codes: 0 success (including boundary outcomes, which are flagged in the
report), 2 unusable input (parse or validation failure, bad configuration),
3 fit did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .assay import (
    AssayDataError,
    ErrorRates,
    MultiDilutionAssay,
    parse_summary_json,
    parse_wells_csv,
    restrict_to_detected,
    summarize_well_assay,
    validate,
)
from .bias import bias_correct
from .imperfect import ImperfectFitError, ImperfectModel, fit_imperfect
from .inference import FitResult, SingularInformationError, fit_mle
from .negbin import IdentifiabilityError, fit_negbin, lrt_from_loglik
from .simulate import metrics_csv, replicates_csv, run_study, scenario_from_json

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_CONVERGED = 3

_THREADS_ENV = "IUPM_THREADS"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _detect_format(path: str, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    if path.endswith(".json"):
        return "summary-json"
    if path.endswith(".csv"):
        return "wells-csv"
    raise AssayDataError(
        "cannot infer the input format; pass --format summary-json or --format wells-csv"
    )


def _sanitize(value):
    """JSON-safe values: non-finite floats become strings."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _fit_payload(fit: FitResult) -> dict:
    return {
        "iupm": fit.iupm,
        "se": fit.se_iupm,
        "ci": [fit.ci[0], fit.ci[1]],
        "alpha": fit.alpha,
        "tau": [float(t) for t in np.atleast_1d(fit.tau_hat)],
        "log_lik": fit.log_lik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "extreme": fit.extreme.value,
        "active_lower": list(fit.active_lower),
    }


def _sig6(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = ((str(i), v) for i, v in enumerate(obj))
    else:
        rows.append((prefix.rstrip("."), obj))
        return
    for key, val in items:
        _flatten(f"{prefix}{key}.", val, rows)


def _emit(report: dict, fmt: str, output: str | None):
    if fmt == "json":
        text = json.dumps(_sanitize(report), indent=2) + "\n"
    else:
        rows: list = []
        _flatten("", _sanitize(report), rows)
        if fmt == "csv":
            text = "field,value\n" + "\n".join(f"{k},{_sig6(v)}" for k, v in rows) + "\n"
        else:  # table
            width = max(len(k) for k, _ in rows)
            text = "\n".join(f"{k:<{width}}  {_sig6(v)}" for k, v in rows) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_perfect_assay(args) -> MultiDilutionAssay:
    text = _read_input(args.input)
    fmt = _detect_format(args.input, args.format)
    if fmt == "summary-json":
        assay = parse_summary_json(text)
    else:
        wells = parse_wells_csv(text)
        levels = [summarize_well_assay(wa) for wa in wells]
        assay = restrict_to_detected(levels)
        report = validate(assay)
        if not report.ok:
            raise AssayDataError(str(report))
    return assay


def _cmd_fit(args) -> int:
    if args.imperfect:
        rates = {
            "sens_qvoa": args.sens_qvoa,
            "spec_qvoa": args.spec_qvoa,
            "sens_udsa": args.sens_udsa,
            "spec_udsa": args.spec_udsa,
        }
        missing = [k for k, v in rates.items() if v is None]
        if missing:
            raise AssayDataError(
                "--imperfect needs all four error rates; missing "
                + ", ".join("--" + k.replace("_", "-") for k in missing)
            )
        fmt = _detect_format(args.input, args.format)
        if fmt != "wells-csv":
            raise AssayDataError("--imperfect needs per-well input (wells-csv)")
        assays = parse_wells_csv(_read_input(args.input))
        model = ImperfectModel(rates=ErrorRates(**rates), assays=tuple(assays))
        fit = fit_imperfect(model, alpha=args.alpha)
        report = {"command": "fit", "model": "imperfect", "n": model.n, "estimate": _fit_payload(fit)}
        _emit(report, args.output_format, args.output)
        return EXIT_OK if fit.converged else EXIT_NOT_CONVERGED

    assay = _load_perfect_assay(args)
    if args.no_udsa:
        assay = assay.strip_udsa()
    if args.negbin:
        nb = fit_negbin(assay)
        report = {
            "command": "fit",
            "model": "negbin",
            "n": assay.n,
            "estimate": {
                "iupm": nb.iupm,
                "gamma": nb.gamma_hat,
                "tau": [float(t) for t in nb.tau_hat],
                "log_lik": nb.log_lik,
                "converged": nb.converged,
            },
        }
        _emit(report, args.output_format, args.output)
        return EXIT_OK if nb.converged else EXIT_NOT_CONVERGED
    fit = fit_mle(assay, alpha=args.alpha)
    report = {"command": "fit", "model": "poisson", "n": assay.n, "estimate": _fit_payload(fit)}
    ok = fit.converged
    if args.bias_correct:
        bc = bias_correct(fit, assay)
        payload = _fit_payload(bc)
        payload["bias"] = [float(b) for b in bc.bias] if bc.bias is not None else None
        payload["clamped"] = bc.clamped
        report["bias_corrected"] = payload
        ok = ok and bc.converged
    _emit(report, args.output_format, args.output)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def _cmd_lrt(args) -> int:
    assay = _load_perfect_assay(args)
    pois = fit_mle(assay, alpha=args.alpha)
    nb = fit_negbin(assay, pois=pois)
    res = lrt_from_loglik(pois.log_lik, nb.log_lik)
    report = {
        "command": "lrt",
        "statistic": res.statistic,
        "p_value": res.p_value,
        "poisson": {"iupm": pois.iupm, "log_lik": pois.log_lik},
        "negbin": {"iupm": nb.iupm, "gamma": nb.gamma_hat, "log_lik": nb.log_lik},
    }
    _emit(report, args.output_format, args.output)
    return EXIT_OK if (pois.converged and nb.converged) else EXIT_NOT_CONVERGED


def _cmd_simulate(args) -> int:
    scenario, estimators, comparator = scenario_from_json(_read_input(args.input))
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=args.seed)
    out = run_study(
        scenario,
        estimators=estimators,
        comparator=comparator,
        threads=args.threads,
        keep_replicates=args.estimates is not None,
    )
    if args.estimates is not None:
        metrics, reps = out
        Path(args.estimates).write_text(replicates_csv(reps), encoding="utf-8")
    else:
        metrics = out
    name = "scenario" if args.input == "-" else Path(args.input).stem
    text = metrics_csv(metrics, name, scenario.truth)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iupm",
        description="Estimate infectious units per million from limiting dilution assays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, formats=("json", "table", "csv")):
        p.add_argument("--input", "-i", required=True, help="input path, or - for stdin")
        p.add_argument("--format", choices=["auto", "summary-json", "wells-csv"], default="auto")
        p.add_argument("--output", "-o", default=None, help="write the report here instead of stdout")
        p.add_argument("--output-format", choices=list(formats), default=formats[0])
        p.add_argument("--alpha", type=float, default=0.05)

    fit = sub.add_parser("fit", help="maximum-likelihood IUPM fit")
    add_io(fit)
    fit.add_argument("--no-udsa", action="store_true", help="ignore sequencing data")
    fit.add_argument("--bias-correct", action="store_true", help="also report the bias-corrected fit")
    kind = fit.add_mutually_exclusive_group()
    kind.add_argument("--negbin", action="store_true", help="overdispersed fit (needs >= 2 dilution levels)")
    kind.add_argument("--imperfect", action="store_true", help="imperfect-assay fit on per-well data")
    for rate in ("sens-qvoa", "spec-qvoa", "sens-udsa", "spec-udsa"):
        fit.add_argument(f"--{rate}", type=float, default=None)

    lrt = sub.add_parser("lrt", help="likelihood ratio test for overdispersion")
    add_io(lrt)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario file")
    sim.add_argument("--input", "-i", required=True, help="scenario JSON path, or - for stdin")
    sim.add_argument("--output", "-o", default=None, help="metrics CSV path (default stdout)")
    sim.add_argument("--estimates", default=None, help="also write per-replicate estimates CSV here")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get(_THREADS_ENV, "1")),
        help=f"worker threads (default ${_THREADS_ENV} or 1); results do not depend on this",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    alpha = getattr(args, "alpha", 0.05)
    if not 0.0 < alpha < 1.0:
        print(f"error: --alpha must lie in (0, 1), got {alpha}", file=sys.stderr)
        return EXIT_BAD_INPUT
    handlers = {"fit": _cmd_fit, "lrt": _cmd_lrt, "simulate": _cmd_simulate}
    try:
        return handlers[args.command](args)
    except (AssayDataError, IdentifiabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ImperfectFitError, SingularInformationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
