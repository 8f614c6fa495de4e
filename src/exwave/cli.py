"""Command-line interface.

Subcommands:
    gamma         gamma vector, gamma_max and criticality excess for given p, d
    classify      lifespan-bound branch for (p, d, alpha, beta)
    verify-lemma  sup-ratio batch for the cutoff derivative estimates
    simulate      one run from a config file
    sweep         epsilon sweep from a config file, with report files
    fit           scaling-law fit of a sweep.csv
    report        regenerate sweep.csv and sweep_loglog.dat from records.json
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .exponents import (
    BoundaryCondition,
    ExponentVector,
    classify_record,
    gamma_record,
)
from .harness import (
    FitModel,
    censor_points,
    fit_scaling,
    history_to_csv,
    record_to_dict,
    report,
    sweep,
    sweep_row,
    verify_cutoff_estimates,
    write_tables,
)
from .config import solver_config_from_ini, sweep_spec_from_ini
from .solver import run
from .testfn import CutoffProfile


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _bc_from_args(args) -> BoundaryCondition:
    return BoundaryCondition(args.alpha, args.beta)


def _emit(record: dict, as_json: bool):
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return
    for key, val in record.items():
        print(f"{key:>16s}: {val}")


def cmd_gamma(args) -> int:
    rec = gamma_record(ExponentVector(_parse_floats(args.p)), args.dim)
    _emit(rec, args.json)
    return 0


def cmd_classify(args) -> int:
    rec = classify_record(
        ExponentVector(_parse_floats(args.p)),
        args.dim,
        _bc_from_args(args),
        tol_crit=args.tol,
    )
    _emit(rec, args.json)
    return 0


_BC_CHOICES = {
    "dirichlet": BoundaryCondition.dirichlet(),
    "neumann": BoundaryCondition.neumann(),
    "robin": BoundaryCondition.robin(1.0, 1.0),
}


def cmd_verify_lemma(args) -> int:
    bcs = [_BC_CHOICES[name] for name in args.bc.split(",")]
    exponents = ExponentVector(_parse_floats(args.p)) if args.p else None
    lams = _parse_floats(args.lam) if args.lam else None
    if lams is None:
        if exponents is None:
            lams = (2.0,)
        else:
            lams = (CutoffProfile.floor_for(exponents),)
    rep = verify_cutoff_estimates(
        R_list=_parse_floats(args.R),
        lam_list=lams,
        d_list=[int(x) for x in args.dim.split(",")],
        bc_list=bcs,
        grid=(args.grid, args.grid),
        band_limit=args.band,
        exponents=exponents,
    )
    print(rep.table())
    for w in rep.warnings:
        print(f"warning: {w}")
    print("PASS" if rep.passed else "FAIL")
    for f in rep.failures:
        print(f"  {f}")
    return 0 if rep.passed else 1


def cmd_simulate(args) -> int:
    overrides = {
        "dim": args.dim,
        "alpha": args.alpha,
        "beta": args.beta,
        "epsilon": args.eps,
    }
    config = solver_config_from_ini(args.config, overrides)
    rec = run(config)
    summary = record_to_dict(rec)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "run.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
        if args.dump_history and rec.history is not None:
            history_to_csv(rec, outdir / "history.csv")
    return 0


def cmd_sweep(args) -> int:
    overrides = {
        "dim": args.dim,
        "alpha": args.alpha,
        "beta": args.beta,
        "threads": args.threads,
        "eps_list": _parse_floats(args.eps_list) if args.eps_list else None,
    }
    spec = sweep_spec_from_ini(args.config, overrides)
    result = sweep(spec)
    fit = None
    pts = censor_points(result)
    theory = result.theory_bound or {}
    # exponential/double-exponential lifespans are unidentifiable at desk
    # scale; only the polynomial shapes are ever fitted
    if len(pts) >= 4 and theory.get("exponent"):
        if theory.get("form") == "polynomial":
            fit = fit_scaling(pts, FitModel.POWER, b_theory=theory["exponent"])
        elif theory.get("form") == "polynomial-log":
            fit = fit_scaling(pts, FitModel.POWER_LOG, b_theory=theory["exponent"])
    for rec in result.runs:
        row = sweep_row(record_to_dict(rec))
        print(
            f"eps={row['epsilon']:<10g} verdict={row['verdict']:<17s} "
            f"t_blow={row['t_blow']} horizon={row['horizon']:g}"
        )
    if fit is not None:
        shape = "eps^(-b)" if fit.model is FitModel.POWER else "(log(1/eps)/eps)^b"
        print(
            f"fit: T = {fit.amplitude:.4g} * {shape}, "
            f"b = {fit.slope:.4g} ± {fit.slope_stderr:.2g} "
            f"(theory slope {fit.b_theory:g}, deviation {fit.deviation:.2%})"
        )
    if args.out:
        paths = report(result, args.out, fit=fit)
        print("wrote:", ", ".join(str(p) for p in paths))
    return 0


def cmd_fit(args) -> int:
    pts = []
    with open(args.csv, newline="") as fh:
        for row in csv.DictReader(fh):
            if row.get("t_blow"):
                pts.append((float(row["epsilon"]), float(row["t_blow"])))
    model = FitModel(args.model)
    fit = fit_scaling(pts, model, b_theory=args.b_theory)
    print(json.dumps(fit.to_dict(), indent=2))
    return 0


def cmd_report(args) -> int:
    records = json.loads((Path(args.dir) / "records.json").read_text())
    paths = write_tables(records, args.dir)
    print("wrote:", ", ".join(str(p) for p in paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exwave",
        description="Blow-up and lifespan laboratory for damped wave systems "
        "outside the unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pd(sp, bc=False):
        sp.add_argument("--p", required=True, help="comma-separated exponents, e.g. 1.4,1.4")
        sp.add_argument("--dim", type=int, required=True)
        if bc:
            sp.add_argument("--alpha", type=float, default=0.0)
            sp.add_argument("--beta", type=float, default=1.0)

    sp = sub.add_parser("gamma", help="gamma vector and criticality excess")
    add_pd(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("classify", help="lifespan-bound branch")
    add_pd(sp, bc=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify-lemma", help="cutoff derivative-estimate batch")
    sp.add_argument("--R", default="4,8,16,32")
    sp.add_argument("--lam", default=None, help="comma-separated lambdas")
    sp.add_argument("--p", default=None, help="exponents fixing the lambda floor")
    sp.add_argument("--dim", default="2,3")
    sp.add_argument("--bc", default="dirichlet,neumann,robin")
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--band", type=float, default=4.0)
    sp.set_defaults(func=cmd_verify_lemma)

    def add_overrides(sp):
        sp.add_argument("--dim", type=int, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("simulate", help="single run from a config file")
    sp.add_argument("config")
    add_overrides(sp)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--dump-history", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="epsilon sweep from a config file")
    sp.add_argument("config")
    add_overrides(sp)
    sp.add_argument("--eps-list", default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("fit", help="scaling-law fit of a sweep.csv")
    sp.add_argument("csv")
    sp.add_argument("--model", choices=[m.value for m in FitModel], default="power")
    sp.add_argument("--b-theory", type=float, default=None)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("report", help="regenerate report files from records.json")
    sp.add_argument("dir")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
