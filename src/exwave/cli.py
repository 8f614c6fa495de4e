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
from dataclasses import replace
from pathlib import Path

from .exponents import BoundaryCondition, ExponentVector, classify_record, gamma_record
from .harness import (
    FitModel,
    fit_scaling,
    history_to_csv,
    record_to_dict,
    report,
    sweep,
    sweep_row,
    verify_cutoff_estimates,
    write_tables,
)
from .config import parse_floats, solver_config_from_ini, sweep_spec_from_ini
from .solver import run
from .testfn import DEFAULT_SUP_RATIO_GRID, CutoffProfile


def _emit(record: dict, as_json: bool):
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return
    for key, val in record.items():
        print(f"{key:>16s}: {val}")


def cmd_gamma(args) -> int:
    rec = gamma_record(ExponentVector(parse_floats(args.p)), args.dim)
    _emit(rec, args.json)
    return 0


def cmd_classify(args) -> int:
    rec = classify_record(
        ExponentVector(parse_floats(args.p)),
        args.dim,
        BoundaryCondition(args.alpha, args.beta),
    )
    _emit(rec, args.json)
    return 0


_BC_CHOICES = {
    "dirichlet": BoundaryCondition.dirichlet(),
    "neumann": BoundaryCondition.neumann(),
    "robin": BoundaryCondition.robin(1.0, 1.0),
}


def _bc_list(text: str) -> list[BoundaryCondition]:
    """The ``--bc`` names as boundary conditions; argparse reports a bad one."""
    try:
        return [_BC_CHOICES[name] for name in text.split(",")]
    except KeyError as exc:
        msg = f"unknown boundary condition {exc} (choose from {', '.join(_BC_CHOICES)})"
        raise argparse.ArgumentTypeError(msg) from None


def cmd_verify_lemma(args) -> int:
    exponents = ExponentVector(parse_floats(args.p)) if args.p is not None else None
    if args.lam is not None:
        lams = parse_floats(args.lam)
    else:
        lams = (2.0 if exponents is None else CutoffProfile.floor_for(exponents),)
    rep = verify_cutoff_estimates(
        R_list=parse_floats(args.R),
        lam_list=lams,
        d_list=[int(x) for x in args.dim.split(",")],
        bc_list=args.bc,
        grid=(args.grid, args.grid),
        exponents=exponents,
    )
    print(rep.table())
    for w in rep.warnings:
        print(f"warning: {w}")
    print("PASS" if rep.passed else "FAIL")
    for f in rep.failures:
        print(f"  {f}")
    return 0 if rep.passed else 1


# the INI (section, key) each config flag sets
_FLAG_KEYS = {
    "dim": ("system", "dim"),
    "alpha": ("bc", "alpha"),
    "beta": ("bc", "beta"),
    "eps": ("data", "epsilon"),
    "eps_list": ("sweep", "epsilons"),
}


def _ini_overrides(args) -> dict:
    """Each flag's INI key with the flag's value; None where not given."""
    return {key: getattr(args, flag, None) for flag, key in _FLAG_KEYS.items()}


def _refuse_file_out(out: str | None) -> None:
    """An ``--out`` whose nearest existing path (itself or an ancestor) is
    not a directory is refused before any step."""
    if not out:
        return
    existing = next(path for path in (Path(out), *Path(out).parents) if path.exists())
    if not existing.is_dir():
        name = out if existing == Path(out) else f"{out} lies under {existing}, which"
        raise NotADirectoryError(f"--out {name} exists and is not a directory")


def cmd_simulate(args) -> int:
    config = solver_config_from_ini(args.config, _ini_overrides(args))
    if args.dump_history and (not args.out or config.history_snapshots == 0):
        need = "[history] snapshots > 0 in the config" if args.out else "--out <dir>"
        raise ValueError(f"--dump-history needs {need}")
    if not args.dump_history:  # store no snapshots that nothing writes
        config = replace(config, history_snapshots=0)
    _refuse_file_out(args.out)
    rec = run(config)
    summary = record_to_dict(rec)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "run.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
        if args.dump_history:
            history_to_csv(rec, outdir / "history.csv")
    return 0


def cmd_sweep(args) -> int:
    spec = sweep_spec_from_ini(args.config, _ini_overrides(args))
    _refuse_file_out(args.out)
    result = sweep(spec)
    for rec in result.runs:
        row = sweep_row(record_to_dict(rec))
        print(
            f"eps={row['epsilon']:<10g} verdict={row['verdict']:<17s} "
            f"t_blow={row['t_blow']} horizon={row['horizon']:g}"
        )
    fit = result.fit
    if fit is not None:
        print(
            f"fit: T = {fit.amplitude:.4g} * {fit.model.shape}, "
            f"b = {fit.slope:.4g} ± {fit.slope_stderr:.2g} "
            f"(theory slope {fit.b_theory:g}, deviation {fit.deviation:.2%})"
        )
    if args.out:
        paths = report(result, args.out)
        print("wrote:", ", ".join(str(p) for p in paths))
    return 0


def cmd_fit(args) -> int:
    """Fit the rows with a t_blow where the law is defined, as a sweep does."""
    model = FitModel(args.model)
    with open(args.csv, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"epsilon", "t_blow"} <= set(reader.fieldnames or ()):
            raise ValueError(f"{args.csv} needs an epsilon and a t_blow column")
        pts = [
            (float(row["epsilon"]), float(row["t_blow"]))
            for row in reader
            if row.get("t_blow") and model.defined_at(float(row["epsilon"]))
        ]
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
        if bc:  # the INI loaders' [bc] default
            dirichlet = BoundaryCondition.dirichlet()
            sp.add_argument("--alpha", type=float, default=dirichlet.alpha)
            sp.add_argument("--beta", type=float, default=dirichlet.beta)

    sp = sub.add_parser("gamma", help="gamma vector and criticality excess")
    add_pd(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("classify", help="lifespan-bound branch")
    add_pd(sp, bc=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify-lemma", help="cutoff derivative-estimate batch")
    sp.add_argument("--R", default="4,8,16,32")
    sp.add_argument("--lam", default=None, help="comma-separated lambdas")
    sp.add_argument("--p", default=None, help="exponents fixing the lambda floor")
    sp.add_argument("--dim", default="2,3")
    sp.add_argument("--bc", type=_bc_list, default="dirichlet,neumann,robin")
    sp.add_argument("--grid", type=int, default=DEFAULT_SUP_RATIO_GRID[0])
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
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("fit", help="scaling-law fit of a sweep.csv")
    sp.add_argument("csv")
    sp.add_argument("--model", choices=[m.value for m in FitModel], default=FitModel.POWER.value)
    sp.add_argument("--b-theory", type=float, default=None)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("report", help="regenerate report files from records.json")
    sp.add_argument("dir")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Input a command refuses (a ValueError, or an OSError such as a missing
    file) prints ``<command>: <reason>`` to stderr and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
