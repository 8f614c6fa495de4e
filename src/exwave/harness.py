"""Experiment orchestration: epsilon sweeps, scaling fits, estimate batches,
reporting.

A sweep runs one simulation per epsilon, each on the base config's grid and
horizon with only epsilon changed, so dr, dt and T_end are shared by the whole
ladder, which ``solver.run_ladder`` steps in lockstep.  The
``[history] snapshots`` setting applies to ``simulate``: a sweep stores no
histories, so its records.json shows ``history_snapshots`` 0.  Measured
blow-up times are fitted against the predicted lifespan shapes

    T = A eps^(-b)                    (power law)
    T = A (eps^-1 log(eps^-1))^b      (power-log law, the d = 2 shape)

by least squares in log coordinates (``FitModel`` owns each law), and the
fitted slope is compared with the classifier's exponent.  ``sweep`` returns
that fit with its runs: the ``FORM_MODELS`` law of the classifier's form,
fitted to the runs that blew up clear of the horizon where the law is
defined, when at least 4 are left.  Critical-regime predictions
(exponential or double-exponential lifespans) are never fitted, nor drawn:
at desk scale only "blow-up observed at every tested epsilon" is meaningful
there.  ``FORM_MODELS`` lists the forms that are.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .exponents import BoundaryCondition, BoundForm, ExponentVector, LifespanBound, classify_regime
from .solver import BLOWUP_THRESHOLD, RunRecord, SolverConfig, Verdict, run_ladder
from .testfn import (
    DEFAULT_RHS_R_POWERS,
    DEFAULT_SUP_RATIO_GRID,
    ESTIMATE_LABELS,
    CutoffProfile,
    SupRatioRow,
    sup_ratio_rows,
)


@dataclass(frozen=True)
class SweepSpec:
    """Base configuration plus the epsilon schedule; every run is the base
    config with only the epsilon changed."""

    base: SolverConfig
    epsilons: tuple[float, ...]

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if not eps:
            raise ValueError("epsilon list must not be empty")
        if not all(map(math.isfinite, eps)):
            raise ValueError(f"epsilons must be finite, got {eps}")
        if any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")


@dataclass
class SweepResult:
    spec: SweepSpec
    runs: tuple[RunRecord, ...]
    theory_bound: LifespanBound
    fit: FitResult | None = None


def sweep(spec: SweepSpec) -> SweepResult:
    """One deterministic run per epsilon, and the fit they are judged by;
    per-run failures abort the sweep only for configuration errors, never
    for blow-up/NaN outcomes.

    No run stores a history: nothing in a sweep reads one, and snapshots
    never feed back into the step, so the blow-up times are those of the
    base config at each epsilon.  All runs step in one lockstep ladder
    (``solver.run_ladder``); a run's timing is its record's ``wall_s``, the
    time from the ladder's start to the step at which the run left it.  The
    fit is ``None`` when the form has no law or fewer than 4 points are left
    to fit."""
    base = replace(spec.base, history_snapshots=0)
    runs = run_ladder(base, spec.epsilons)
    theory = classify_regime(base.p, base.d, base.bc)
    result = SweepResult(spec=spec, runs=runs, theory_bound=theory)
    model = FORM_MODELS.get(theory.form)
    if model is not None:
        pts = [(e, T) for e, T in censor_points(result) if model.defined_at(e)]
        if len(pts) >= _MIN_FIT_POINTS:
            result.fit = fit_scaling(pts, model, b_theory=theory.exponent)
    return result


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


class FitModel(str, Enum):
    """A lifespan law T = A * shape, fitted as log T = b * abscissa + log A."""

    POWER = "power"
    POWER_LOG = "power-log"

    @property
    def shape(self) -> str:
        return "eps^(-b)" if self is FitModel.POWER else "(log(1/eps)/eps)^b"

    def defined_at(self, eps: float) -> bool:
        """Whether the law's abscissa exists at eps: POWER_LOG needs eps < 1.
        Only a finite eps >= 1 is left out, so a filter by it passes every eps
        that is not finite and positive on to ``fit_scaling``'s refusal."""
        return self is FitModel.POWER or not 1.0 <= eps < math.inf

    def abscissa(self, eps):
        """ln(1/eps) (POWER) or ln(ln(1/eps)/eps) (POWER_LOG), elementwise on
        an array of eps or on one float."""
        if self is FitModel.POWER:
            return np.log(1.0 / eps)
        return np.log(np.log(1.0 / eps) / eps)


# The law each theory form is fitted and drawn against.  The exponential and
# double-exponential forms are unidentifiable at desk scale, and the no-claim
# and open-problem forms carry no exponent: none of them has a law here.
FORM_MODELS = {
    BoundForm.POLYNOMIAL: FitModel.POWER,
    BoundForm.POLYNOMIAL_LOG: FitModel.POWER_LOG,
}
_MIN_FIT_POINTS = 4
# runs whose t_blow lies within this many steps of the horizon are censored
_GUARD_STEPS = 10.0


@dataclass(frozen=True)
class FitResult:
    model: FitModel
    amplitude: float
    slope: float
    slope_stderr: float  # standard error of the slope, from the lstsq covariance
    residual: float
    b_theory: float | None = None

    @property
    def deviation(self) -> float | None:
        if self.b_theory in (None, 0.0):
            return None
        return abs(self.slope - self.b_theory) / abs(self.b_theory)

    def to_dict(self) -> dict:
        """The fit as written by ``exwave fit`` and into manifest.json."""
        return {
            "model": self.model.value,
            "amplitude": self.amplitude,
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "residual": self.residual,
            "b_theory": self.b_theory,
            "deviation": self.deviation,
        }


def fit_scaling(
    points: Sequence[tuple[float, float]],
    model: FitModel = FitModel.POWER,
    b_theory: float | None = None,
) -> FitResult:
    """Least squares of log T against ``model.abscissa(eps)``; every eps must
    lie where the law is defined."""
    if len(points) < _MIN_FIT_POINTS:
        raise ValueError(f"need at least {_MIN_FIT_POINTS} blow-up points to fit")
    if b_theory is not None and not math.isfinite(b_theory):
        raise ValueError(f"b_theory must be finite, got {b_theory!r}")
    eps = np.array([q[0] for q in points], dtype=float)
    T = np.array([q[1] for q in points], dtype=float)
    if np.any(~np.isfinite(T)) or np.any(T <= 0):
        raise ValueError("all blow-up times must be finite and positive")
    if np.any(~np.isfinite(eps)) or np.any(eps <= 0):
        raise ValueError("every epsilon must be finite and positive")
    if not all(map(model.defined_at, eps)):
        raise ValueError(f"the {model.value} law is undefined at some eps")
    x = model.abscissa(eps)
    if np.ptp(x) < 1e-12:
        raise ValueError("degenerate abscissa spread")
    y = np.log(T)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    residual = float(np.linalg.norm(A @ coef - y))
    # slope entry of s^2 (A^T A)^-1 with s^2 = residual^2 / (n - 2); the
    # [0, 0] entry of (A^T A)^-1 is 1 / sum (x - mean x)^2
    s2 = residual**2 / (len(x) - 2)
    slope_stderr = math.sqrt(s2 / float(np.sum((x - x.mean()) ** 2)))
    return FitResult(
        model=model,
        amplitude=math.exp(intercept),
        slope=slope,
        slope_stderr=slope_stderr,
        residual=residual,
        b_theory=b_theory,
    )


def censor_points(result: SweepResult) -> list[tuple[float, float]]:
    """Blow-up points safe to fit: drop survived runs and runs whose t_blow
    sits within ``_GUARD_STEPS`` steps of the horizon (censoring suspicion)."""
    return [
        (rec.config.data.epsilon, rec.t_blow)
        for rec in result.runs
        if rec.verdict is Verdict.BLEW_UP
        and rec.t_blow < rec.config.T_end - _GUARD_STEPS * rec.config.dt
    ]


# ---------------------------------------------------------------------------
# derivative-estimate verification batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateBatchReport:
    rows: tuple[SupRatioRow, ...]
    failures: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def table(self) -> str:
        lines = ["lam    d  bc          bands(i,ii,iii,iv)"]
        for row in self.rows:
            bands = ", ".join(f"{b:.2f}" for b in row.bands())
            lines.append(f"{row.lam:<5g} {row.d}  {row.bc.kind.value:<10s} {bands}")
        return "\n".join(lines)


DEFAULT_BAND_LIMIT = 4.0


def verify_cutoff_estimates(
    R_list: Sequence[float],
    lam_list: Sequence[float],
    d_list: Sequence[int],
    bc_list: Sequence[BoundaryCondition],
    grid: tuple[int, int] = DEFAULT_SUP_RATIO_GRID,
    band_limit: float = DEFAULT_BAND_LIMIT,
    exponents: ExponentVector | None = None,
    rhs_r_powers: tuple[float, float, float, float] = DEFAULT_RHS_R_POWERS,
) -> EstimateBatchReport:
    """Sup-ratio matrix over the parameter grid.

    The report's rows are the batch's rows (``testfn.sup_ratio_rows``), one
    per (lam, d, bc) in that order, each over ``R_list``.  PASS means every
    estimate's ratios stay within ``band_limit`` across R (a
    uniform-boundedness proxy) and no support violation occurred.  When
    ``exponents`` is given, lambdas below the admissibility floor
    2/(min p - 1) are flagged as warnings.
    """
    if not (R_list and lam_list and d_list and bc_list):
        raise ValueError("all parameter lists must be nonempty")
    if not 1.0 <= band_limit < math.inf:
        raise ValueError(
            f"band limit must be finite and at least 1 (a band is max/min >= 1), "
            f"got {band_limit!r}"
        )
    warns: list[str] = []
    if exponents is not None:
        warns = [
            f"lambda = {lam:g} is below the admissibility floor "
            f"{CutoffProfile.floor_for(exponents):g} for p = {exponents.p}"
            for lam in lam_list
            if not CutoffProfile(lam).admissible_for(exponents)
        ]
    rows = sup_ratio_rows(R_list, lam_list, d_list, bc_list, grid, rhs_r_powers)
    failures: list[str] = []
    for row in rows:
        where = f"lam={row.lam:g} d={row.d} bc={row.bc.kind.value}"
        for res in row.by_R:
            failures.extend(f"{where} R={res.R:g}: {v}" for v in res.violations)
        for label, b in zip(ESTIMATE_LABELS, row.bands()):
            if not b <= band_limit:  # a NaN band fails too
                failures.append(
                    f"{where}: estimate ({label}) band {b:.2f} exceeds {band_limit:g}"
                )
    return EstimateBatchReport(
        rows=tuple(rows),
        failures=tuple(failures),
        warnings=tuple(warns),
    )


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _config_dict(config: SolverConfig) -> dict:
    return {
        "p": list(config.p.p),
        "d": config.d,
        "alpha": config.bc.alpha,
        "beta": config.bc.beta,
        "r_max": config.grid.r_max,
        "n": config.grid.n,
        "T_end": config.T_end,
        "cfl": config.cfl,
        "data": {
            "center": config.data.center,
            "width": config.data.width,
            "epsilon": config.data.epsilon,
        },
        "blowup_threshold": BLOWUP_THRESHOLD,
        "history_snapshots": config.history_snapshots,
    }


def config_hash(config: SolverConfig) -> str:
    blob = json.dumps(_config_dict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def record_to_dict(rec: RunRecord) -> dict:
    return {
        "config": _config_dict(rec.config),
        "verdict": rec.verdict.value,
        "t_blow": rec.t_blow,
        "t_final": rec.t_final,
        "threshold_crossings": {f"{k:g}": v for k, v in rec.threshold_crossings.items()},
        "threshold_sensitivity": rec.threshold_sensitivity,
        "nan_encountered": rec.nan_encountered,
        "data_positivity": rec.data_positivity,
    }


def sweep_row(rec: dict) -> dict:
    """One sweep.csv row from a ``record_to_dict`` record."""
    return {
        "epsilon": rec["config"]["data"]["epsilon"],
        "t_blow": rec["t_blow"] if rec["t_blow"] is not None else "",
        "horizon": rec["config"]["T_end"],
        "verdict": rec["verdict"],
    }


def write_tables(records: Sequence[dict], outdir: str | Path) -> list[Path]:
    """Write sweep.csv and sweep_loglog.dat from ``record_to_dict`` records.

    Both files are deterministic functions of the records.  The theory line
    in the plot data follows the ``FORM_MODELS`` law of the regime
    classifier's form for the records' (p, d, alpha, beta), recomputed here,
    with the classifier's exponent, through the first blow-up point where
    the law is defined.  It is nan for the forms without a law and at the
    points where the abscissa is undefined.  Records that lack a field the
    tables read, or whose point the log-log table cannot draw (an epsilon,
    or a blow-up's t_blow, that is not finite and positive), are refused
    with a ValueError before any file is opened.
    """
    try:
        for index, rec in enumerate(records):
            drawn = {"epsilon": rec["config"]["data"]["epsilon"]}
            if rec["verdict"] == Verdict.BLEW_UP.value:
                drawn["t_blow"] = rec["t_blow"]
            for name, value in drawn.items():
                if value is None or not 0.0 < value < math.inf:
                    raise ValueError(
                        f"records[{index}]: {name} must be finite and positive, got {value!r}"
                    )
        rows = [sweep_row(rec) for rec in records]
        lines = _loglog_lines(records)
    except KeyError as exc:
        raise ValueError(f"a record has no {exc} field") from None
    except TypeError as exc:
        raise ValueError(f"not a list of run records ({exc})") from None
    outdir = Path(outdir)
    csv_path = outdir / "sweep.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epsilon", "t_blow", "horizon", "verdict"]
        )
        writer.writeheader()
        writer.writerows(rows)
    plot_path = outdir / "sweep_loglog.dat"
    plot_path.write_text("\n".join(lines) + "\n")
    return [csv_path, plot_path]


def _loglog_lines(records: Sequence[dict]) -> list[str]:
    """The lines of sweep_loglog.dat (see ``write_tables``)."""
    lines = ["# log10(1/eps)  log10(t_blow)  log10(theory_line)"]
    pts = [
        (rec["config"]["data"]["epsilon"], rec["t_blow"])
        for rec in records
        if rec["verdict"] == Verdict.BLEW_UP.value
    ]
    if pts:
        cfg = records[0]["config"]
        theory = classify_regime(
            ExponentVector(tuple(cfg["p"])),
            cfg["d"],
            BoundaryCondition(cfg["alpha"], cfg["beta"]),
        )
        model = FORM_MODELS.get(theory.form)
        anchor = next((pt for pt in pts if model is not None and model.defined_at(pt[0])), None)
        for e, T in pts:
            x = math.log10(1.0 / e)
            y = math.log10(T)
            ytheory = math.nan
            if anchor is not None and model.defined_at(e):
                shift = (model.abscissa(e) - model.abscissa(anchor[0])) / math.log(10.0)
                ytheory = math.log10(anchor[1]) + theory.exponent * shift
            lines.append(f"{x:.10g} {y:.10g} {ytheory:.10g}")
    return lines


def report(result: SweepResult, outdir: str | Path) -> list[Path]:
    """Write sweep.csv, records.json, sweep_loglog.dat and manifest.json
    (with ``result.fit``).

    The tables come from the records (``write_tables``), so ``exwave report``
    regenerates them byte for byte from records.json; wall-clock metadata is
    confined to the manifest.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = [record_to_dict(rec) for rec in result.runs]
    records_path = outdir / "records.json"
    records_path.write_text(json.dumps(records, indent=2, sort_keys=True))
    csv_path, plot_path = write_tables(records, outdir)

    base = result.spec.base
    theory = result.theory_bound
    manifest = {
        "config_hash": config_hash(base),
        "epsilons": list(result.spec.epsilons),
        "theory_bound": {"exponent": theory.exponent, "form": theory.form.value},
        "fit": None if result.fit is None else result.fit.to_dict(),
        "versions": {
            "exwave": __version__,
            "numpy": np.__version__,
        },
        "timings_s": [rec.wall_s for rec in result.runs],
        "generated_unix": time.time(),
    }
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return [csv_path, records_path, plot_path, manifest_path]


def history_to_csv(rec: RunRecord, path: str | Path) -> Path:
    """Long-format state dump: one row per (t, r) with u_1..u_k."""
    if rec.history is None:
        raise ValueError("run was configured without history")
    hist = rec.history
    m, k, nodes = hist.u.shape
    u = hist.u.swapaxes(1, 2).reshape(-1, k)  # one row per (t, r)
    table = np.column_stack((np.repeat(hist.times, nodes), np.tile(hist.r, m), u))
    header = ",".join(["t", "r"] + [f"u_{i + 1}" for i in range(k)])
    path = Path(path)
    with path.open("w", newline="") as fh:  # csv's line end, \r\n, on every platform
        np.savetxt(
            fh, table, fmt="%.10g", delimiter=",", newline="\r\n", header=header, comments=""
        )
    return path
