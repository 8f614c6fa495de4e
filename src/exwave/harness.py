"""Experiment orchestration: epsilon sweeps, scaling fits, estimate batches,
reporting.

A sweep runs one simulation per epsilon (independently, optionally in a
process pool), with horizons either fixed or derived from the theoretical
polynomial bound via a pilot run.  Measured blow-up times are fitted against
the predicted lifespan shapes

    T = A eps^(-b)                    (power law)
    T = A (eps^-1 log(eps^-1))^b      (power-log law, the d = 2 shape)

by least squares in log coordinates, and the fitted slope is compared with
the exponent recomputed from the regime classifier at report time.
Critical-regime predictions (exponential or double-exponential lifespans) are
never fitted: at desk scale only "blow-up observed at every tested epsilon"
is meaningful there.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .exponents import (
    BoundaryCondition,
    BoundForm,
    CriticalUnequalTwoDError,
    ExponentVector,
    classify_regime,
)
from .solver import RadialGrid, RunRecord, SolverConfig, Verdict, run
from .testfn import (
    DEFAULT_RHS_R_POWERS,
    CutoffProfile,
    SupRatioSweep,
    _sup_ratio_batch,
)


class HorizonMode(str, Enum):
    FIXED = "fixed"
    BOUND_AWARE = "bound-aware"


@dataclass(frozen=True)
class HorizonRule:
    """T_end(eps) policy.

    FIXED uses T_fixed everywhere.  BOUND_AWARE runs a pilot at the largest
    epsilon (horizon T_fixed) and then sets
    T_end(eps) = factor * (eps/eps_ref)^(-b_theory) * T_ref; regimes without a
    polynomial prediction fall back to FIXED.
    """

    mode: HorizonMode = HorizonMode.FIXED
    T_fixed: float = 100.0
    factor: float = 4.0

    def __post_init__(self):
        if self.T_fixed <= 0 or self.factor <= 0:
            raise ValueError("horizon parameters must be positive")


@dataclass(frozen=True)
class SweepSpec:
    """Base configuration plus the epsilon schedule."""

    base: SolverConfig
    epsilons: tuple[float, ...]
    horizon: HorizonRule = HorizonRule()
    workers: int = 1

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if not eps:
            raise ValueError("epsilon list must not be empty")
        if any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class SweepResult:
    spec: SweepSpec
    runs: tuple[RunRecord, ...]
    theory_bound: dict | None
    timings: tuple[float, ...]


def _config_for(spec: SweepSpec, epsilon: float, T_end: float) -> SolverConfig:
    """The base config at this epsilon and horizon.  The base grid is kept,
    its r_max shifted by the change of horizon, so the margin (or explicit
    r_max) the base was built with holds at every horizon."""
    base = spec.base
    grid = base.grid
    if T_end != base.T_end:
        grid = RadialGrid(r_max=grid.r_max + (T_end - base.T_end), n=grid.n)
    return replace(base, data=replace(base.data, epsilon=epsilon), grid=grid, T_end=T_end)


def _theory_bound(p: ExponentVector, d: int, bc: BoundaryCondition) -> dict:
    try:
        bound = classify_regime(p, d, bc)
    except CriticalUnequalTwoDError:
        return {"form": "open-problem", "exponent": None}
    return {"form": bound.form.value, "exponent": bound.exponent}


def sweep(spec: SweepSpec) -> SweepResult:
    """One deterministic run per epsilon; per-run failures abort the sweep
    only for configuration errors, never for blow-up/NaN outcomes."""
    theory = _theory_bound(spec.base.p, spec.base.d, spec.base.bc)
    horizons: list[float]
    records: dict[int, RunRecord] = {}
    eps = spec.epsilons
    rule = spec.horizon
    timings = [0.0] * len(eps)

    if (
        rule.mode is HorizonMode.BOUND_AWARE
        and theory is not None
        and theory["form"] == BoundForm.POLYNOMIAL.value
        and theory["exponent"] is not None
    ):
        pilot_cfg = _config_for(spec, eps[0], rule.T_fixed)
        t0 = time.perf_counter()
        pilot = run(pilot_cfg)
        pilot_time = time.perf_counter() - t0
        if pilot.verdict is Verdict.BLEW_UP and pilot.t_blow is not None:
            b = theory["exponent"]
            horizons = [
                min(rule.factor * (e / eps[0]) ** (-b) * pilot.t_blow, 64 * rule.T_fixed)
                for e in eps
            ]
            # the largest-epsilon run IS the pilot
            records[0] = pilot
            timings[0] = pilot_time
            horizons[0] = pilot_cfg.T_end
        else:
            warnings.warn("pilot run did not blow up; falling back to fixed horizons")
            horizons = [rule.T_fixed] * len(eps)
    else:
        horizons = [rule.T_fixed] * len(eps)

    configs = [_config_for(spec, e, h) for e, h in zip(eps, horizons)]
    pending = [i for i in range(len(eps)) if i not in records]
    if spec.workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            t0 = time.perf_counter()
            for i, rec in zip(pending, pool.map(run, [configs[i] for i in pending])):
                records[i] = rec
            wall = time.perf_counter() - t0
            for i in pending:
                timings[i] = wall / len(pending)
    else:
        for i in pending:
            t0 = time.perf_counter()
            records[i] = run(configs[i])
            timings[i] = time.perf_counter() - t0
    ordered = tuple(records[i] for i in range(len(eps)))
    return SweepResult(spec=spec, runs=ordered, theory_bound=theory, timings=tuple(timings))


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


class FitModel(str, Enum):
    POWER = "power"          # T = A eps^-b
    POWER_LOG = "power-log"  # T = A (eps^-1 log eps^-1)^b


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
    """Least squares of log T against the model abscissa.

    POWER uses x = log(1/eps); POWER_LOG uses x = log(eps^-1 log eps^-1)
    (requires eps < 1 so the abscissa is defined).
    """
    if len(points) < 4:
        raise ValueError("need at least 4 blow-up points to fit")
    eps = np.array([q[0] for q in points], dtype=float)
    T = np.array([q[1] for q in points], dtype=float)
    if np.any(~np.isfinite(T)) or np.any(T <= 0):
        raise ValueError("all blow-up times must be finite and positive")
    if model is FitModel.POWER:
        x = np.log(1.0 / eps)
    else:
        if np.any(eps >= 1.0):
            raise ValueError("power-log abscissa needs eps < 1")
        x = np.log(np.log(1.0 / eps) / eps)
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


def censor_points(result: SweepResult, guard_steps: float = 10.0) -> list[tuple[float, float]]:
    """Blow-up points safe to fit: drop survived runs and runs whose t_blow
    sits within guard_steps * dt of the horizon (censoring suspicion)."""
    pts = []
    for rec in result.runs:
        if rec.verdict is not Verdict.BLEW_UP or rec.t_blow is None:
            continue
        if rec.t_blow >= rec.config.T_end - guard_steps * rec.config.dt:
            continue
        pts.append((rec.config.data.epsilon, rec.t_blow))
    return pts


# ---------------------------------------------------------------------------
# derivative-estimate verification batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateBatchRow:
    lam: float
    d: int
    bc: BoundaryCondition
    by_R: tuple[SupRatioSweep, ...]

    def bands(self) -> tuple[float, ...]:
        mat = np.array([res.ratios for res in self.by_R])
        lo = mat.min(axis=0)
        hi = mat.max(axis=0)
        return tuple(float(h / l) if l > 0 else math.inf for h, l in zip(hi, lo))


@dataclass(frozen=True)
class EstimateBatchReport:
    rows: tuple[EstimateBatchRow, ...]
    band_limit: float
    passed: bool
    failures: tuple[str, ...]
    warnings: tuple[str, ...]

    def table(self) -> str:
        lines = ["lam    d  bc          bands(i,ii,iii,iv)"]
        for row in self.rows:
            bands = ", ".join(f"{b:.2f}" for b in row.bands())
            lines.append(f"{row.lam:<5g} {row.d}  {row.bc.kind.value:<10s} {bands}")
        return "\n".join(lines)


def verify_cutoff_estimates(
    R_list: Sequence[float],
    lam_list: Sequence[float],
    d_list: Sequence[int],
    bc_list: Sequence[BoundaryCondition],
    grid: tuple[int, int] = (512, 512),
    band_limit: float = 4.0,
    exponents: ExponentVector | None = None,
    rhs_r_powers: tuple[float, float, float, float] = DEFAULT_RHS_R_POWERS,
) -> EstimateBatchReport:
    """Sup-ratio matrix over the parameter grid.

    PASS means every estimate's ratios stay within ``band_limit`` across R (a
    uniform-boundedness proxy) and no support violation occurred.  When
    ``exponents`` is given, lambdas below the admissibility floor
    2/(min p - 1) are flagged as warnings.
    """
    if not (R_list and lam_list and d_list and bc_list):
        raise ValueError("all parameter lists must be nonempty")
    sweeps = _sup_ratio_batch(R_list, lam_list, d_list, bc_list, grid, rhs_r_powers)
    rows = []
    failures: list[str] = []
    warns: list[str] = []
    for lam, by_lam in zip(lam_list, sweeps):
        if exponents is not None and lam < CutoffProfile.floor_for(exponents) - 1e-12:
            warns.append(
                f"lambda = {lam:g} is below the admissibility floor "
                f"{CutoffProfile.floor_for(exponents):g} for p = {exponents.p}"
            )
        for d, by_d in zip(d_list, by_lam):
            for bc, by_R in zip(bc_list, by_d):
                row = EstimateBatchRow(lam=lam, d=d, bc=bc, by_R=by_R)
                rows.append(row)
                for res in by_R:
                    for v in res.violations:
                        failures.append(
                            f"lam={lam:g} d={d} bc={bc.kind.value} R={res.R:g}: {v}"
                        )
                for i, b in enumerate(row.bands()):
                    if b > band_limit:
                        failures.append(
                            f"lam={lam:g} d={d} bc={bc.kind.value}: estimate "
                            f"({'i' * (i + 1)}) band {b:.2f} exceeds {band_limit:g}"
                        )
    return EstimateBatchReport(
        rows=tuple(rows),
        band_limit=band_limit,
        passed=not failures,
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
        "blowup_threshold": config.blowup_threshold,
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
    in the plot data has the slope of the regime classifier's exponent for
    the records' (p, d, alpha, beta), recomputed here, and passes through the
    first blow-up point.
    """
    outdir = Path(outdir)
    csv_path = outdir / "sweep.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epsilon", "t_blow", "horizon", "verdict"]
        )
        writer.writeheader()
        for rec in records:
            writer.writerow(sweep_row(rec))

    plot_path = outdir / "sweep_loglog.dat"
    lines = ["# log10(1/eps)  log10(t_blow)  log10(theory_line)"]
    pts = [
        (rec["config"]["data"]["epsilon"], rec["t_blow"])
        for rec in records
        if rec["verdict"] == Verdict.BLEW_UP.value and rec["t_blow"] is not None
    ]
    if pts:
        cfg = records[0]["config"]
        b = _theory_bound(
            ExponentVector(tuple(cfg["p"])),
            cfg["d"],
            BoundaryCondition(cfg["alpha"], cfg["beta"]),
        )["exponent"]
        anchor_eps, anchor_T = pts[0]
        for e, T in pts:
            x = math.log10(1.0 / e)
            y = math.log10(T)
            if b:
                ytheory = math.log10(anchor_T) + b * (x - math.log10(1.0 / anchor_eps))
                lines.append(f"{x:.10g} {y:.10g} {ytheory:.10g}")
            else:
                lines.append(f"{x:.10g} {y:.10g} nan")
    plot_path.write_text("\n".join(lines) + "\n")
    return [csv_path, plot_path]


def report(
    result: SweepResult,
    outdir: str | Path,
    fit: FitResult | None = None,
) -> list[Path]:
    """Write sweep.csv, records.json, sweep_loglog.dat and manifest.json.

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
    manifest = {
        "config_hash": config_hash(base),
        "epsilons": list(result.spec.epsilons),
        "theory_bound": _theory_bound(base.p, base.d, base.bc),
        "fit": None if fit is None else fit.to_dict(),
        "versions": {
            "exwave": __version__,
            "numpy": np.__version__,
        },
        "timings_s": list(result.timings),
        "generated_unix": time.time(),
    }
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return [csv_path, records_path, plot_path, manifest_path]


def history_to_csv(rec: RunRecord, path: str | Path) -> Path:
    """Long-format state dump: one row per (t, r) with u_1..u_k (v_1..v_k when
    recorded)."""
    if rec.history is None:
        raise ValueError("run was configured without history")
    hist = rec.history
    k = hist.u.shape[1]
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t", "r"] + [f"u_{i + 1}" for i in range(k)]
        if hist.v is not None and len(hist.v):
            header += [f"v_{i + 1}" for i in range(k)]
        writer.writerow(header)
        for it, t in enumerate(hist.times):
            for jr, r in enumerate(hist.r):
                row = [f"{t:.10g}", f"{r:.10g}"]
                row += [f"{hist.u[it, c, jr]:.10g}" for c in range(k)]
                if hist.v is not None and len(hist.v):
                    row += [f"{hist.v[it, c, jr]:.10g}" for c in range(k)]
                writer.writerow(row)
    return path
