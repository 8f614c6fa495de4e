import csv
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from exwave.config import sweep_spec_from_ini
from exwave.exponents import (
    BoundaryCondition,
    BoundForm,
    ExponentVector,
    LifespanBound,
    classify_regime,
)
from exwave.harness import (
    FORM_MODELS,
    FitModel,
    SweepResult,
    SweepSpec,
    censor_points,
    config_hash,
    fit_scaling,
    history_to_csv,
    report,
    sweep,
    verify_cutoff_estimates,
    write_tables,
)
from exwave.oracle import OdeOrder, OdeSystem, integrate_adaptive
from exwave.solver import (
    InitialData,
    RunRecord,
    SolutionHistory,
    SolverConfig,
    Verdict,
    run,
    run_ladder,
)

ROOT = Path(__file__).resolve().parents[1]
P14 = ExponentVector.of(1.4, 1.4)
DIRICHLET = BoundaryCondition.dirichlet()


def _base_config(n=600, T_end=40.0, eps=0.8):
    return SolverConfig.with_auto_domain(
        p=P14, d=3, bc=DIRICHLET, n=n, T_end=T_end,
        data=InitialData(epsilon=eps), history_snapshots=0,
    )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_power_law_exact():
    pts = [(e, 1.0 / e) for e in (0.1, 0.2, 0.4, 0.8)]
    fit = fit_scaling(pts, FitModel.POWER, b_theory=1.0)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.deviation == pytest.approx(0.0, abs=1e-12)


def test_fit_power_log_law_exact():
    pts = [(e, (math.log(1 / e) / e) ** 2) for e in (0.05, 0.1, 0.2, 0.4)]
    fit = fit_scaling(pts, FitModel.POWER_LOG)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("model", list(FitModel))
def test_fit_slope_stderr_matches_polyfit_covariance(model):
    eps = np.array([0.8, 0.5, 0.33, 0.2, 0.12, 0.07])
    T = np.array([3.1, 5.2, 8.9, 13.0, 24.5, 37.0])
    fit = fit_scaling(list(zip(eps, T)), model)
    x = np.log(1.0 / eps) if model is FitModel.POWER else np.log(np.log(1.0 / eps) / eps)
    coef, cov = np.polyfit(x, np.log(T), 1, cov=True)
    assert fit.slope == pytest.approx(coef[0], rel=1e-12)
    assert fit.slope_stderr > 0
    assert fit.slope_stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
    assert fit.to_dict()["slope_stderr"] == fit.slope_stderr


def test_fit_validations():
    with pytest.raises(ValueError):
        fit_scaling([(0.1, 1.0)] * 3)
    with pytest.raises(ValueError):
        fit_scaling([(0.1, 1.0), (0.1, 1.0), (0.1, 1.0), (0.1, 1.0)])
    with pytest.raises(ValueError):
        fit_scaling([(1.5, 1.0), (1.2, 2.0), (1.1, 3.0), (1.05, 4.0)], FitModel.POWER_LOG)


@pytest.mark.parametrize(
    "refused, match",
    [
        (
            lambda tmp: fit_scaling([(0.8, 2.0), (0.4, 0.0), (0.2, 9.0), (0.1, 20.0)]),
            "all blow-up times must be finite and positive",
        ),
        (
            lambda tmp: fit_scaling([(0.8, 2.0), (0.4, -4.0), (0.2, 9.0), (0.1, 20.0)]),
            "all blow-up times must be finite and positive",
        ),
        (
            lambda tmp: verify_cutoff_estimates([4.0], [2.0], [3], [DIRICHLET], band_limit=0.5),
            "band limit must be finite and at least 1",
        ),
        (
            lambda tmp: verify_cutoff_estimates(
                [4.0], [2.0], [3], [DIRICHLET], band_limit=math.inf
            ),
            "band limit must be finite and at least 1",
        ),
        (lambda tmp: write_tables({"runs": []}, tmp), "not a list of run records"),
        (
            lambda tmp: history_to_csv(run(_base_config(n=64, T_end=1.0)), tmp / "h.csv"),
            "run was configured without history",
        ),
    ],
    ids=["fit-T-0", "fit-T-negative", "band-limit-0.5", "band-limit-inf",
         "tables-not-a-list", "csv-without-history"],
)
def test_harness_refusals_name_their_reason(tmp_path, refused, match):
    with pytest.raises(ValueError, match=match):
        refused(tmp_path)
    assert list(tmp_path.iterdir()) == []  # refused before any file is opened


def test_fit_oracle_first_order_recovers_p_minus_one():
    p = 2.5
    pts = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        sys = OdeSystem(OdeOrder.FIRST, ExponentVector.of(p), epsilon=eps)
        pts.append((eps, integrate_adaptive(sys, M=1e8).t_blow))
    fit = fit_scaling(pts, FitModel.POWER, b_theory=p - 1.0)
    assert abs(fit.slope - (p - 1.0)) <= 1e-3


# ---------------------------------------------------------------------------
# estimate batches
# ---------------------------------------------------------------------------

def test_verify_cutoff_estimates_pass_and_mutation_fail():
    rep = verify_cutoff_estimates(
        R_list=[4.0, 8.0],
        lam_list=[2.0],
        d_list=[3],
        bc_list=[DIRICHLET],
        grid=(128, 128),
    )
    assert rep.passed and not rep.failures
    mutated = verify_cutoff_estimates(
        R_list=[4.0, 32.0],
        lam_list=[2.0],
        d_list=[3],
        bc_list=[DIRICHLET],
        grid=(128, 128),
        rhs_r_powers=(-3.0, -4.0, -2.0, -2.0),
    )
    assert not mutated.passed
    assert any("estimate (i)" in f for f in mutated.failures)


def test_a_nan_band_fails_the_batch(monkeypatch):
    """A band that is NaN (a 0/0 or inf/inf ratio, as lambda = 1e300 gives)
    is not within the band limit."""
    from exwave.testfn import SupRatioRow

    monkeypatch.setattr(SupRatioRow, "bands", lambda row: (1.0, math.nan, 1.0, 1.0))
    rep = verify_cutoff_estimates(
        R_list=[4.0, 8.0], lam_list=[2.0], d_list=[3], bc_list=[DIRICHLET], grid=(8, 8),
    )
    assert not rep.passed
    assert rep.failures == ("lam=2 d=3 bc=dirichlet: estimate (ii) band nan exceeds 4",)


def test_weakened_phi_power_mutation_is_non_discriminating():
    """Replacing (lam+1)/(lam+2) by lam/(lam+2) on estimate (i) only makes
    the right side larger (phi* <= 1), so the ratios stay bounded: this
    mutation cannot be detected by the band test, unlike the R-power one."""
    from exwave.testfn import cutoff_estimate_sup_ratios

    lam = 2.0
    weak = dict(
        rhs_phi_powers=(lam / (lam + 2.0),) * 4,
        grid=(128, 128),
    )
    r4 = cutoff_estimate_sup_ratios(4.0, lam, 3, DIRICHLET, **weak)
    r32 = cutoff_estimate_sup_ratios(32.0, lam, 3, DIRICHLET, **weak)
    assert not r4.violations and not r32.violations
    band = max(r4.ratios[0], r32.ratios[0]) / min(r4.ratios[0], r32.ratios[0])
    assert band <= 2.0


def test_verify_cutoff_estimates_lambda_floor_warning():
    rep = verify_cutoff_estimates(
        R_list=[4.0],
        lam_list=[1.0],  # below 2/(1.4-1) = 5
        d_list=[2],
        bc_list=[BoundaryCondition.neumann()],
        grid=(64, 64),
        exponents=P14,
    )
    assert rep.warnings and "floor" in rep.warnings[0]
    with pytest.raises(ValueError):
        verify_cutoff_estimates([], [2.0], [2], [DIRICHLET])


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_single_epsilon_matches_run():
    base = _base_config()
    spec = SweepSpec(base=base, epsilons=(0.8,))
    result = sweep(spec)
    assert len(result.runs) == 1
    direct = run(result.runs[0].config)
    assert result.runs[0].t_blow == direct.t_blow
    assert result.runs[0].verdict is direct.verdict


def test_sweep_blow_up_monotone_and_deterministic():
    """Every run is the base config at its epsilon: one grid, dt and horizon
    for the whole ladder."""
    base = _base_config()
    spec = SweepSpec(base=base, epsilons=(0.8, 0.57, 0.4))
    r1 = sweep(spec)
    r2 = sweep(spec)
    for rec, e in zip(r1.runs, spec.epsilons):
        assert rec.config == replace(
            base, data=replace(base.data, epsilon=e), history_snapshots=0
        )
    ts1 = [rec.t_blow for rec in r1.runs]
    ts2 = [rec.t_blow for rec in r2.runs]
    assert ts1 == ts2
    assert all(rec.verdict is Verdict.BLEW_UP for rec in r1.runs)
    assert ts1 == sorted(ts1)
    assert r1.theory_bound.exponent == pytest.approx(1.0)


def test_shipped_sweep_keeps_its_recorded_numbers():
    """configs/subcritical_d3.ini through the sweep gives the t_blow and the
    fitted slope recorded for the five-term stencil, to the last bit: a
    change of the stepping layout or operation order shows here, not only in
    a comparison of two paths through the same kernel.  The values recorded
    for the operation order before it are kept to 1e-12 relative."""
    spec = sweep_spec_from_ini(ROOT / "configs" / "subcritical_d3.ini")
    result = sweep(spec)
    assert [repr(rec.t_blow) for rec in result.runs] == [
        "41.80013943393412",
        "53.218163968902616",
        "68.80266834179893",
        "90.29294204256355",
        "120.12729968163336",
    ]
    assert repr(result.fit.slope) == "0.7616930751601696"
    earlier = (
        41.80013943393559, 53.21816396890598, 68.80266834180415, 90.29294204257386,
        120.12729968165502,
    )
    for rec, t_blow in zip(result.runs, earlier, strict=True):
        assert rec.t_blow == pytest.approx(t_blow, rel=1e-12, abs=0.0)
    assert result.fit.slope == pytest.approx(0.7616930751602687, rel=1e-12, abs=0.0)


def test_shipped_ladder_peak_memory():
    """The tracemalloc peak of a ladder on the shipped sweep (no history)
    stays at most 1.35 MiB: the time levels, |u| and the kernel's arrays,
    with no per-step peak trace (1.331 MiB measured; 1.529 MiB with the
    trace).  The second ladder is measured, after the first has built the
    cached nodes."""
    spec = sweep_spec_from_ini(ROOT / "configs" / "subcritical_d3.ini")
    base = replace(spec.base, history_snapshots=0)
    run_ladder(base, spec.epsilons)
    tracemalloc.start()
    try:
        run_ladder(base, spec.epsilons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * 2**20


def test_sweep_runs_store_no_history():
    base = replace(_base_config(n=400, T_end=30.0), history_snapshots=64)
    assert run(base).history is not None
    result = sweep(SweepSpec(base=base, epsilons=(0.8, 0.6)))
    for rec in result.runs:
        assert rec.history is None
        assert rec.config.history_snapshots == 0


def test_sweep_validations():
    base = _base_config()
    with pytest.raises(ValueError):
        SweepSpec(base=base, epsilons=())
    with pytest.raises(ValueError):
        SweepSpec(base=base, epsilons=(0.4, 0.8))
    with pytest.raises(ValueError):
        SweepSpec(base=base, epsilons=(0.8, 0.8))
    with pytest.raises(ValueError):
        SweepSpec(base=base, epsilons=(0.8, -0.1))


def test_censor_points_guards_horizon():
    base = _base_config(T_end=10.0)
    spec = SweepSpec(base=base, epsilons=(0.8, 0.6))
    result = sweep(spec)
    pts = censor_points(result)
    for eps, t in pts:
        rec = next(r for r in result.runs if r.config.data.epsilon == eps)
        assert t < rec.config.T_end - 10 * rec.config.dt


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def test_report_files_and_determinism(tmp_path):
    spec = SweepSpec(
        base=_base_config(n=400),
        epsilons=(0.8, 0.57, 0.4, 0.28),
    )
    result = sweep(spec)
    base = spec.base
    assert result.theory_bound == classify_regime(base.p, base.d, base.bc)
    fit = result.fit
    b_theory = result.theory_bound.exponent
    assert fit == fit_scaling(censor_points(result), FitModel.POWER, b_theory=b_theory)
    out1 = report(result, tmp_path / "a")
    out2 = report(result, tmp_path / "b")
    names = {p.name for p in out1}
    assert names == {"sweep.csv", "records.json", "sweep_loglog.dat", "manifest.json"}
    assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()
    assert (
        (tmp_path / "a/sweep_loglog.dat").read_bytes()
        == (tmp_path / "b/sweep_loglog.dat").read_bytes()
    )
    manifest = json.loads((tmp_path / "a/manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(spec.base)
    assert manifest["fit"]["slope"] == pytest.approx(fit.slope)
    assert manifest["fit"]["slope_stderr"] == fit.slope_stderr
    rows = (tmp_path / "a/sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "epsilon,t_blow,horizon,verdict"
    assert len(rows) == 5
    # the theory line in the plot data carries slope b_theory = 1
    data_rows = [
        line.split()
        for line in (tmp_path / "a/sweep_loglog.dat").read_text().splitlines()
        if not line.startswith("#")
    ]
    xs = [float(r[0]) for r in data_rows]
    th = [float(r[2]) for r in data_rows]
    slope = (th[-1] - th[0]) / (xs[-1] - xs[0])
    assert slope == pytest.approx(1.0, abs=1e-6)  # file stores 10 significant digits
    # the manifest writes each shipped config's stored bound as it always has
    for name, written in [
        ("subcritical_d3", '{"exponent": 0.9999999999999996, "form": "polynomial"}'),
        ("critical_d2_neumann", '{"exponent": 1.0, "form": "exponential"}'),
    ]:
        shipped = sweep_spec_from_ini(ROOT / "configs" / f"{name}.ini")
        b = shipped.base
        bound = classify_regime(b.p, b.d, b.bc)
        report(SweepResult(spec=shipped, runs=(), theory_bound=bound), tmp_path / name)
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert json.dumps(manifest["theory_bound"], sort_keys=True) == written


@pytest.mark.parametrize("model, d", [(FitModel.POWER, 3), (FitModel.POWER_LOG, 2)])
def test_theory_line_and_fit_share_the_abscissa(tmp_path, model, d):
    """On T = X(eps)^b exactly, with b the classifier's exponent, the theory
    column retraces log10(t_blow) wherever the law is defined, and the fit
    returns b."""
    form = classify_regime(P14, d, DIRICHLET)
    assert FORM_MODELS[form.form] is model
    b = form.exponent
    eps = (1.2, 1.0, 0.8, 0.5, 0.3, 0.2, 0.125)
    T = [float(np.exp(b * model.abscissa(e))) if model.defined_at(e) else 5.0 for e in eps]
    config = {"p": list(P14.p), "d": d, "alpha": 0.0, "beta": 1.0, "T_end": 60.0}
    records = [
        {"config": {**config, "data": {"epsilon": e}}, "verdict": "blew-up", "t_blow": t}
        for e, t in zip(eps, T)
    ]
    write_tables(records, tmp_path)
    rows = [line.split() for line in (tmp_path / "sweep_loglog.dat").read_text().splitlines()[1:]]
    assert len(rows) == len(eps)
    undefined = [model is FitModel.POWER_LOG and e >= 1.0 for e in eps]
    assert [y_theory == "nan" for *_, y_theory in rows] == undefined
    for (_, y, y_theory), skip in zip(rows, undefined):
        if not skip:
            assert float(y_theory) == pytest.approx(float(y), rel=0, abs=1e-9)
    pts = [(e, t) for e, t in zip(eps, T) if model.defined_at(e)]
    assert fit_scaling(pts, model).slope == pytest.approx(b, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "p, d, alpha, beta",
    [
        ((2.0, 2.0), 2, 1.0, 0.0),
        ((2.0, 2.0), 2, 0.0, 1.0),
        ((3.0, 3.0), 3, 0.0, 1.0),
        ((1.6666666666666667, 3.0), 2, 0.0, 1.0),
    ],
    ids=["exponential", "double-exponential", "no-blowup-claim", "open-problem"],
)
def test_theory_line_is_drawn_only_for_fitted_forms(tmp_path, p, d, alpha, beta):
    config = {"p": list(p), "d": d, "alpha": alpha, "beta": beta, "T_end": 60.0}
    records = [
        {"config": {**config, "data": {"epsilon": e}}, "verdict": "blew-up", "t_blow": t}
        for e, t in [(1.0, 4.7), (0.75, 6.3), (0.5, 10.4)]
    ]
    write_tables(records, tmp_path)
    lines = (tmp_path / "sweep_loglog.dat").read_text().splitlines()[1:]
    assert len(lines) == 3
    assert all(line.split()[2] == "nan" for line in lines)


def test_report_empty_runs(tmp_path):
    spec = SweepSpec(base=_base_config(n=400), epsilons=(0.5,))
    theory = LifespanBound(BoundForm.POLYNOMIAL, 1.0)
    empty = SweepResult(spec=spec, runs=(), theory_bound=theory)
    paths = report(empty, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows == ["epsilon,t_blow,horizon,verdict"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["theory_bound"] == {"form": "polynomial", "exponent": 1.0}
    assert manifest["timings_s"] == []


def test_one_run_report_row_matches_record(tmp_path):
    spec = SweepSpec(base=_base_config(n=400), epsilons=(0.8,))
    result = sweep(spec)
    report(result, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    rec = result.runs[0]
    eps, t_blow, horizon, verdict = rows[1].split(",")
    assert float(eps) == rec.config.data.epsilon
    assert float(t_blow) == pytest.approx(rec.t_blow)
    assert float(horizon) == rec.config.T_end
    assert verdict == rec.verdict.value


def test_history_csv_dump(tmp_path):
    cfg = SolverConfig.with_auto_domain(
        p=P14, d=3, bc=DIRICHLET, n=64, T_end=1.0,
        data=InitialData(epsilon=0.1), history_snapshots=4,
    )
    rec = run(cfg)
    path = history_to_csv(rec, tmp_path / "hist.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,r,u_1,u_2"
    assert len(lines) == 1 + len(rec.history.times) * len(rec.history.r)


def _csv_writer_dump(hist, path):
    """The csv.writer loop that history_to_csv once was: its byte reference."""
    k = hist.u.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r"] + [f"u_{i + 1}" for i in range(k)])
        for it, t in enumerate(hist.times):
            for jr, r in enumerate(hist.r):
                row = [f"{t:.10g}", f"{r:.10g}"]
                row += [f"{hist.u[it, c, jr]:.10g}" for c in range(k)]
                writer.writerow(row)


def test_history_csv_keeps_the_csv_writer_bytes(tmp_path):
    u = np.random.default_rng(3).normal(size=(3, 2, 5)) * np.logspace(-12, 12, 5)
    u[0, 0, :3] = (-0.0, -1.5e-300, -7.25e12)
    hist = SolutionHistory(
        times=np.array([0.0, 0.125, 1.0 / 3.0]), r=np.linspace(1.0, 2.0, 5), u=u, horizon=1.0
    )
    rec = RunRecord(_base_config(), t_final=1.0 / 3.0, threshold_crossings={}, history=hist)
    _csv_writer_dump(hist, tmp_path / "reference.csv")
    history_to_csv(rec, tmp_path / "history.csv")
    reference = (tmp_path / "reference.csv").read_bytes()
    assert reference.count(b"-") > 10 and reference.endswith(b"\r\n")
    assert (tmp_path / "history.csv").read_bytes() == reference


def test_serial_timings_grow_along_a_blow_up_ladder(tmp_path):
    """The sweep steps its runs in one loop, and a run's timing is the time
    from the loop's start to the step at which the run left it, so the
    timings grow with the blow-up step; the manifest's timings are the
    records' own."""
    result = sweep(SweepSpec(base=_base_config(n=400, T_end=30.0), epsilons=(0.8, 0.6, 0.5)))
    assert all(rec.verdict is Verdict.BLEW_UP for rec in result.runs)
    finals = [rec.t_final for rec in result.runs]
    assert finals == sorted(finals) and len(set(finals)) == len(finals)
    timings = [rec.wall_s for rec in result.runs]
    assert all(t > 0.0 for t in timings)
    assert timings == sorted(timings)
    report(result, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["timings_s"] == timings
