"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (collected into the pytest terminal
summary).  Budgeted runtimes are asserted as hard caps; the heavy
subcritical sweep is shared between the scaling and diagnostic-chain
criteria through a module-scoped fixture.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from exwave.exponents import (
    BoundaryCondition,
    BoundForm,
    ExponentVector,
    classify_regime,
    compute_gamma,
    fujita_exponent,
    gamma_cyclic_closed_form,
    gamma_max_two_component,
    single_equation_table,
)
from exwave.harness import FitModel, fit_scaling, verify_cutoff_estimates
from exwave.oracle import OdeOrder, OdeSystem, integrate_adaptive, solve_first_order_exact
from exwave.quadrature import chain_check, measure_QRstar_psi
from exwave.solver import (
    InitialData,
    RadialGrid,
    RadialState,
    SolverConfig,
    Verdict,
    apply_boundary,
    run,
    step,
)
from exwave.testfn import cutoff_profile_derivatives, psi_identities

DIRICHLET = BoundaryCondition.dirichlet()
NEUMANN = BoundaryCondition.neumann()
ROBIN = BoundaryCondition.robin(1.0, 1.0)


@contextmanager
def _criterion(recorder, number: int, label: str, budget_s: float):
    info = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        recorder(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    detail = info.get("detail", "")
    recorder(
        f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s"
        + (f"; {detail}" if detail else "")
        + ")"
    )
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


# ---------------------------------------------------------------------------
# 1. gamma algebra
# ---------------------------------------------------------------------------

def test_criterion_01_gamma_algebra(acceptance_recorder):
    with _criterion(acceptance_recorder, 1, "gamma algebra", 1.0) as info:
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(1, 9))
            p = ExponentVector(tuple(rng.uniform(1.0 + 1e-9, 6.0, size=k)))
            rep = compute_gamma(p, 3)
            for idx in range(1, k + 1):
                closed = gamma_cyclic_closed_form(p, idx)
                err = abs(closed - rep.gamma[idx - 1]) / max(1.0, abs(closed))
                worst = max(worst, err)
                assert err <= 1e-12
            if k == 2:
                err = abs(
                    rep.gamma_max - gamma_max_two_component(p.p[0], p.p[1])
                ) / max(1.0, rep.gamma_max)
                worst = max(worst, err)
                assert err <= 1e-12
        info["detail"] = f"worst relative disagreement {worst:.2e}"


# ---------------------------------------------------------------------------
# 2. single-equation table identity
# ---------------------------------------------------------------------------

def test_criterion_02_single_equation_identity(acceptance_recorder):
    with _criterion(acceptance_recorder, 2, "single-equation table", 1.0) as info:
        checked = 0
        for d in (3, 4, 5):
            for pv in (1.1, 1.3, 1.6):
                table = single_equation_table(pv, d)
                general = classify_regime(ExponentVector.of(pv), d, DIRICHLET)
                assert table.form == general.form
                if pv < fujita_exponent(d):
                    expected = 2.0 * (pv - 1.0) / (2.0 - d * (pv - 1.0))
                    assert abs(table.exponent - expected) <= 1e-12 * expected
                    assert abs(general.exponent - expected) <= 1e-12 * expected
                else:
                    assert table.form is BoundForm.NO_BLOWUP_CLAIM
                checked += 1
        info["detail"] = f"{checked} (p, d) combinations"


# ---------------------------------------------------------------------------
# 3. harmonic / boundary identities
# ---------------------------------------------------------------------------

def test_criterion_03_harmonic_identities(acceptance_recorder):
    with _criterion(acceptance_recorder, 3, "harmonic weights", 1.0) as info:
        r = np.linspace(1.0, 100.0, 4001)
        worst_lap, worst_bnd = 0.0, 0.0
        for d in range(1, 7):
            for ab in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0)):
                lap, bnd = psi_identities(r, d, BoundaryCondition(*ab))
                worst_lap = max(worst_lap, float(np.max(np.abs(lap))))
                worst_bnd = max(worst_bnd, abs(bnd))
        assert worst_lap <= 1e-10
        assert worst_bnd <= 1e-12
        info["detail"] = f"max |Lap Psi| {worst_lap:.1e}, max boundary {worst_bnd:.1e}"


# ---------------------------------------------------------------------------
# 4. cutoff derivative estimates (sup-ratio batch + mutation)
# ---------------------------------------------------------------------------

def test_criterion_04_estimate_batch(acceptance_recorder):
    with _criterion(acceptance_recorder, 4, "derivative estimates", 120.0) as info:
        R_list = [4.0, 8.0, 16.0, 32.0]
        lams = [2.0 / (pmin - 1.0) for pmin in (1.4, 2.0)]  # 5 and 2
        rep = verify_cutoff_estimates(
            R_list=R_list,
            lam_list=lams,
            d_list=[2, 3],
            bc_list=[DIRICHLET, NEUMANN, ROBIN],
            grid=(512, 512),
            band_limit=4.0,
        )
        assert rep.passed, rep.failures
        worst_band = max(max(row.bands()) for row in rep.rows)

        # discriminating mutation: R^-3 instead of R^-2 on estimate (i)
        mut = dict(rhs_r_powers=(-3.0, -4.0, -2.0, -2.0), grid=(512, 512))
        from exwave.testfn import cutoff_estimate_sup_ratios

        r4 = cutoff_estimate_sup_ratios(4.0, lams[0], 3, DIRICHLET, **mut).ratios[0]
        r32 = cutoff_estimate_sup_ratios(32.0, lams[0], 3, DIRICHLET, **mut).ratios[0]
        assert r32 / r4 >= 2.0
        info["detail"] = (
            f"worst band {worst_band:.2f} of 4; mutation grows {r32 / r4:.1f}x"
        )


# ---------------------------------------------------------------------------
# 5. shell measure growth bands
# ---------------------------------------------------------------------------

def test_criterion_05_measure_bands(acceptance_recorder):
    with _criterion(acceptance_recorder, 5, "shell measures", 60.0) as info:
        cases = [
            (2, DIRICHLET, lambda R: R**4 * math.log(R)),
            (3, DIRICHLET, lambda R: R**5),
            (2, NEUMANN, lambda R: R**4),
            (3, NEUMANN, lambda R: R**5),
        ]
        bands = []
        for d, bc, rate in cases:
            vals = [
                measure_QRstar_psi(R, d, bc) / rate(R)
                for R in (4.0, 8.0, 16.0, 32.0)
            ]
            band = max(vals) / min(vals)
            bands.append(band)
            assert band <= 4.0
        info["detail"] = "bands " + ", ".join(f"{b:.2f}" for b in bands)


# ---------------------------------------------------------------------------
# 6. solver convergence (manufactured solution)
# ---------------------------------------------------------------------------

def _manufactured_error(n, d=3, pexp=2.0, T=1.0, c=2.0, w=0.75):
    p = ExponentVector.of(pexp)
    grid = RadialGrid(r_max=5.0, n=n)
    r = grid.r

    def eta(rr):
        return cutoff_profile_derivatives(((rr - c) / w) ** 2)[0]

    def lap_eta(rr):
        s = ((rr - c) / w) ** 2
        _, dphi, ddphi = cutoff_profile_derivatives(s)
        sp = 2.0 * (rr - c) / w**2
        return ddphi * sp**2 + dphi * 2.0 / w**2 + (d - 1.0) / rr * (dphi * sp)

    def source(t):
        ue = np.exp(-t) * eta(r)
        return (-np.exp(-t) * lap_eta(r) - np.abs(ue) ** pexp)[None, :]

    dt = T / np.ceil(T / (0.9 * grid.dr))
    state = apply_boundary(
        RadialState(t=0.0, u=eta(r)[None, :].copy(), v=-eta(r)[None, :].copy()),
        DIRICHLET,
    )
    for _ in range(int(round(T / dt))):
        state = step(state, dt, p, d, DIRICHLET, grid, source=source)
    return float(np.max(np.abs(state.u[0] - np.exp(-state.t) * eta(r))))


def test_criterion_06_solver_convergence(acceptance_recorder):
    with _criterion(acceptance_recorder, 6, "solver convergence", 60.0) as info:
        errs = [_manufactured_error(n) for n in (800, 1600, 3200, 6400)]
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        for ratio in ratios:
            assert 3.2 <= ratio <= 4.8
        info["detail"] = "error ratios " + ", ".join(f"{q:.2f}" for q in ratios)


# ---------------------------------------------------------------------------
# 7. oracle equivalence and fit calibration
# ---------------------------------------------------------------------------

def test_criterion_07_oracle_equivalence(acceptance_recorder):
    with _criterion(acceptance_recorder, 7, "ODE oracle", 10.0) as info:
        worst = 0.0
        for pv in (1.5, 2.0, 3.0):
            for y0 in (1e-3, 3e-2, 1.0):
                sys = OdeSystem(OdeOrder.FIRST, ExponentVector.of(pv), epsilon=y0)
                res = integrate_adaptive(sys, M=1e8)
                exact = solve_first_order_exact(pv, y0)
                rel = abs(res.t_blow - exact) / exact
                worst = max(worst, rel)
                assert rel <= 1e-6
        worst_fit = 0.0
        for pv in (1.5, 2.0, 3.0):
            pts = []
            for eps in (0.4, 0.2, 0.1, 0.05):
                sys = OdeSystem(OdeOrder.FIRST, ExponentVector.of(pv), epsilon=eps)
                pts.append((eps, integrate_adaptive(sys, M=1e8).t_blow))
            fit = fit_scaling(pts, FitModel.POWER, b_theory=pv - 1.0)
            worst_fit = max(worst_fit, abs(fit.slope - (pv - 1.0)))
            assert abs(fit.slope - (pv - 1.0)) <= 1e-3
        info["detail"] = f"worst rel {worst:.1e}; worst slope error {worst_fit:.1e}"


# ---------------------------------------------------------------------------
# 8 and 10 share the subcritical sweep
# ---------------------------------------------------------------------------

SWEEP_EPS = tuple(0.8 * 0.25 ** (i / 4) for i in range(5))  # geometric in [0.2, 0.8]
SWEEP_DATA = InitialData(center=1.3, width=0.25, epsilon=1.0)
SWEEP_P = ExponentVector.of(1.4, 1.4)


@pytest.fixture(scope="module")
def subcritical_sweep():
    """d = 3 Dirichlet two-component run at n = 4000 cells, histories kept.

    The bump sits close to the absorbing wall so the tested epsilon window
    [0.2, 0.8] already lies in the dispersion-dominated regime where the
    polynomial lifespan scaling is visible at desk scale.
    """
    records = []
    start = time.perf_counter()
    for eps in SWEEP_EPS:
        cfg = SolverConfig.with_auto_domain(
            p=SWEEP_P, d=3, bc=DIRICHLET, n=4000, T_end=180.0,
            data=InitialData(
                center=SWEEP_DATA.center, width=SWEEP_DATA.width, epsilon=eps
            ),
            history_snapshots=256,
        )
        records.append(run(cfg))
    return records, time.perf_counter() - start


def test_criterion_08_subcritical_scaling(acceptance_recorder, subcritical_sweep):
    records, sweep_elapsed = subcritical_sweep
    with _criterion(acceptance_recorder, 8, "subcritical scaling", 600.0) as info:
        bound = classify_regime(SWEEP_P, 3, DIRICHLET)
        assert bound.form is BoundForm.POLYNOMIAL
        assert bound.exponent == pytest.approx(1.0, abs=1e-9)
        ts = []
        for eps, rec in zip(SWEEP_EPS, records):
            assert rec.verdict is Verdict.BLEW_UP and rec.t_blow is not None
            ts.append(rec.t_blow)
        constants = np.asarray(SWEEP_EPS) * np.asarray(ts)  # C in t <= C/eps
        spread = constants.max() / constants.min()
        assert spread <= 2.0
        fit = fit_scaling(list(zip(SWEEP_EPS, ts)), FitModel.POWER, b_theory=1.0)
        assert 0.6 <= fit.slope <= 1.4
        info["detail"] = (
            f"sweep {sweep_elapsed:.1f}s; slope {fit.slope:.3f}; "
            f"C spread {spread:.2f}"
        )


# ---------------------------------------------------------------------------
# 9. critical regime: classification + blow-up observed
# ---------------------------------------------------------------------------

def test_criterion_09_critical_regime(acceptance_recorder):
    with _criterion(acceptance_recorder, 9, "critical regime", 300.0) as info:
        p = ExponentVector.of(2.0, 2.0)
        bound = classify_regime(p, 2, NEUMANN)
        assert bound.form is BoundForm.EXPONENTIAL
        assert bound.exponent == pytest.approx(1.0, abs=1e-9)  # q = p1 - 1
        ts = []
        for eps in (0.5, 0.75, 1.0):
            cfg = SolverConfig.with_auto_domain(
                p=p, d=2, bc=NEUMANN, n=4000, T_end=60.0,
                data=InitialData(epsilon=eps), history_snapshots=0,
            )
            rec = run(cfg)
            assert rec.verdict is Verdict.BLEW_UP
            ts.append(rec.t_blow)
        info["detail"] = (
            "exponential branch confirmed; t_blow "
            + ", ".join(f"{t:.1f}" for t in ts)
        )


# ---------------------------------------------------------------------------
# 10. diagnostic chain on the subcritical sweep
# ---------------------------------------------------------------------------

def test_criterion_10_diagnostic_chain(acceptance_recorder, subcritical_sweep):
    records, _ = subcritical_sweep
    with _criterion(acceptance_recorder, 10, "diagnostic chain", 120.0) as info:
        R_list = [4.0, 8.0, 16.0]
        gamma_max = compute_gamma(SWEEP_P, 3).gamma_max
        power = 2.0 * gamma_max - 3.0
        # saturated measured constants eps * (sqrt(t_blow))^(2 gamma - d),
        # i.e. the closing inequality evaluated at the largest admissible R
        saturated = np.array(
            [eps * rec.t_blow ** (power / 2.0) for eps, rec in zip(SWEEP_EPS, records)]
        )
        windowed = []
        for eps, rec in zip(SWEEP_EPS, records):
            c0 = rec.data_positivity / eps
            rep = chain_check(
                rec.history, SWEEP_P, 3, DIRICHLET, R_list, epsilon=eps, C0=[c0, c0]
            )
            in_window = [row for row in rep.rows if row.in_theory_window]
            assert in_window, f"no admissible R for eps={eps}"
            for row in in_window:
                # uniform boundedness: the formula ratio never exceeds the
                # saturated constant scale
                assert row.final_ratio <= 1.05 * saturated.max()
            windowed.append(max(row.final_ratio for row in in_window))
        # the per-run ratios at the largest admissible scales sit in one band
        band_dyadic = max(windowed) / min(windowed)
        band_saturated = float(saturated.max() / saturated.min())
        assert band_dyadic <= 4.0
        assert band_saturated <= 4.0
        info["detail"] = (
            f"dyadic band {band_dyadic:.2f}, saturated band {band_saturated:.2f}"
        )
