import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from exwave import solver
from exwave.exponents import BoundaryCondition, ExponentVector
from exwave.solver import (
    BLOWUP_THRESHOLD,
    SENSITIVITY_THRESHOLDS,
    CFLViolationError,
    DataPositivityError,
    InitialData,
    RadialGrid,
    RadialState,
    SolverConfig,
    Verdict,
    _crossing_time,
    _forcing,
    _Kernel,
    apply_boundary,
    energy,
    run,
    run_ladder,
    step,
)
from exwave.testfn import cutoff_profile_derivatives, psi

P14 = ExponentVector.of(1.4, 1.4)
DIRICHLET = BoundaryCondition.dirichlet()
NEUMANN = BoundaryCondition.neumann()


def test_grid_basics():
    grid = RadialGrid(r_max=5.0, n=100)
    assert grid.dr == pytest.approx(0.04)
    assert grid.r[0] == 1.0 and grid.r[-1] == pytest.approx(5.0)
    with pytest.raises(ValueError):
        RadialGrid(r_max=0.5, n=100)
    with pytest.raises(ValueError):
        RadialGrid(r_max=5.0, n=4)


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData(center=1.2, width=0.5)  # support would cross r = 1
    # the bump peaks at epsilon: data at the blow-up threshold is refused
    with pytest.raises(ValueError, match="epsilon must be below the blow-up threshold"):
        InitialData(epsilon=BLOWUP_THRESHOLD)
    InitialData(epsilon=math.nextafter(BLOWUP_THRESHOLD, 0.0))  # just below is accepted
    data = InitialData(center=2.0, width=0.5, epsilon=0.3)
    grid = RadialGrid(r_max=6.0, n=300)
    u0, u1 = data.build(grid, 2)
    assert u0.shape == (2, 301)
    assert np.array_equal(u0, u1)
    assert u0.max() == pytest.approx(0.3)
    outside = (grid.r < 1.5) | (grid.r > 2.5)
    assert np.all(u0[:, outside] == 0.0)


def test_cfl_guard():
    grid = RadialGrid(r_max=5.0, n=100)
    state = RadialState(t=0.0, u=np.zeros((1, 101)), v=np.zeros((1, 101)))
    with pytest.raises(CFLViolationError):
        step(state, 1.1 * grid.dr, ExponentVector.of(2.0), 3, DIRICHLET, grid)


def _config_with(**changes):
    fields = dict(
        p=P14, d=3, bc=DIRICHLET, grid=RadialGrid(r_max=8.0, n=100), T_end=5.0,
        data=InitialData(),
    )
    return SolverConfig(**{**fields, **changes})


def _step_a_nan_state():
    grid = RadialGrid(r_max=5.0, n=100)
    u = np.zeros((1, 101))
    u[0, 50] = math.nan
    state = RadialState(t=0.0, u=u, v=np.zeros((1, 101)))
    step(state, grid.dr, ExponentVector.of(2.0), 3, DIRICHLET, grid)


@pytest.mark.parametrize(
    "refused, error, match",
    [
        (lambda: InitialData(width=0.0), ValueError, "width must be positive"),
        (lambda: InitialData(width=-0.25), ValueError, "width must be positive"),
        (lambda: _config_with(T_end=math.inf), ValueError, "T_end must be positive and finite"),
        (lambda: _config_with(T_end=math.nan), ValueError, "T_end must be positive and finite"),
        (lambda: _config_with(T_end=0.0), ValueError, "T_end must be positive and finite"),
        (lambda: _config_with(T_end=-1.0), ValueError, "T_end must be positive and finite"),
        # the bump reaches r = 2.5
        (
            lambda: _config_with(grid=RadialGrid(r_max=2.5, n=100)),
            ValueError, "initial bump support must lie inside the grid",
        ),
        (_step_a_nan_state, FloatingPointError, "non-finite state"),
    ],
    ids=[
        "width-0", "width-negative", "T_end-inf", "T_end-nan", "T_end-0", "T_end-negative",
        "bump-beyond-r_max", "step-nan-state",
    ],
)
def test_solver_refusals_name_their_reason(refused, error, match):
    with pytest.raises(error, match=match):
        refused()


@pytest.mark.parametrize("x", [1.0, 4.0])
def test_the_robin_cfl_limit_is_sharp_in_one_dimension(x, monkeypatch):
    """Robin's ghost row carries a boundary mode that limits dt/dr to
    sqrt(2/(1 + sqrt(1 + x^2))), x = dr beta/alpha: 0.910 at x = 1 and 0.625
    at x = 4, both below the interior limit 1.  Linear d = 1 runs from the
    unit bump stay below 2 at 0.99 of it; at 1.01 of it step() refuses, and
    with its guard lifted the run passes 1e6 within 400 steps."""
    grid = RadialGrid(r_max=5.0, n=64)
    bc = BoundaryCondition.robin(grid.dr / x, 1.0)
    limit = solver._cfl_limit(grid.dr, bc)
    assert limit == pytest.approx(math.sqrt(2.0 / (1.0 + math.sqrt(1.0 + x * x))), rel=1e-15)

    def peak(dt):
        """The largest |u| of 400 linear steps, or the first above 1e6."""
        u0, u1 = InitialData().build(grid, 1)
        state = apply_boundary(RadialState(t=0.0, u=u0, v=u1), bc)
        top = 0.0
        for _ in range(400):
            state = step(state, dt, ExponentVector.of(2.0), 1, bc, grid, nonlinear=False)
            top = max(top, float(np.abs(state.u).max()))
            if top > 1e6:
                break
        return top

    assert peak(0.99 * limit * grid.dr) < 2.0
    with pytest.raises(CFLViolationError):
        peak(1.01 * limit * grid.dr)
    monkeypatch.setattr(solver, "_cfl_limit", lambda dr, bc: math.inf)
    assert peak(1.01 * limit * grid.dr) > 1e6


def test_zero_data_stays_zero():
    cfg = SolverConfig(
        p=P14, d=3, bc=DIRICHLET, grid=RadialGrid(r_max=8.0, n=128), T_end=2.0,
        data=InitialData(epsilon=0.0),
    )
    rec = run(cfg)
    assert rec.verdict is Verdict.SURVIVED
    assert rec.threshold_crossings == {} and not rec.nan_encountered
    assert rec.history.times[-1] == rec.t_final
    assert np.all(rec.history.u == 0.0) and not np.any(np.signbit(rec.history.u))


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN, BoundaryCondition.robin(1, 1)])
def test_linear_energy_dissipation(bc, d=3):
    """Forcing off: the damped scheme loses discrete (half-level) energy.

    For Dirichlet the decrease is strict every step.  The flux conditions
    leave an O(dr^2) wiggle (the weighted centered Laplacian is only
    asymptotically self-adjoint), so those are held to a small relative
    slack per step while the overall decay must still be strong.
    """
    grid = RadialGrid(r_max=12.0, n=600)
    data = InitialData(center=3.0, width=0.8, epsilon=1.0)
    bump = data.profile(grid.r)
    state = apply_boundary(
        RadialState(t=0.0, u=np.stack([bump, 0.5 * bump]), v=np.zeros((2, 601))), bc
    )
    dt = 0.9 * grid.dr
    energies = []
    for _ in range(500):
        state = step(state, dt, P14, d, bc, grid, nonlinear=False)
        energies.append(energy(state, grid, d, dt=dt, bc=bc))
    e = np.array(energies)
    slack = 0.0 if bc.kind.value == "dirichlet" else 1e-3 * e[0]
    assert np.all(np.diff(e) <= slack)
    assert e[-1] < 0.01 * e[0]  # damping actually dissipates


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, 0.5)])
def test_energy_robin_boundary_term_is_beta_over_alpha_u1_squared(alpha, beta, d=3):
    """On one mid-trajectory state with u(1) != 0, the Robin energy exceeds
    the Neumann energy by exactly (beta/alpha) sum_l u_l(1)^2."""
    grid = RadialGrid(r_max=6.0, n=200)
    data = InitialData(center=1.6, width=0.5, epsilon=1.0)
    bump = data.profile(grid.r)
    bc = BoundaryCondition.robin(alpha, beta)
    state = apply_boundary(
        RadialState(t=0.0, u=np.stack([bump, 0.5 * bump]), v=np.zeros((2, 201))), bc
    )
    dt = 0.9 * grid.dr
    for _ in range(40):
        state = step(state, dt, P14, d, bc, grid, nonlinear=False)
    assert np.all(np.abs(state.u[:, 0]) > 1e-3)
    total = energy(state, grid, d, dt, bc)
    term = (beta / alpha) * np.sum(state.u[:, 0] ** 2)
    assert total - energy(state, grid, d, dt, NEUMANN) == pytest.approx(term, abs=1e-12 * total)


def _bump_eta(c, w):
    def eta(r):
        return cutoff_profile_derivatives(((r - c) / w) ** 2)[0]

    def lap_eta(r, d):
        s = ((r - c) / w) ** 2
        _, dphi, ddphi = cutoff_profile_derivatives(s)
        sp = 2.0 * (r - c) / w**2
        return ddphi * sp**2 + dphi * 2.0 / w**2 + (d - 1.0) / r * (dphi * sp)

    return eta, lap_eta


def _manufactured_error(n, d=3, pexp=2.0, T=1.0, c=2.0, w=0.75):
    """Max error against u = e^(-t) eta(r), whose damped-wave source is
    S = -e^(-t) Lap(eta) - |u|^p (the time terms cancel for e^(-t))."""
    p = ExponentVector.of(pexp)
    grid = RadialGrid(r_max=5.0, n=n)
    r = grid.r
    eta, lap_eta = _bump_eta(c, w)

    def source(t):
        ue = np.exp(-t) * eta(r)
        return (-np.exp(-t) * lap_eta(r, d) - np.abs(ue) ** pexp)[None, :]

    dt = T / np.ceil(T / (0.9 * grid.dr))
    state = apply_boundary(
        RadialState(t=0.0, u=eta(r)[None, :].copy(), v=-eta(r)[None, :].copy()),
        DIRICHLET,
    )
    for _ in range(int(round(T / dt))):
        state = step(state, dt, p, d, DIRICHLET, grid, source=source)
    return float(np.max(np.abs(state.u[0] - np.exp(-state.t) * eta(r))))


def test_manufactured_solution_second_order():
    errs = [_manufactured_error(n) for n in (800, 1600, 3200)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for ratio in ratios:
        assert 3.2 <= ratio <= 4.8


def _polynomial_bump(r):
    """(1 - s)^6 with s = ((r - 1.6)/0.5)^2, zero outside |r - 1.6| < 0.5."""
    return np.clip(1.0 - ((r - 1.6) / 0.5) ** 2, 0.0, None) ** 6


def _exact_linear(x, t, data, sign):
    """The linear damped wave u_tt - u_xx + u_t = 0 on the line at time t,
    from u(0) = u_t(0) = ``data``, where ``data`` is the extension
    data(1 + y) + sign data(1 - y) of a function supported on r in [1.1, 2.1].

    u = e^(-t/2) w turns it into w_tt - w_xx - w/4 = 0, with w(0) = f = u(0)
    and w_t(0) = g = u_t(0) + u(0)/2 = 3f/2.  Riemann's method gives
    w = [f(x - t) + f(x + t)]/2 + (1/2) int [g I0(rho/2) + f t I1(rho/2)/(2 rho)] dy
    over |x - y| < t, rho = sqrt(t^2 - (x - y)^2).  I0(z) and I1(z)/z are
    smooth in rho^2, so 200-point Gauss-Legendre on each piece of the data's
    support, clipped to [x - t, x + t], integrates the polynomial bump to
    round-off."""
    from scipy.special import i0, i1

    def f(y):
        return data(1.0 + y) + sign * data(1.0 - y)

    nodes, weights = np.polynomial.legendre.leggauss(200)
    w = 0.5 * (f(x - t) + f(x + t))
    for a, b in ((0.1, 1.1), (-1.1, -0.1)):
        lo, hi = np.clip(a, x - t, x + t), np.clip(b, x - t, x + t)
        on = hi > lo
        half, mid = 0.5 * (hi[on] - lo[on]), 0.5 * (hi[on] + lo[on])
        y = mid[:, None] + half[:, None] * nodes
        rho = np.sqrt(t * t - (x[on, None] - y) ** 2)
        kernel = 1.5 * i0(rho / 2.0) + t * i1(rho / 2.0) / (2.0 * rho)
        w[on] += 0.5 * half * ((f(y) * kernel) @ weights)
    return np.exp(-t / 2.0) * w


def _linear_error(n, d, bc, sign, T=3.0):
    """Max error over r < 4 of linear step() runs from u0 = u1 = the
    polynomial bump against the exact solution, at cfl 0.5 on r_max = 8.
    In d = 3, v = r u solves the 1-D equation; with x = r - 1, the odd
    extension of the data gives Dirichlet at r = 1 and the even one Neumann."""
    grid = RadialGrid(r_max=8.0, n=n)
    r = grid.r
    u0 = _polynomial_bump(r)[None, :]
    state = apply_boundary(RadialState(t=0.0, u=u0, v=u0.copy()), bc)
    dt = T / np.ceil(T / (0.5 * grid.dr))
    for _ in range(int(round(T / dt))):
        state = step(state, dt, ExponentVector.of(2.0), d, bc, grid, nonlinear=False)
    m = (d - 1) // 2  # u = v / r^m

    def data(s):
        return s**m * _polynomial_bump(s)

    near = r < 4.0
    exact = _exact_linear(r[near] - 1.0, state.t, data, sign) / r[near] ** m
    return float(np.max(np.abs(state.u[0, near] - exact)))


EXACT_LINEAR = {
    "d1-dirichlet": (1, DIRICHLET, -1.0, 2e-4),
    "d1-neumann": (1, NEUMANN, 1.0, 2e-4),
    "d3-dirichlet": (3, DIRICHLET, -1.0, 1e-4),
}


@pytest.mark.parametrize("setup", list(EXACT_LINEAR))
def test_linear_step_converges_to_the_exact_damped_wave(setup):
    """Waves that move and reflect off r = 1 up to T = 3, against Riemann's
    exact solution: second order (error ratios in [3.2, 4.8], the band of
    acceptance 06), and the finest error below a fixed bound."""
    d, bc, sign, bound = EXACT_LINEAR[setup]
    errors = [_linear_error(n, d, bc, sign) for n in (350, 700, 1400)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.2 <= ratio <= 4.8 for ratio in ratios), (errors, ratios)
    assert errors[-1] < bound, errors


def test_dirichlet_pins_boundary():
    cfg = SolverConfig(
        p=P14, d=3, bc=DIRICHLET, grid=RadialGrid(r_max=8.0, n=256), T_end=1.0,
        data=InitialData(epsilon=0.5), history_snapshots=16,
    )
    rec = run(cfg)
    assert np.all(rec.history.u[:, :, 0] == 0.0)
    assert np.all(rec.history.u[:, :, -1] == 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_laplacian_is_exact_on_quadratics(d):
    """Centred differences and the ghost row are exact on quadratics:
    L r^2 = 2d at every node the scheme writes, (r - 1)^2 has Laplacian 2 at
    r = 1 under Neumann, and r^2 meets Robin(1, 2), d_r u = 2u at r = 1.
    Node 0 under Dirichlet and the outer node are left at 0."""
    grid = RadialGrid(r_max=11.0, n=1000)
    r = grid.r[None, :]
    dirichlet = solver._laplacian(r**2, grid, d, DIRICHLET)
    neumann = solver._laplacian((r - 1.0) ** 2, grid, d, NEUMANN)
    robin = solver._laplacian(r**2, grid, d, BoundaryCondition.robin(1.0, 2.0))
    for out in (dirichlet, robin):
        assert np.max(np.abs(out[:, 1:-1] - 2.0 * d)) < 1e-8
    assert abs(neumann[0, 0] - 2.0) < 1e-8
    assert abs(robin[0, 0] - 2.0 * d) < 1e-8
    assert dirichlet[0, 0] == 0.0
    assert dirichlet[0, -1] == neumann[0, -1] == robin[0, -1] == 0.0


def _psi_extended(r, d, bc):
    # analytic formula continued below r = 1
    return 1.0 - r ** (2.0 - d) + (bc.alpha / bc.beta) * (d - 2.0)


@pytest.mark.parametrize("d", [3, 4])
def test_robin_ghost_consistency(d):
    """The harmonic steady field satisfies the discrete flux relation to
    O(dr^2), and the ghost value itself is an O(dr^3) extrapolation."""
    bc = BoundaryCondition.robin(1, 1)
    slope = bc.beta / bc.alpha
    flux_resid, ghost_resid = [], []
    for dr in (1e-2, 5e-3):
        centered = (psi(1.0 + dr, d, bc) - _psi_extended(1.0 - dr, d, bc)) / (2 * dr)
        flux_resid.append(abs(centered - slope * psi(1.0, d, bc)))
        ghost = psi(1.0 + dr, d, bc) - 2.0 * dr * slope * psi(1.0, d, bc)
        ghost_resid.append(abs(ghost - _psi_extended(1.0 - dr, d, bc)))
    assert flux_resid[0] / flux_resid[1] == pytest.approx(4.0, rel=0.25)
    assert ghost_resid[0] / ghost_resid[1] == pytest.approx(8.0, rel=0.25)


def test_blow_up_and_epsilon_monotonicity():
    t_prev = 0.0
    for eps in (0.8, 0.4, 0.2):
        cfg = SolverConfig.with_auto_domain(
            p=P14, d=3, bc=DIRICHLET, n=1200, T_end=60.0,
            data=InitialData(epsilon=eps), history_snapshots=0,
        )
        rec = run(cfg)
        assert rec.verdict is Verdict.BLEW_UP and rec.t_blow is not None
        assert rec.t_blow > t_prev  # lifespan grows as epsilon shrinks
        t_prev = rec.t_blow
        assert rec.t_blow <= rec.t_final
        # crossing times of increasing thresholds are ordered
        marks = sorted(rec.threshold_crossings)
        times = [rec.threshold_crossings[m] for m in marks]
        assert times == sorted(times)
        sens = rec.threshold_sensitivity
        assert sens is not None and 0 <= sens < 0.03 * rec.t_blow


def test_d3_robin_lifespans_collapse_across_q():
    """Robin (q, 1) sits between Neumann and Dirichlet at every epsilon,
    ordered by q, and W = q pos / (1 - pos), with pos = log(T_R/T_N) /
    log(T_D/T_N) its place between them on a log scale, hardly depends on q
    (the Robin weight is Psi_D + q (d - 2) in d = 3).

    Shipped bump, d = 3, p = (1.4, 1.4), cfl 0.9, T_end 130, r_max 132.55,
    n = 2898 (dr = 0.0454).  Measured W spread max/min - 1 over q = 0.5, 2, 8:
    1.09%, 1.45% and 2.99% at epsilon = 0.8, 0.4, 0.2, each bound below 1.5
    times its measured spread.  W itself read 0.535 - 0.562 and is held to
    [0.52, 0.58]: a Robin ghost row with dr for 2 dr imposes q/2 and halves W.
    """
    eps, qs = (0.8, 0.4, 0.2), (8.0, 2.0, 0.5)
    bounds = (0.017, 0.022, 0.045)

    def lifespans(bc):
        base = SolverConfig.with_auto_domain(
            P14, 3, bc, 2898, 130.0, InitialData(center=1.3, width=0.25, epsilon=eps[0]),
            cfl=0.9, history_snapshots=0,
        )
        assert base.grid.r_max == pytest.approx(132.55)
        return np.array([rec.t_blow for rec in run_ladder(base, eps)])

    t_n, t_d = lifespans(NEUMANN), lifespans(DIRICHLET)
    t_r = [lifespans(BoundaryCondition.robin(q, 1.0)) for q in qs]
    assert np.all(np.diff(np.stack([t_n, *t_r, t_d]), axis=0) > 0.0)
    pos = np.log(np.stack(t_r) / t_n) / np.log(t_d / t_n)
    w = np.array(qs)[:, None] * pos / (1.0 - pos)
    assert np.all(w.max(axis=0) / w.min(axis=0) - 1.0 <= bounds)
    assert np.all((0.52 <= w) & (w <= 0.58))


def test_domain_of_dependence():
    data = InitialData(center=2.0, width=0.5, epsilon=0.3)
    T = 3.0
    recs = []
    for extra in (0.0, 4.0):
        n_per_unit = 100
        r_max = 1.0 + 1.5 + T + 0.5 + extra
        n = int(n_per_unit * (r_max - 1.0))
        cfg = SolverConfig(
            p=P14, d=3, bc=DIRICHLET, grid=RadialGrid(r_max=r_max, n=n),
            T_end=T, data=data, history_snapshots=64, cfl=0.5,
        )
        recs.append(run(cfg))
    # same dt (dr equal by construction): on the common r-range the fields
    # agree to round-off at every snapshot
    small, large = (rec.history for rec in recs)
    common = small.r.size
    assert np.array_equal(small.times, large.times)
    assert np.allclose(small.r, large.r[:common], rtol=0.0, atol=1e-12)
    assert np.max(np.abs(small.u - large.u[..., :common])) <= 1e-10
    assert recs[0].threshold_crossings == recs[1].threshold_crossings == {}
    assert recs[0].t_final == recs[1].t_final


def test_domain_warning_names_the_caller():
    """run() and run_ladder() point the domain-of-dependence warning at the
    line that called them."""
    cfg = SolverConfig(
        p=P14, d=3, bc=DIRICHLET, grid=RadialGrid(r_max=6.0, n=250), T_end=8.0,
        data=InitialData(center=2.0, width=0.5, epsilon=0.3), history_snapshots=0,
    )
    assert not cfg.domain_of_dependence_ok()
    for entry in (run, lambda c: run_ladder(c, (0.3, 0.2))):
        with pytest.warns(UserWarning, match="outer wall") as record:
            entry(cfg)
        assert len(record) == 1
        assert record[0].filename == __file__


def test_negative_wake_stays_small_sampled():
    """The wave operator is not order-preserving: nonnegative data develops a
    small negative wake (a genuine hyperbolic feature, not an instability).
    Sampled check: the undershoot stays a modest fraction of the data size
    while the positive part grows without bound."""
    eps = 0.5
    cfg = SolverConfig.with_auto_domain(
        p=P14, d=3, bc=DIRICHLET, n=800, T_end=30.0,
        data=InitialData(epsilon=eps), history_snapshots=64,
    )
    rec = run(cfg)
    assert rec.verdict is Verdict.BLEW_UP
    assert rec.history.u.min() >= -0.15 * eps
    assert rec.history.u.max() > 1e6


def _one_step_data_positivity(data, grid, d, bc):
    """The data integral int (u0 + u1) Psi dx that a one-step run records."""
    cfg = SolverConfig(
        p=P14, d=d, bc=bc, grid=grid, T_end=0.5 * grid.dr, data=data, history_snapshots=0
    )
    return run(cfg).data_positivity


def test_data_positivity_values():
    grid = RadialGrid(r_max=8.0, n=400)
    assert _one_step_data_positivity(InitialData(epsilon=0.5), grid, 3, NEUMANN) > 0.0
    # Dirichlet, bump in [2, 3], d = 2: Psi = log r > 0 on the support
    data = InitialData(center=2.5, width=0.5, epsilon=1.0)
    assert _one_step_data_positivity(data, grid, 2, DIRICHLET) > 0.0


def test_run_rejects_data_between_the_nodes():
    """A bump narrower than a cell that falls between two nodes is zero on
    the grid, so its data integral is 0.0 and run() refuses it."""
    grid = RadialGrid(r_max=41.0, n=16)
    data = InitialData(center=2.2, width=0.1, epsilon=0.5)
    assert not data.build(grid, 1)[0].any()
    cfg = SolverConfig(p=P14, d=3, bc=DIRICHLET, grid=grid, T_end=1.0, data=data)
    with pytest.raises(DataPositivityError, match=r"= 0\.000e\+00 must be positive"):
        run(cfg)


def _bisected_crossing_time(t0, g0, t1, g1, M):
    """The crossing as first written, by 60 bisections of the log-linear
    interpolant of the peak norm: the reference for the closed form."""
    if g0 <= 0.0:
        return t1
    a, b = math.log(max(g0, 1e-300)), math.log(g1)
    target = math.log(M)
    lo, hi = t0, t1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if a + (mid - t0) / (t1 - t0) * (b - a) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_crossing_time_matches_bisection():
    """The closed-form crossing agrees with the bisection it replaced, on
    random brackets and on the edges of the bracket.

    Each answer rounds t, and reads the interpolant in log space, where an
    ulp of the largest log is worth (t1 - t0) / (log g1 - log g0) of it in t.
    The tolerance is two of each.  Far from t = 0 the first term rules and
    the two agree to 2 ulp of t1; at t0 = 0 the second does (there the
    answers can be hundreds of ulp of t1 apart, and neither is the more exact).
    """
    rng = np.random.default_rng(0)
    brackets = []
    for M in SENSITIVITY_THRESHOLDS:
        for _ in range(1000):
            t0 = float(rng.uniform(0.0, 500.0))
            t1 = t0 + float(rng.uniform(1e-3, 0.1))
            g0 = M * 10.0 ** float(rng.uniform(-3.0, 0.0))
            g1 = M * 10.0 ** float(rng.uniform(1e-12, 3.0))
            brackets.append((t0, g0, t1, g1, M))
    M, t1 = 1e8, 41.8
    brackets += [
        (t1 - 0.04, 0.0, t1, 2 * M, M),  # g0 <= 0 gives t1
        (t1 - 0.04, -1.0, t1, 2 * M, M),
        (t1 - 0.04, M, t1, 2 * M, M),  # g0 >= M gives t0
        (t1 - 0.04, 3 * M, t1, 4 * M, M),
        (t1 - 0.04, 0.5 * M, t1, math.nextafter(M, math.inf), M),  # g1 one ulp above M
        (t1 - 0.04, 1e-310, t1, math.nextafter(M, math.inf), M),
        (0.0, 0.5 * M, 0.04, 2 * M, M),  # t0 = 0
        (0.0, 2 * M, 0.04, 4 * M, M),
    ]
    for t0, g0, t1, g1, M in brackets:
        new = _crossing_time(t0, g0, t1, g1, M)
        old = _bisected_crossing_time(t0, g0, t1, g1, M)
        a, b = math.log(max(g0, 1e-300)), math.log(g1)
        log_ulp_in_t = (t1 - t0) * math.ulp(max(abs(a), abs(b))) / (b - a)
        assert t0 <= new <= t1
        assert abs(new - old) <= 2 * (math.ulp(t1) + log_ulp_in_t), (t0, g0, t1, g1, M)
        if t0 >= 100.0:
            assert abs(new - old) <= 2 * math.ulp(t1), (t0, g0, t1, g1, M)
    assert _crossing_time(1.0, 0.0, 2.0, 2 * M, M) == 2.0
    assert _crossing_time(1.0, M, 2.0, 2 * M, M) == 1.0


def test_determinism():
    cfg = SolverConfig.with_auto_domain(
        p=P14, d=3, bc=DIRICHLET, n=600, T_end=20.0,
        data=InitialData(epsilon=0.6), history_snapshots=64,
    )
    a, b = run(cfg), run(cfg)
    assert a.t_blow is not None and a.t_blow == b.t_blow
    assert a.threshold_crossings == b.threshold_crossings
    assert a.t_final == b.t_final
    assert np.array_equal(a.history.times, b.history.times)
    assert np.array_equal(a.history.u, b.history.u)


# ---------------------------------------------------------------------------
# bit-identity gate: the light-cone stepper in run() against plain step() calls
# ---------------------------------------------------------------------------


def _step_loop(config):
    """run()'s bookkeeping around full-grid step() calls on fresh states.

    Besides what a record holds, it returns the step at which each threshold
    was crossed, the step at which the run ended and whether the
    displacement was finite on that step."""
    grid, bc = config.grid, config.bc
    u0, u1 = config.data.build(grid, config.p.k)
    state = apply_boundary(RadialState(t=0.0, u=u0, v=u1), bc)
    dt = config.dt
    n_steps = max(1, math.ceil(config.T_end / dt))
    stride = max(1, n_steps // config.history_snapshots) if config.history_snapshots else 0
    peak = float(np.max(np.abs(state.u)))
    hist_t, hist_u = [], []

    def snapshot(s):
        hist_t.append(s.t)
        hist_u.append(s.u.copy())

    if stride:
        snapshot(state)
    crossings, t_blow, nan_flag, grace_left = {}, None, False, -1
    crossing_steps = {}
    for istep in range(1, n_steps + 1):
        prev_peak = peak
        state = step(state, dt, config.p, config.d, bc, grid)
        if not state.is_finite():
            nan_flag = True
            if t_blow is None:
                t_blow = state.t
                crossings.setdefault(BLOWUP_THRESHOLD, state.t)
                crossing_steps.setdefault(BLOWUP_THRESHOLD, istep)
            break
        peak = float(np.max(np.abs(state.u)))
        for M in SENSITIVITY_THRESHOLDS:
            if M not in crossings and peak > M:
                crossings[M] = _crossing_time(state.t - dt, prev_peak, state.t, peak, M)
                crossing_steps[M] = istep
        if t_blow is None and BLOWUP_THRESHOLD in crossings:
            t_blow = crossings[BLOWUP_THRESHOLD]
            if stride:
                snapshot(state)
            grace_left = 200
        elif stride and t_blow is None and (istep % stride == 0 or istep == n_steps):
            snapshot(state)
        if grace_left >= 0:
            if SENSITIVITY_THRESHOLDS[-1] in crossings or grace_left == 0:
                break
            grace_left -= 1
    return {
        "verdict": Verdict.SURVIVED if t_blow is None else Verdict.BLEW_UP,
        "t_blow": t_blow,
        "t_final": state.t,
        "threshold_crossings": crossings,
        "nan_encountered": nan_flag,
        "history_t": np.array(hist_t) if stride else None,
        "history_u": np.array(hist_u) if stride else None,
        "crossing_steps": crossing_steps,
        "last_step": istep,
        "u_finite": bool(np.all(np.isfinite(state.u))),
    }


def _seed_forcing(u, p):
    return np.abs(np.roll(u, 1, axis=0)) ** np.array(p.p)[:, None]


def _seed_step(state, dt, p, d, bc, grid):
    """The one-step formulas as first written, whole-array numpy expressions."""
    dr, r, u = grid.dr, grid.r, state.u
    f = _seed_forcing(u, p)
    L = np.zeros_like(u)
    L[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dr**2 + (
        (d - 1.0) / r[1:-1]
    ) * (u[:, 2:] - u[:, :-2]) / (2.0 * dr)
    if bc.kind.value != "dirichlet":
        slope = bc.beta / bc.alpha
        L[:, 0] = (
            2.0 * (u[:, 1] - u[:, 0]) / dr**2
            - 2.0 * slope * u[:, 0] / dr
            + (d - 1.0) * slope * u[:, 0]
        )
    if state.u_prev is None:
        u_new = u + dt * state.v + 0.5 * dt**2 * (L + f - state.v)
        v_new = (u_new - u) / dt + 0.5 * dt * (L + f - state.v)
    else:
        a = 1.0 / dt**2 + 1.0 / (2.0 * dt)
        u_new = (
            (2.0 * u - state.u_prev) / dt**2 + state.u_prev / (2.0 * dt) + L + f
        ) / a
        v_new = (3.0 * u_new - 4.0 * u + state.u_prev) / (2.0 * dt)
    return apply_boundary(RadialState(t=state.t + dt, u=u_new, v=v_new, u_prev=u.copy()), bc)


def _five_term_weights(dt, dr, r, d):
    """(a, A, B, C, D, E) of the solver's five-term update, on the nodes r."""
    a = 1 / dt**2 + 1 / (2 * dt)
    A = (1 / dr**2 + (d - 1) / (2 * r * dr)) / a
    B = (1 / dr**2 - (d - 1) / (2 * r * dr)) / a
    C = (2 / dt**2 - 2 / dr**2) / a
    D = (1 / (2 * dt) - 1 / dt**2) / a
    return a, A, B, C, D, 1 / a


def _five_term_step(state, dt, p, d, bc, grid):
    """One step as the five-term update u+ = A u_{j+1} + B u_{j-1} + C u +
    D u- + E f, whole-array numpy; the Taylor start is h times it with the
    weight (dt - dt^2/2)/h on v in place of D u-, h = a dt^2/2."""
    dr, u = grid.dr, state.u
    f = _seed_forcing(u, p)
    a, A, B, C, D, E = _five_term_weights(dt, dr, grid.r, d)
    h = 0.5 * dt**2 * a
    back, w = (state.v, (dt - 0.5 * dt**2) / h) if state.u_prev is None else (state.u_prev, D)
    u_new = np.zeros_like(u)
    u_new[:, 1:-1] = (
        A[1:-1] * u[:, 2:] + B[1:-1] * u[:, :-2] + C * u[:, 1:-1]
        + w * back[:, 1:-1] + E * f[:, 1:-1]
    )
    if bc.kind.value != "dirichlet":  # the ghost u_{-1} = u_1 - 2 dr (beta/alpha) u_0
        ghost_u0 = C - 2 * dr * (bc.beta / bc.alpha) * B[0]
        u_new[:, 0] = (A[0] + B[0]) * u[:, 1] + ghost_u0 * u[:, 0] + w * back[:, 0] + E * f[:, 0]
    if state.u_prev is None:
        u_new = h * u_new
        v_new = (u_new - u) * (2 / dt) - state.v
    else:
        v_new = (3.0 * u_new - 4.0 * u + state.u_prev) / (2.0 * dt)
    return apply_boundary(RadialState(t=state.t + dt, u=u_new, v=v_new, u_prev=u.copy()), bc)


def _random_states(bc):
    """(p, state) on n = 2000 for p = (2, 1.4) and (1.5, 2, 1.2), each as a
    Taylor start and as a leapfrog level.  At k = 3 the cycle's direction
    shows: (l - 1) mod k and (l + 1) mod k differ, unlike at k = 2."""
    rng = np.random.default_rng(7)
    for p in (ExponentVector.of(2.0, 1.4), ExponentVector.of(1.5, 2.0, 1.2)):
        # magnitudes up to 1e8, so that |u|^p dominates the update's last bit
        shape = (3, p.k, 2001)
        u, v, u_prev = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 8, shape)
        for prev in (None, u_prev):
            yield p, apply_boundary(RadialState(t=0.5, u=u, v=v, u_prev=prev), bc)


BCS = [DIRICHLET, NEUMANN, BoundaryCondition.robin(1, 1)]


@pytest.mark.parametrize("bc", BCS)
def test_step_is_the_five_term_update(bc):
    """step() keeps the operation order of the five-term update and the
    contiguous pow layout of the first forcing, to the last bit."""
    grid = RadialGrid(r_max=41.0, n=2000)
    dt = 0.9 * grid.dr
    for p, state in _random_states(bc):
        got = step(state, dt, p, 3, bc, grid)
        want = _five_term_step(state, dt, p, 3, bc, grid)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.v, want.v)


@pytest.mark.parametrize("bc", BCS)
def test_step_bit_identical_to_seed_formulas(bc):
    """step() against the formulas as first written, to rounding.

    The five-term weights round apart from the first expressions, so the
    displacements agree per node to 8 ulps of S, the sum of the five terms'
    absolute values with each weight's parts taken apart: C u is counted as
    (2/dt^2 + 2/dr^2)/a |u|, because the first expressions round 2u/dt^2 and
    2u/dr^2 before they cancel (to 0.47/2.47 of the first at cfl 0.9).  The
    velocities are formed from the displacements, so they agree to three
    times that bound over dt plus 8 ulps of their own terms (also over dt).
    """
    grid = RadialGrid(r_max=41.0, n=2000)
    dt, dr, d = 0.9 * grid.dr, grid.dr, 3
    a, A, B, _, _, E = _five_term_weights(dt, dr, grid.r, d)
    h = 0.5 * dt**2 * a
    centre = (2 / dt**2 + 2 / dr**2) / a
    for p, state in _random_states(bc):
        got = step(state, dt, p, d, bc, grid)
        want = _seed_step(state, dt, p, d, bc, grid)
        u, f = state.u, _seed_forcing(state.u, p)
        if state.u_prev is None:
            back, w = state.v, (dt + 0.5 * dt**2) / h
        else:
            back, w = state.u_prev, (1 / (2 * dt) + 1 / dt**2) / a
        S = centre * abs(u) + w * abs(back) + E * abs(f)
        S[:, 1:-1] += abs(A[1:-1] * u[:, 2:]) + abs(B[1:-1] * u[:, :-2])
        if bc.kind.value != "dirichlet":
            ghost = 2 * dr * (bc.beta / bc.alpha) * B[0]
            S[:, 0] += (A[0] + B[0]) * abs(u[:, 1]) + abs(ghost * u[:, 0])
        if state.u_prev is None:
            S = h * S
            v_terms = 2 * abs(want.u) + 2 * abs(u) + dt * abs(state.v)
        else:
            v_terms = (3 * abs(want.u) + 4 * abs(u) + abs(state.u_prev)) / 2
        u_bound = 8 * np.spacing(S)
        assert np.all(abs(got.u - want.u) <= u_bound)
        assert np.all(abs(got.v - want.v) <= (3 * u_bound + 8 * np.spacing(v_terms)) / dt)


def _subcritical(eps):
    # configs/subcritical_d3.ini at one epsilon
    return SolverConfig.with_auto_domain(
        p=P14, d=3, bc=DIRICHLET, n=4000, T_end=180.0,
        data=InitialData(center=1.3, width=0.25, epsilon=eps), history_snapshots=256,
    )


def _robin(**kw):
    return SolverConfig.with_auto_domain(
        p=ExponentVector.of(1.4, 2.0), d=3, bc=BoundaryCondition.robin(1, 1), n=1500,
        T_end=60.0, data=InitialData(epsilon=0.5), **{"history_snapshots": 64, **kw},
    )


def _science(p, d, bc):
    """A setup the science items run: ROADMAP items 4, 11, 16 and 23."""
    return SolverConfig.with_auto_domain(
        p=ExponentVector.of(*p), d=d, bc=bc, n=800, T_end=40.0,
        data=InitialData(epsilon=0.8), history_snapshots=64,
    )


ROBIN_12 = BoundaryCondition.robin(1.0, 2.0)

GATE_CASES = {
    "subcritical-0.8": lambda: _subcritical(0.8),
    "subcritical-0.4": lambda: _subcritical(0.4),
    # configs/critical_d2_neumann.ini at eps = 0.75: p = 2 exercises the
    # layout-dependent last bit of numpy's pow
    "neumann-p2": lambda: SolverConfig.with_auto_domain(
        p=ExponentVector.of(2.0, 2.0), d=2, bc=NEUMANN, n=4000, T_end=60.0,
        data=InitialData(epsilon=0.75), history_snapshots=64,
    ),
    "robin": lambda: _robin(),
    "survived-horizon": lambda: replace(_robin(), T_end=5.0),
    # Robin, unequal exponents and a huge one: the peak jumps from below
    # 1e10 straight past overflow, so u itself goes non-finite (step 3)
    "overflow": lambda: SolverConfig.with_auto_domain(
        p=ExponentVector.of(2.0, 40.0), d=3, bc=BoundaryCondition.robin(1, 1), n=200,
        T_end=30.0, data=InitialData(epsilon=1.545634), history_snapshots=64,
    ),
    # the same jump with one exponent, at the rows of the overflow ladder
    "overflow-dirichlet": lambda: SolverConfig.with_auto_domain(
        p=ExponentVector.of(48.0), d=3, bc=DIRICHLET, n=200, T_end=30.0,
        data=InitialData(epsilon=1.607622), history_snapshots=64,
    ),
    # coarse grid: the peak jumps from below 1e10 to 1.47e308 (step 2), where
    # u is finite but the velocity overflows; a snapshot every step
    "velocity-overflow": lambda: SolverConfig(
        p=ExponentVector.of(60.0), d=3, bc=DIRICHLET, grid=RadialGrid(r_max=41.0, n=24),
        T_end=24.0, data=InitialData(center=10.0, width=6.0, epsilon=1.2154),
        history_snapshots=16,
    ),
    # run steps one row and copies it into three columns, history included
    "equal-k3": lambda: SolverConfig.with_auto_domain(
        p=ExponentVector.of(1.5, 1.5, 1.5), d=3, bc=DIRICHLET, n=600, T_end=40.0,
        data=InitialData(epsilon=0.5), history_snapshots=64,
    ),
    # three rows that drift apart: the gather follows the cycle's direction
    "unequal-k3": lambda: SolverConfig.with_auto_domain(
        p=ExponentVector.of(1.5, 2.0, 1.2), d=3, bc=DIRICHLET, n=600, T_end=40.0,
        data=InitialData(epsilon=0.5), history_snapshots=64,
    ),
    # coarse grid at cfl 0.5: the light-cone prefix reaches the outer edge at
    # a third of the horizon
    "edge": lambda: SolverConfig.with_auto_domain(
        p=ExponentVector.of(1.5, 2.0), d=3, bc=DIRICHLET, n=400, T_end=30.0,
        data=InitialData(epsilon=2.0), history_snapshots=32, cfl=0.5,
    ),
    # d = 1 Neumann at p = 1.05: the peak crosses 1e8 at t = 24.90 and never
    # reaches 1e10, so the run ends on its last grace step
    "grace-d1": lambda: SolverConfig.with_auto_domain(
        p=ExponentVector.of(1.05), d=1, bc=NEUMANN, n=2000, T_end=30.0,
        data=InitialData(epsilon=1.0), history_snapshots=64,
    ),
    # d = 1, 2 and 4 under Dirichlet and Robin at eps = 0.8: each blows up
    # and crosses 1e10
    "d1-dirichlet": lambda: _science((1.5, 1.5), 1, DIRICHLET),
    "d1-robin": lambda: _science((1.5, 2.0), 1, ROBIN_12),
    "d2-dirichlet": lambda: _science((1.4, 1.4), 2, DIRICHLET),
    "d2-robin": lambda: _science((2.0, 1.2), 2, ROBIN_12),
    "d4-dirichlet": lambda: _science((1.3, 1.3), 4, DIRICHLET),
}


def _at(case, eps):
    cfg = GATE_CASES[case]()
    return replace(cfg, data=replace(cfg.data, epsilon=eps))


@functools.lru_cache(maxsize=None)
def _reference(config):
    """``_step_loop`` of a config, computed once per test process."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _step_loop(config)


def _assert_matches_step_loop(rec, ref):
    """The record is its step loop's, every crossing and snapshot to the
    last bit; every gate run stores a history."""
    assert rec.verdict is ref["verdict"]
    assert rec.t_blow == ref["t_blow"]
    assert rec.t_final == ref["t_final"]
    assert rec.nan_encountered == ref["nan_encountered"]
    assert rec.threshold_crossings == ref["threshold_crossings"]
    assert ref["history_u"] is not None
    assert np.array_equal(rec.history.times, ref["history_t"])
    assert np.array_equal(rec.history.u, ref["history_u"])


@pytest.mark.parametrize("case", list(GATE_CASES))
def test_run_bit_identical_to_step_loop(case):
    cfg = GATE_CASES[case]()
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run(cfg)
    ref = _reference(cfg)
    _assert_matches_step_loop(rec, ref)
    if "overflow" in case:
        assert rec.nan_encountered and rec.verdict is Verdict.BLEW_UP
        # a non-finite state whose u is finite has a non-finite v
        assert ref["u_finite"] is (case == "velocity-overflow")
    if case == "survived-horizon":
        assert rec.verdict is Verdict.SURVIVED


@pytest.mark.parametrize("case", list(GATE_CASES))
def test_t_blow_is_the_blowup_crossing(case):
    """A run stores its blow-up time once, as the blow-up threshold's
    crossing; a non-finite step sets that crossing to its own time."""
    cfg = GATE_CASES[case]()
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run(cfg)
    assert rec.t_blow == rec.threshold_crossings.get(BLOWUP_THRESHOLD)


# ladders of a gate case: the epsilons of each are stepped in lockstep
LADDERS = {
    # rows leave the batch at different steps; 256-snapshot histories
    "subcritical": ("subcritical-0.8", (0.8, 0.4)),
    # p = 2, the layout-sensitive last bit of numpy's pow, on two rows
    "neumann-p2": ("neumann-p2", (0.75, 0.6)),
    # the first row blows up and leaves while the other two survive
    "robin-survived": ("survived-horizon", (3.0, 2.0, 0.5)),
    # both rows end on the overflow of u, at different steps
    "overflow": ("overflow-dirichlet", (1.607622, 0.938032)),
    # two blocks of three rows: the cyclic gather stays inside each block
    "unequal-k3": ("unequal-k3", (0.5, 0.35)),
    # the first block leaves in the middle of a prefix chunk, the second
    # crosses 1e6 on the first step of a chunk, the third survives on the
    # full grid (see test_ladder_rows_bit_identical_to_step_loop)
    "edge": ("edge", (2.0, 1.23, 0.5)),
    # both rows end on their last grace step, 85 steps apart
    "grace-d1": ("grace-d1", (1.0, 0.5)),
    # d = 2 Robin with unequal exponents
    "d2-robin": ("d2-robin", (0.8, 0.5)),
}


def _run_ladder_logging_the_prefix(monkeypatch, config, epsilons):
    """``run_ladder`` with each new prefix width m it steps on logged as
    (the first step on it, m), and the number of steps it took."""
    growth, steps = [], [0]
    prefix, advance = _Kernel.prefix, _Kernel.advance

    def logged_prefix(kernel, m, *arrays):
        if not growth or growth[-1][1] != m:
            growth.append((steps[0] + 1, m))
        return prefix(kernel, m, *arrays)

    def counted_advance(kernel, *args):
        steps[0] += 1
        return advance(kernel, *args)

    with monkeypatch.context() as patch:
        patch.setattr(_Kernel, "prefix", logged_prefix)
        patch.setattr(_Kernel, "advance", counted_advance)
        recs = run_ladder(config, epsilons)
    return recs, growth, steps[0]


@pytest.mark.parametrize("ladder", list(LADDERS))
def test_ladder_rows_bit_identical_to_step_loop(ladder, monkeypatch):
    case, epsilons = LADDERS[ladder]
    with np.errstate(over="ignore", invalid="ignore"):
        recs, growth, steps = _run_ladder_logging_the_prefix(
            monkeypatch, GATE_CASES[case](), epsilons
        )
    configs = [_at(case, e) for e in epsilons]
    assert [rec.config for rec in recs] == configs
    refs = [_reference(config) for config in configs]
    for rec, ref in zip(recs, refs):
        _assert_matches_step_loop(rec, ref)
    if ladder == "overflow":
        assert all(ref["nan_encountered"] and not ref["u_finite"] for ref in refs)
        assert refs[0]["last_step"] != refs[1]["last_step"]
    if ladder == "robin-survived":
        assert [rec.verdict for rec in recs] == [Verdict.BLEW_UP] + [Verdict.SURVIVED] * 2
    if ladder == "edge":
        chunk_starts = [s for s, _ in growth[1:]]
        edge = next(s for s, m in growth if m == configs[0].grid.n + 1)
        assert len(chunk_starts) > 2 and steps > edge
        first, second, third = refs
        assert first["last_step"] < edge and first["last_step"] not in chunk_starts
        assert set(second["crossing_steps"].values()) & set(chunk_starts)
        assert third["verdict"] is Verdict.SURVIVED


def test_a_run_between_1e8_and_1e10_ends_200_steps_after_its_crossing():
    """The grace is 200 steps, written here as a literal: the run and its
    step loop end 200 steps after the step that crossed 1e8, never having
    crossed 1e10."""
    cfg = GATE_CASES["grace-d1"]()
    rec, ref = run(cfg), _reference(cfg)
    assert set(ref["crossing_steps"]) == {1e6, BLOWUP_THRESHOLD}
    assert ref["last_step"] == ref["crossing_steps"][BLOWUP_THRESHOLD] + 200
    assert rec.t_final == ref["t_final"] and rec.t_final < cfg.T_end
    assert rec.t_blow == pytest.approx(24.90, abs=0.005)


@pytest.mark.parametrize(
    "case", [c for c in GATE_CASES if GATE_CASES[c]().bc.kind.value == "dirichlet"]
)
def test_dirichlet_history_keeps_positive_zero_on_the_pinned_nodes(case):
    """run pins nothing: the nodes r = 1 and r_max stay +0.0 because every
    input there is +0.0, so history.csv can never print -0."""
    cfg = GATE_CASES[case]()
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run(replace(cfg, history_snapshots=max(cfg.history_snapshots, 64)))
    for edge in (rec.history.u[..., 0], rec.history.u[..., -1]):
        assert np.all(edge == 0.0) and not np.any(np.signbit(edge))


def test_one_row_forcing_matches_each_row_of_two():
    """run steps one row when the exponents are equal, so at p = 2 the
    one-row forcing must give the bits of every row of the two-row one
    (numpy's ``**`` with a size-1 exponent squares, which differs in the last
    bit from the array pow)."""
    cfg = GATE_CASES["neumann-p2"]()
    u0, _ = cfg.data.build(cfg.grid, 2)

    def forcing(p, u):  # node-major in the kernel, back to (k, n+1) here
        kernel = _Kernel(cfg.dt, p, cfg.d, cfg.bc, cfg.grid)
        return _forcing(np.abs(u).T, kernel.sources, kernel.powers, kernel.forcing).T

    one = forcing(ExponentVector.of(2.0), u0[:1])
    two = forcing(cfg.p, u0)
    assert np.array_equal(one[0], two[0]) and np.array_equal(one[0], two[1])


@pytest.mark.parametrize("case", ["subcritical-0.8", "robin", "survived-horizon"])
def test_snapshots_never_perturb_the_trajectory(case):
    """Storing a history only copies levels out: sweeps rely on this when
    they run with history_snapshots = 0.  A run whose snapshot stride is
    twice as long stores a subset of the same levels, to the last bit."""
    cfg = replace(GATE_CASES[case](), history_snapshots=256)
    n_steps = math.ceil(cfg.T_end / cfg.dt)
    stride = max(1, n_steps // 256)
    count = next(c for c in range(256, 0, -1) if n_steps // c == 2 * stride)
    with_history = run(cfg)
    fewer = run(replace(cfg, history_snapshots=count))
    without = run(replace(cfg, history_snapshots=0))
    assert with_history.history is not None and without.history is None
    for rec in (fewer, without):
        assert rec.t_blow == with_history.t_blow
        assert rec.t_final == with_history.t_final
        assert rec.nan_encountered == with_history.nan_encountered
        assert rec.threshold_crossings == with_history.threshold_crossings
    many, few = with_history.history, fewer.history
    shared, at_many, at_few = np.intersect1d(many.times, few.times, return_indices=True)
    assert np.array_equal(shared, few.times) and many.times.size > few.times.size > 2
    assert np.array_equal(many.u[at_many], few.u[at_few])
