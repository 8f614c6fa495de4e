import math

import numpy as np
import pytest

from exwave import quadrature, testfn
from exwave.exponents import BoundaryCondition, ExponentVector
from exwave.quadrature import (
    InsufficientCoverageError,
    chain_check,
    functional_IR,
    measure_QRstar_psi,
    radial_integral,
    sphere_area,
    theta,
)
from exwave.solver import SolutionHistory
from exwave.testfn import CutoffProfile, HarmonicWeight, ScaledCutoff


def _const_history(value, k=1, r_max=4.0, t_max=4.0, nr=401, nt=161):
    r = np.linspace(1.0, r_max, nr)
    times = np.linspace(0.0, t_max, nt)
    u = np.full((nt, k, nr), float(value))
    return SolutionHistory(times=times, r=r, u=u, horizon=t_max)


def test_sphere_areas():
    assert sphere_area(1) == 2.0
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)


def test_radial_measure_against_closed_form():
    # int_1^2 r^2 dr * 4pi = 4pi * 7/3
    r = np.linspace(1.0, 2.0, 20001)
    val = radial_integral(r, np.ones_like(r), 3)
    assert val == pytest.approx(4 * math.pi * 7 / 3, rel=1e-8)


def test_theta_branch_table():
    dirichlet = BoundaryCondition.dirichlet()
    neumann = BoundaryCondition.neumann()
    assert theta(math.e, 2, dirichlet, 2.0) == pytest.approx(1.0)
    assert theta(4.0, 3, dirichlet, 2.0) == pytest.approx(2.0)
    assert theta(8.0, 1, neumann, 3.0) == pytest.approx(1.0)
    # beta = 0 has no log factor in d = 2
    assert theta(9.0, 2, neumann, 3.0) == pytest.approx(9.0 ** (2 - 4 / 3))
    assert theta(9.0, 1, dirichlet, 2.0) == pytest.approx(81.0 ** (1 - 2 / 2) * 9 ** 0)
    with pytest.raises(ValueError):
        theta(1.0, 2, dirichlet, 2.0)
    with pytest.raises(ValueError):
        theta(4.0, 2, dirichlet, 1.0)


def test_measure_shell_against_grid_oracle():
    """Gauss-Legendre result vs a brute-force 2D grid sum (Neumann, Psi = 1)."""
    R, d = 4.0, 2
    bc = BoundaryCondition.neumann()
    val = measure_QRstar_psi(R, d, bc, T_horizon=R**2)
    t = np.linspace(0.0, R**2, 1500)
    r = np.linspace(1.0, 1.0 + R, 1500)
    T, Rr = np.meshgrid(t, r, indexing="ij")
    arg = T**2 + (Rr - 1) ** 4
    inside = (arg > R**4 / 2) & (arg < R**4)
    cell = (t[1] - t[0]) * (r[1] - r[0])
    oracle = np.sum(inside * sphere_area(d) * Rr ** (d - 1)) * cell
    assert val == pytest.approx(oracle, rel=5e-3)


@pytest.mark.parametrize(
    "d,bc",
    [
        (2, BoundaryCondition.dirichlet()),
        (3, BoundaryCondition.dirichlet()),
        (2, BoundaryCondition.neumann()),
        (1, BoundaryCondition.dirichlet()),
        (1, BoundaryCondition.neumann()),
    ],
)
def test_measure_growth_bands(d, bc):
    """Normalized shell measures stay in a narrow band over an R doubling."""
    if d == 1:
        rate = lambda R: R**4 if bc.beta != 0 else R**3
    elif d == 2 and bc.beta != 0:
        rate = lambda R: R**4 * math.log(R)
    else:
        rate = lambda R: R ** (d + 2)
    vals = [measure_QRstar_psi(R, d, bc, T_horizon=R**2) / rate(R) for R in (4.0, 8.0)]
    assert max(vals) / min(vals) < 2.0


def test_measure_validations():
    with pytest.raises(ValueError):
        measure_QRstar_psi(1.0, 2, BoundaryCondition.dirichlet(), T_horizon=100.0)
    with pytest.raises(ValueError):
        measure_QRstar_psi(4.0, 2, BoundaryCondition.dirichlet(), T_horizon=10.0)


@pytest.mark.parametrize(
    "R, T_horizon, match",
    [
        (math.nan, 100.0, "R must be finite"),
        (math.inf, math.inf, "R must be finite"),
        (4.0, math.nan, "T_horizon must be at least R"),
    ],
)
def test_measure_refuses_nan_and_infinite_input(R, T_horizon, match):
    with pytest.raises(ValueError, match=match):
        measure_QRstar_psi(R, 3, BoundaryCondition.dirichlet(), T_horizon)


def test_measure_refuses_a_nan_quadrature_result(monkeypatch):
    """A NaN Psi, or a Psi with a jump (48 and 96 nodes per panel give
    5.9715e3 and 5.9723e3), fails the convergence guard."""
    dirichlet = BoundaryCondition.dirichlet()
    monkeypatch.setattr(quadrature, "psi", lambda r, d, bc: np.full_like(r, math.nan))
    with pytest.raises(quadrature.QuadratureConvergenceError, match="nan"):
        measure_QRstar_psi(4.0, 3, dirichlet, 100.0)
    monkeypatch.setattr(quadrature, "psi", lambda r, d, bc: np.where(r < 3.3, 1.0, 2.0))
    with pytest.raises(quadrature.QuadratureConvergenceError, match="5.97.*5.97"):
        measure_QRstar_psi(4.0, 3, dirichlet, 100.0)


@pytest.mark.parametrize("alpha", [-2.0, -0.3])
def test_measure_refuses_alpha_beta_below_zero(alpha):
    """alpha*beta < 0 is refused for its own reason, as the solver refuses
    it: at alpha = -2 the integral is negative, and at -0.3 Psi changes sign
    on the shell while the rule still converges."""
    with pytest.raises(ValueError, match=r"alpha\*beta = .* < 0"):
        measure_QRstar_psi(4.0, 3, BoundaryCondition(alpha, 1.0), 16.0)


def test_measure_matches_adaptive_quadrature():
    """The Gauss-Legendre rule against scipy's adaptive quad of the radial
    integrand over d = 1..4, all three boundary conditions and R in 2..100."""
    from scipy.integrate import quad

    def reference(R, d, bc):
        def integrand(r):
            s4 = (r - 1.0) ** 4
            length = math.sqrt(R**4 - s4) - math.sqrt(max(R**4 / 2.0 - s4, 0.0))
            return length * testfn.psi(r, d, bc) * sphere_area(d) * r ** (d - 1)

        kink = 1.0 + R * 2.0 ** -0.25
        value, _ = quad(integrand, 1.0, 1.0 + R, points=[kink], limit=200, epsabs=0.0,
                        epsrel=1e-12)
        return value

    bcs = (BoundaryCondition.dirichlet(), BoundaryCondition.neumann(),
           BoundaryCondition.robin(1.0, 1.0))
    for d in (1, 2, 3, 4):
        for bc in bcs:
            for R in (2.0, 3.7, 8.0, 16.0, 32.0, 64.0, 100.0):
                value = measure_QRstar_psi(R, d, bc, T_horizon=R**2)
                assert value == pytest.approx(reference(R, d, bc), rel=1e-10), (R, d, bc)


def test_functional_zero_solution():
    hist = _const_history(0.0)
    w = HarmonicWeight(3, BoundaryCondition.neumann())
    cut = ScaledCutoff(R=1.5, profile=CutoffProfile(lam=2.0))
    val = functional_IR(hist, cut, w, 1, 2.0)
    assert val == 0.0


def test_functional_constant_against_dense_oracle():
    R, d, lam = 2.0, 3, 2.0
    bc = BoundaryCondition.neumann()
    hist = _const_history(1.0)
    w = HarmonicWeight(d, bc)
    cut = ScaledCutoff(R=R, profile=CutoffProfile(lam=lam))
    val = functional_IR(hist, cut, w, 1, 2.0)
    rd = np.linspace(1.0, 4.0, 4001)
    td = np.linspace(0.0, 4.0, 3201)
    dense = np.trapezoid(
        np.trapezoid(
            cut.phi_R(td[:, None], rd[None, :]) * sphere_area(d) * rd**2, rd, axis=1
        ),
        td,
    )
    assert val == pytest.approx(dense, rel=1e-4)


def test_functional_star_below_plain_and_monotone_in_R():
    hist = _const_history(1.0, r_max=5.0, t_max=9.0)
    w = HarmonicWeight(2, BoundaryCondition.dirichlet())
    prof = CutoffProfile(lam=3.0)
    prev = 0.0
    for R in (1.2, 1.6, 2.0):
        cut = ScaledCutoff(R=R, profile=prof)
        plain = functional_IR(hist, cut, w, 1, 2.0)
        star = functional_IR(hist, cut, w, 1, 2.0, star=True)
        assert 0.0 <= star <= plain
        assert plain >= prev  # Q_R nested and phi_R nondecreasing in R
        prev = plain


def test_functional_coverage_errors():
    w = HarmonicWeight(3, BoundaryCondition.neumann())
    cut = ScaledCutoff(R=2.0, profile=CutoffProfile(lam=2.0))
    clipped_r = _const_history(1.0, r_max=2.5)
    with pytest.raises(InsufficientCoverageError):
        functional_IR(clipped_r, cut, w, 1, 2.0)
    clipped_t = _const_history(1.0, t_max=2.0)
    clipped_t.horizon = 10.0  # run was meant to reach t = 10 but stopped at 2
    with pytest.raises(InsufficientCoverageError):
        functional_IR(clipped_t, cut, w, 1, 2.0)
    functional_IR(clipped_t, cut, w, 1, 2.0, allow_truncated=True)


def test_functional_grid_self_consistency():
    """Halving both steps: difference sequence contracts at second order."""
    R, d = 2.0, 3
    w = HarmonicWeight(d, BoundaryCondition.neumann())
    cut = ScaledCutoff(R=R, profile=CutoffProfile(lam=2.0))

    def value(nr, nt):
        r = np.linspace(1.0, 4.0, nr)
        times = np.linspace(0.0, 4.0, nt)
        u = (np.exp(-times)[:, None] * np.exp(-((r - 2.0) ** 2)))[:, None, :]
        hist = SolutionHistory(times=times, r=r, u=u, horizon=4.0)
        return functional_IR(hist, cut, w, 1, 2.0)

    v1, v2, v3 = value(101, 81), value(201, 161), value(401, 321)
    err12 = abs(v1 - v2)
    err23 = abs(v2 - v3)
    assert err12 <= 4.0 * 4.0 * err23  # ratio ~4 expected; slack factor 4


def _smooth_history(r_end, t_end, dr=2.0**-7, dt=2.0**-4, k=2):
    r = 1.0 + dr * np.arange(round((r_end - 1.0) / dr) + 1)
    times = dt * np.arange(round(t_end / dt) + 1)
    u = np.stack([
        (1.0 + times[:, None]) * np.exp(-((r - 2.0) ** 2)),
        np.cos(3.0 * r) * np.exp(-times[:, None] / 4.0),
        np.sin(2.0 * r) / (1.0 + times[:, None]),
    ][:k], axis=1)
    return SolutionHistory(times=times, r=r, u=u, horizon=times[-1])


def _full_grid_functional(hist, ell, p_next, weight, cutoff, star):
    """trapezoid(trapezoid(|u|^p phi_R w_r)) over every snapshot and node."""
    r, times = hist.r, hist.times
    w_r = weight.value(r) * sphere_area(weight.d) * r ** (weight.d - 1)
    cut = cutoff.phi_R(times[:, None], r[None, :], star=star)
    integrand = np.abs(hist.u[:, ell - 1, :]) ** p_next * cut * w_r[None, :]
    return np.trapezoid(np.trapezoid(integrand, r, axis=1), times)


@pytest.mark.parametrize("steps", [(2.0**-7, 2.0**-4), (0.25, 0.5)], ids=["fine", "coarse"])
@pytest.mark.parametrize(
    "R, r_end, t_end",
    [
        (2.0, 5.0, 9.0),      # 1 + R on a node, R^2 on a snapshot
        (2.1, 5.0, 9.0),      # 1 + R between nodes, R^2 between snapshots
        (2.0, 5.0, 3.0),      # R^2 past the last snapshot
        (2.0, 3.0, 9.0),      # the grid ends exactly at 1 + R
    ],
)
@pytest.mark.parametrize("star", [False, True], ids=["I_R", "I_R_star"])
def test_functional_on_the_support_matches_the_full_grid(R, r_end, t_end, star, steps):
    """functional_IR integrates only over the support of phi_R, up to the first
    snapshot at t >= R^2 and the first node at r >= 1 + R; the samples it
    leaves out have weight 0.0.  A non-finite u beyond those end lines turns
    the full-grid sum into NaN but does not enter the functional.  On the
    coarse grid the last node and snapshot inside the support carry weight,
    so dropping either end line would show."""
    hist = _smooth_history(r_end, t_end, *steps)
    w = HarmonicWeight(3, BoundaryCondition.robin(1.0, 1.0))
    cut = ScaledCutoff(R=R, profile=CutoffProfile(lam=3.0))
    for ell in (1, 2):
        val = functional_IR(hist, cut, w, ell, 1.7, star=star, allow_truncated=True)
        full = _full_grid_functional(hist, ell, 1.7, w, cut, star)
        assert val > 0.0
        assert val == pytest.approx(full, rel=1e-12, abs=0.0)

        m = np.searchsorted(hist.times, R**2) + 1
        n = np.searchsorted(hist.r, 1.0 + R) + 1
        hist.u[m:, ell - 1, :] = np.nan
        hist.u[:, ell - 1, n:] = np.inf
        if m < hist.times.size or n < hist.r.size:
            with np.errstate(invalid="ignore"):  # inf * 0.0
                assert np.isnan(_full_grid_functional(hist, ell, 1.7, w, cut, star))
        again = functional_IR(hist, cut, w, ell, 1.7, star=star, allow_truncated=True)
        assert again == val


# p, C0 and, per ell: (component of I_R, its power, component of I*_R, its power)
@pytest.mark.parametrize("R", [2.0, 2.1])
def test_chain_links_pair_each_component_with_its_power(R):
    """Link ell is I_R[|u_(ell-1)|^p_ell] + C0_ell eps on the left and
    Theta_p(ell+1)(R) (I*_R[|u_ell|^p_(ell+1)])^(1/p_(ell+1)) on the right,
    indices cyclic.  The components differ and so do the exponents, so a
    link that pairs the wrong component or power shows; with k = 3 the
    predecessor and the successor differ, so a reversed cycle shows too.
    Each side is also bit for bit the one built from separate functional_IR
    calls."""
    d, bc, eps = 3, BoundaryCondition.robin(1.0, 1.0), 0.1
    w = HarmonicWeight(d, bc)
    # p, C0 and, per ell: (component of I_R, its power, component of I*_R, its power)
    cases = [
        ((1.5, 2.5), [0.7, 1.3], {1: (2, 1.5, 1, 2.5), 2: (1, 2.5, 2, 1.5)}),
        (
            (1.5, 2.5, 1.2),
            [0.7, 1.3, 0.9],
            {1: (3, 1.5, 1, 2.5), 2: (1, 2.5, 2, 1.2), 3: (2, 1.2, 3, 1.5)},
        ),
    ]
    for p, C0, pairing in cases:
        hist = _smooth_history(5.0, 9.0, 0.25, 0.5, k=len(p))
        p = ExponentVector(p)
        rep = chain_check(hist, p, d, bc, [R], epsilon=eps, C0=C0)
        cut = ScaledCutoff(R=R, profile=CutoffProfile(lam=CutoffProfile.floor_for(p)))
        (row,) = rep.rows
        assert [link.ell for link in row.links] == list(pairing)
        for link in row.links:
            prev, p_ell, comp, p_next = pairing[link.ell]
            lhs = _full_grid_functional(hist, prev, p_ell, w, cut, False)
            lhs += C0[link.ell - 1] * eps
            star = _full_grid_functional(hist, comp, p_next, w, cut, True)
            rhs = theta(R, d, bc, p_next) * star ** (1.0 / p_next)
            assert link.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
            assert link.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
            i_prev = functional_IR(hist, cut, w, prev, p_ell, allow_truncated=True)
            i_star = functional_IR(hist, cut, w, comp, p_next, star=True, allow_truncated=True)
            assert link.lhs == i_prev + C0[link.ell - 1] * eps
            assert link.rhs == theta(R, d, bc, p_next) * i_star ** (1.0 / p_next)


@pytest.mark.parametrize(
    "p, nudge, reused",
    [((1.7, 1.7), False, True), ((1.7, 1.7), True, False), ((1.7, 2.4), False, False)],
    ids=["copied", "one-ulp", "other-power"],
)
def test_chain_check_reuses_the_integrals_of_an_equal_component_only(
    p, nudge, reused, monkeypatch
):
    """A component equal to an earlier one on the support window, with the
    same power, takes that one's I_R and I*_R instead of two more
    trapezoids; one ulp at one node in the shell, or another power, makes it
    a component of its own.  Either way every link is bit for bit the one
    built from separate functional_IR calls."""
    base = _smooth_history(5.0, 9.0, 0.25, 0.5, k=1)
    u = np.repeat(base.u, 2, axis=1)
    if nudge:  # t = 3, r = 2: rho = 0.625 at R = 2
        u[6, 1, 4] = np.nextafter(u[6, 1, 4], np.inf)
    hist = SolutionHistory(times=base.times, r=base.r, u=u, horizon=base.horizon)
    d, bc, eps, C0 = 3, BoundaryCondition.robin(1.0, 1.0), 0.1, [0.7, 1.3]
    w = HarmonicWeight(d, bc)
    R_values = [2.0, 2.1]
    calls = []
    trapezoid_ = quadrature._weighted_trapezoid

    def counted(*args):
        calls.append(1)
        return trapezoid_(*args)

    monkeypatch.setattr(quadrature, "_weighted_trapezoid", counted)
    exponents = ExponentVector(p)
    rep = chain_check(hist, exponents, d, bc, R_values, epsilon=eps, C0=C0)
    assert len(calls) == len(R_values) * 2 * (1 if reused else 2)
    profile = CutoffProfile(lam=CutoffProfile.floor_for(exponents))
    for R, row in zip(R_values, rep.rows):
        cut = ScaledCutoff(R=R, profile=profile)
        # link ell: I_R of u_(ell-1) with p_ell, I*_R of u_ell with p_(ell+1)
        for link, prev, p_ell, p_next in zip(row.links, (2, 1), p, p[::-1]):
            i_prev = functional_IR(hist, cut, w, prev, p_ell, allow_truncated=True)
            i_star = functional_IR(
                hist, cut, w, link.ell, p_next, star=True, allow_truncated=True
            )
            assert link.lhs == i_prev + C0[link.ell - 1] * eps
            assert link.rhs == theta(R, d, bc, p_next) * i_star ** (1.0 / p_next)


@pytest.mark.parametrize("p", [(1.5, 2.5), (1.5, 2.5, 1.2)], ids=["k2", "k3"])
def test_chain_check_evaluates_the_bridge_once_per_R(p, monkeypatch):
    """Per R, phi_R and phi*_R come from one bridge evaluation, shared by
    every link (2k functional_IR calls would evaluate it 2k times)."""
    calls = []
    bridge_ = testfn.bridge

    def counted(s):
        calls.append(np.shape(s))
        return bridge_(s)

    monkeypatch.setattr(testfn, "bridge", counted)
    hist = _smooth_history(5.0, 9.0, 0.25, 0.5, k=len(p))
    R_values = [2.0, 2.1, 3.0]
    chain_check(
        hist, ExponentVector(p), 3, BoundaryCondition.robin(1.0, 1.0), R_values,
        epsilon=0.1, C0=[1.0] * len(p),
    )
    assert len(calls) == len(R_values)


def test_chain_check_zero_solution():
    p = ExponentVector.of(2.0, 2.0)
    hist = _const_history(0.0, k=2, r_max=6.0, t_max=16.0, nr=301, nt=201)
    rep = chain_check(
        hist, p, 3, BoundaryCondition.neumann(), [2.0, 4.0], epsilon=0.1, C0=[1.0, 1.0]
    )
    for row in rep.rows:
        for link in row.links:
            assert link.lhs == pytest.approx(0.1)  # only the data term survives
            assert link.rhs == 0.0
        assert row.final_ratio == pytest.approx(0.1 * row.R ** (2 * rep.gamma_max - 3))


def test_chain_check_data_term_scales_with_epsilon():
    """On a short horizon the chain left sides are data-dominated: doubling
    epsilon doubles them to within the quadrature's nonlinear correction."""
    from exwave.solver import InitialData, SolverConfig, run

    p = ExponentVector.of(1.4, 1.4)
    bc = BoundaryCondition.dirichlet()
    vals = {}
    for eps in (0.02, 0.04):
        cfg = SolverConfig.with_auto_domain(
            p=p, d=3, bc=bc, n=400, T_end=4.0,
            data=InitialData(center=2.0, width=0.5, epsilon=eps),
            history_snapshots=128,
        )
        rec = run(cfg)
        c0 = rec.data_positivity / eps
        rep = chain_check(rec.history, p, 3, bc, [2.0], epsilon=eps, C0=[c0, c0])
        vals[eps] = rep.rows[0].links[0].lhs
    assert vals[0.04] / vals[0.02] == pytest.approx(2.0, rel=5e-2)


def test_chain_check_validates_c0_length():
    hist = _const_history(0.0, k=2, r_max=6.0, t_max=16.0, nr=101, nt=51)
    with pytest.raises(ValueError):
        chain_check(
            hist, ExponentVector.of(2, 2), 3, BoundaryCondition.neumann(),
            [2.0], epsilon=0.1, C0=[1.0],
        )


def test_chain_check_rejects_a_history_with_too_few_components():
    hist = _const_history(0.0, k=2, r_max=6.0, t_max=16.0, nr=101, nt=51)
    with pytest.raises(ValueError, match="history holds 2 components"):
        chain_check(
            hist, ExponentVector.of(2, 2, 2), 3, BoundaryCondition.neumann(),
            [2.0], epsilon=0.1, C0=[1.0] * 3,
        )
