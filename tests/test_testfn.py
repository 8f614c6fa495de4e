import json
from pathlib import Path

import numpy as np
import pytest

from exwave import testfn
from exwave.exponents import BoundaryCondition, ExponentVector
from exwave.testfn import (
    CutoffProfile,
    ScaledCutoff,
    bridge,
    bridge_derivatives,
    cutoff_value,
    laplacian_psi_phi_R,
    cutoff_estimate_sup_ratios,
    phi_R_derivatives,
    phi_R_radial_derivative,
    psi,
    psi_identities,
    psi_prime,
)

BCS = [
    BoundaryCondition(0.0, 1.0),
    BoundaryCondition(1.0, 0.0),
    BoundaryCondition(1.0, 1.0),
    BoundaryCondition(2.0, 1.0),
]


# ---------------------------------------------------------------------------
# bridge and cutoffs
# ---------------------------------------------------------------------------

def test_bridge_endpoints_and_midpoint():
    assert bridge(-1.0) == 1.0
    assert bridge(0.0) == 1.0
    assert bridge(1.0) == 0.0
    assert bridge(2.0) == 0.0
    assert bridge(0.5) == pytest.approx(0.5, abs=1e-15)
    s = np.linspace(0.01, 0.99, 199)
    g = bridge(s)
    assert np.all(np.diff(g) <= 0.0)
    core = (s > 0.1) & (s < 0.9)  # the tails saturate to 1/0 in double precision
    assert np.all(np.diff(g[core]) < 0.0)


def test_bridge_is_the_value_of_bridge_derivatives():
    s = np.concatenate(
        [np.linspace(-0.5, 1.5, 200_001), [-0.0, 0.0, 1e-20, 0.5, 1.0 - 2**-53, 1.0]]
    )
    g = bridge(s)
    assert np.array_equal(g.view(np.uint64), bridge_derivatives(s)[0].view(np.uint64))
    for x in (0.0, 1.0, 0.3, -0.2, 0.999):
        assert bridge(x).tobytes() == bridge_derivatives(x)[0].tobytes()


def test_bridge_derivatives_match_finite_differences():
    s = np.linspace(0.05, 0.95, 19)
    h = 1e-5
    _, g1, g2 = bridge_derivatives(s)
    fd1 = (bridge(s + h) - bridge(s - h)) / (2 * h)
    fd2 = (bridge(s + h) - 2 * bridge(s) + bridge(s - h)) / h**2
    assert np.max(np.abs(g1 - fd1)) < 1e-7
    assert np.max(np.abs(g2 - fd2)) < 1e-4


def test_bridge_derivatives_vanish_for_tiny_positive_s():
    """-1/s overflows for subnormal s, and s**2, s**4 underflow far earlier:
    the derivatives stay exactly 0 there, without a floating-point warning."""
    g, g1, g2 = bridge_derivatives(np.array([5e-324, 1e-200, 1e-100]))
    assert g.tolist() == [1.0] * 3
    assert g1.tolist() == [0.0] * 3 and g2.tolist() == [0.0] * 3


def test_cutoff_piecewise_values():
    assert cutoff_value(0.3) == 1.0
    assert cutoff_value(0.75) == pytest.approx(0.5, abs=1e-15)
    assert cutoff_value(1.2) == 0.0
    assert cutoff_value(0.5) == 1.0
    with pytest.raises(ValueError):
        cutoff_value(-0.1)


def test_cutoff_sandwich():
    rho = np.linspace(0.0, 1.5, 700)
    lam = 3.0
    prof = CutoffProfile(lam=lam)
    cut = ScaledCutoff(R=2.0, profile=prof)
    t = np.zeros_like(rho)
    r = 1.0 + (rho * cut.R**4) ** 0.25  # maps rho back to a radius at t = 0
    plain = cut.phi_R(t, r)
    star = cut.phi_R(t, r, star=True)
    assert np.all(star >= 0.0) and np.all(plain <= 1.0) and np.all(star <= plain)
    on = rho >= 0.5 + 1e-9  # roundtripping r(rho) can land a hair below 1/2
    assert np.array_equal(star[on], plain[on])


def test_lambda_floor_rule():
    p = ExponentVector.of(1.4, 2.0)
    assert CutoffProfile.floor_for(p) == pytest.approx(5.0)
    prof = CutoffProfile(lam=CutoffProfile.floor_for(p))
    assert prof.admissible_for(p)
    assert not CutoffProfile(lam=1.0).admissible_for(p)
    # paper's equivalent statement of the rule: min(p) * lam/(lam+2) >= 1
    lam = prof.lam
    assert p.p_min * lam / (lam + 2.0) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# harmonic weight
# ---------------------------------------------------------------------------

def test_psi_values():
    assert psi(1.0, 2, BoundaryCondition.dirichlet()) == 0.0
    assert psi(2.0, 3, BoundaryCondition.dirichlet()) == pytest.approx(0.5)
    robin = BoundaryCondition.robin(1, 1)
    assert psi(1.0, 2, robin) == pytest.approx(1.0)
    assert psi_identities(1.0, 2, robin)[1] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        psi(0.5, 2, robin)


def test_psi_gradient_values():
    assert psi_prime(2.0, 2, BoundaryCondition.dirichlet()) == pytest.approx(0.5)
    assert psi_prime(3.0, 5, BoundaryCondition.dirichlet()) == pytest.approx(1.0 / 27.0)
    assert psi_prime(7.3, 4, BoundaryCondition.neumann()) == 0.0
    assert psi_prime(5.0, 1, BoundaryCondition.robin(1, 2)) == 1.0


def test_psi_derivatives_refuse_a_dimension_below_1():
    with pytest.raises(ValueError, match="d must be >= 1"):
        psi_prime(2.0, 0, BoundaryCondition.dirichlet())
    with pytest.raises(ValueError, match="d must be >= 1"):
        psi_identities(2.0, 0, BoundaryCondition.neumann())


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("bc", BCS)
def test_harmonicity_and_boundary_identity(d, bc):
    r = np.linspace(1.0, 100.0, 2001)
    lap, boundary = psi_identities(r, d, bc)
    assert np.max(np.abs(lap)) <= 1e-10
    assert abs(boundary) <= 1e-12
    assert np.all(np.asarray(psi(r, d, bc)) >= -1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_harmonicity_by_finite_differences(d):
    """Second-order FD Laplacian of Psi shrinks ~4x per halving of h."""
    bc = BoundaryCondition.robin(1, 1)
    r = np.linspace(1.5, 20.0, 101)
    resid = []
    for h in (1e-2, 5e-3):
        lap = (psi(r + h, d, bc) - 2 * psi(r, d, bc) + psi(r - h, d, bc)) / h**2 + (
            (d - 1) / r
        ) * (psi(r + h, d, bc) - psi(r - h, d, bc)) / (2 * h)
        resid.append(np.max(np.abs(lap)))
    if resid[0] > 1e-11:  # below that, rounding noise dominates
        assert resid[0] / resid[1] == pytest.approx(4.0, rel=0.2)


def test_paper_auxiliary_inequalities():
    r = np.linspace(1.0, 50.0, 5000)
    assert np.all(1.0 - 1.0 / r <= np.log(r) + 1e-15)
    for d in (3, 4, 5, 6):
        assert np.all(r ** (d - 1) + 1.0 >= 2.0 * r - 1e-12)


# ---------------------------------------------------------------------------
# scaled cutoff derivatives
# ---------------------------------------------------------------------------

def test_phi_R_flat_and_outside():
    vals = phi_R_derivatives(0.0, 1.0, 4.0, 2.0, 3)
    assert vals[0] == 1.0 and all(v == 0.0 for v in vals[1:])
    for r in (1.0, 3.0, 5.0):
        vals = phi_R_derivatives(4.0**2, r, 4.0, 2.0, 3)
        assert all(v == 0.0 for v in vals)
    # support containment: everything vanishes when t^2 + (r-1)^4 >= R^4
    t = np.linspace(0, 20.0, 41)
    r = 1.0 + np.linspace(0, 3.0, 31)
    T, Rr = np.meshgrid(t, r, indexing="ij")
    out = (T**2 + (Rr - 1) ** 4) >= 2.0**4
    vals = phi_R_derivatives(T, Rr, 2.0, 3.0, 2)
    for v in vals:
        assert np.all(v[out] == 0.0)


def _fd_time(t, r, R, lam, d, h=1e-4):
    f = lambda tt: phi_R_derivatives(tt, r, R, lam, d)[0]
    return (f(t + h) - f(t - h)) / (2 * h), (f(t + h) - 2 * f(t) + f(t - h)) / h**2


def test_phi_R_derivatives_match_finite_differences():
    R, lam, d = 4.0, 2.0, 3
    rng = np.random.default_rng(5)
    pts = 0
    for _ in range(200):
        t = rng.uniform(0.0, R**2)
        r = 1.0 + rng.uniform(0.0, R)
        rho = (t**2 + (r - 1) ** 4) / R**4
        if not 0.55 < rho < 0.95:  # sample the transition shell
            continue
        pts += 1
        phi, d_t, d_tt, lap, d_r = phi_R_derivatives(t, r, R, lam, d)
        fd1, fd2 = _fd_time(t, r, R, lam, d)
        assert d_t == pytest.approx(fd1, rel=1e-5, abs=1e-9)
        assert d_tt == pytest.approx(fd2, rel=1e-3, abs=1e-7)
        h = 1e-4
        g = lambda rr: phi_R_derivatives(t, rr, R, lam, d)[0]
        fdr = (g(r + h) - g(r - h)) / (2 * h)
        assert d_r == pytest.approx(fdr, rel=1e-5, abs=1e-9)
        fdrr = (g(r + h) - 2 * g(r) + g(r - h)) / h**2
        assert lap == pytest.approx(fdrr + (d - 1) / r * fdr, rel=1e-3, abs=1e-7)
    assert pts > 20


def test_laplacian_psi_phi_R_product_rule_fd():
    """Lap(Psi phi_R) against a finite-difference radial Laplacian."""
    R, lam, d = 4.0, 3.0, 3
    bc = BoundaryCondition.robin(1, 1)
    h = 1e-4
    for (t, r) in [(14.0, 1.8), (12.0, 2.4), (15.0, 1.5)]:  # transition shell
        f = lambda rr: psi(rr, d, bc) * phi_R_derivatives(t, rr, R, lam, d)[0]
        fd = (f(r + h) - 2 * f(r) + f(r - h)) / h**2 + ((d - 1) / r) * (
            f(r + h) - f(r - h)
        ) / (2 * h)
        exact = laplacian_psi_phi_R(t, r, R, lam, d, bc)
        assert exact == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_phi_R_radial_derivative_sign():
    # phi decreasing in rho and (r-1)^3 >= 0: d_r phi_R <= 0
    t = np.full(50, 3.0)
    r = 1.0 + np.linspace(0.0, 3.9, 50)
    dr = phi_R_radial_derivative(t, r, 4.0, 2.0)
    assert np.all(dr <= 0.0)


# ---------------------------------------------------------------------------
# sup ratios
# ---------------------------------------------------------------------------

def test_sup_ratio_ratios_uniform_in_R():
    bc = BoundaryCondition.dirichlet()
    a = cutoff_estimate_sup_ratios(4.0, 2.0, 3, bc, grid=(256, 256))
    b = cutoff_estimate_sup_ratios(16.0, 2.0, 3, bc, grid=(256, 256))
    assert a.ok and b.ok
    for x, y in zip(a.ratios, b.ratios):
        assert max(x, y) / min(x, y) < 2.0


def test_sup_ratio_ratios_lambda_sweep_finite():
    bc = BoundaryCondition.neumann()
    for lam in (2.0, 5.0, 10.0):
        res = cutoff_estimate_sup_ratios(4.0, lam, 2, bc, grid=(128, 128))
        assert res.ok and all(np.isfinite(res.ratios)) and res.ratios[0] > 0


def test_sup_ratio_neumann_iv_equals_iii():
    res = cutoff_estimate_sup_ratios(8.0, 2.0, 3, BoundaryCondition.neumann(), grid=(128, 128))
    assert res.ratios[3] == res.ratios[2]


def test_sup_ratio_mutation_grows():
    bc = BoundaryCondition.dirichlet()
    mut = dict(rhs_r_powers=(-3.0, -4.0, -2.0, -2.0), grid=(128, 128))
    r4 = cutoff_estimate_sup_ratios(4.0, 2.0, 3, bc, **mut).ratios[0]
    r32 = cutoff_estimate_sup_ratios(32.0, 2.0, 3, bc, **mut).ratios[0]
    assert r32 / r4 >= 2.0


def test_sup_ratio_rejects_small_R():
    with pytest.raises(ValueError):
        cutoff_estimate_sup_ratios(1.0, 2.0, 3, BoundaryCondition.dirichlet())


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"), 3.4e153])
def test_lambda_must_be_positive_and_finite(lam):
    """3.4e153 is the first of these where 16 (lam + 2)(lam + 1), a
    coefficient of the chain rule, overflows."""
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        CutoffProfile(lam)
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        testfn.sup_ratio_rows([4.0], [2.0, lam], [3], BCS[:1], (8, 8), (-2.0, -4.0, -2.0, -2.0))


def test_largest_lambda_below_the_overflow_gives_finite_bands():
    """Just below the refused 3.4e153 the batch forms every ratio."""
    (row,) = testfn.sup_ratio_rows(
        [4.0, 8.0], [3.3e153], [3], BCS[:1], (16, 16), (-2.0, -4.0, -2.0, -2.0)
    )
    assert np.all(np.isfinite(row.bands()))


@pytest.mark.parametrize("R", [0.0, -1.0, float("nan"), float("inf")])
def test_scaled_cutoff_R_must_be_positive_and_finite(R):
    with pytest.raises(ValueError, match="R must be positive and finite"):
        ScaledCutoff(R, CutoffProfile(2.0))


@pytest.mark.parametrize(
    "R, lam, d, match",
    [
        (float("nan"), 2.0, 3, "R must be positive and finite"),
        (4.0, float("nan"), 3, "lambda must be positive and finite"),
        (4.0, 2.0, 0, "d must be >= 1"),
    ],
    ids=["R-nan", "lam-nan", "d-0"],
)
def test_phi_R_derivatives_refuse_what_the_cutoff_and_psi_refuse(R, lam, d, match):
    with pytest.raises(ValueError, match=match):
        phi_R_derivatives(0.5, 2.0, R, lam, d)


@pytest.mark.parametrize("R", [float("nan"), float("inf")])
def test_sup_ratio_rows_refuse_an_R_that_is_not_finite(R):
    with pytest.raises(ValueError, match="every R must be finite and >= 2"):
        testfn.sup_ratio_rows([4.0, R], [2.0], [3], BCS[:1], (8, 8), (-2.0, -4.0, -2.0, -2.0))


def _unscaled_sweep(R, lam, d, bc, grid, rhs_r_powers, rhs_phi_powers):
    """Reference: the sweep on the (t, r) mesh, one (lam, d, bc, R) at a time."""
    nt, nr = grid
    t = np.linspace(0.0, R**2, nt)
    r = 1.0 + np.linspace(0.0, R, nr)
    T, Rr = np.meshgrid(t, r, indexing="ij")
    rho = (T**2 + (Rr - 1.0) ** 4) / R**4
    inside = rho < 1.0
    T, Rr, rho = T[inside], Rr[inside], rho[inside]
    _, d_t, d_tt, lap, _ = phi_R_derivatives(T, Rr, R, lam, d)
    lhs = [d_t, d_tt, lap, laplacian_psi_phi_R(T, Rr, R, lam, d, bc)]
    star = np.where(rho < 0.5, 0.0, cutoff_value(rho))
    ratios, violations = [], []
    with np.errstate(under="ignore"):
        for i, (label, left, a, q) in enumerate(
            zip(testfn.ESTIMATE_LABELS, lhs, rhs_r_powers, rhs_phi_powers)
        ):
            left = np.abs(left)
            right = R**a * star ** ((lam + 2.0) * q) * (psi(Rr, d, bc) if i == 3 else 1.0)
            usable = right >= testfn.RHS_FLOOR
            bad = ~usable & (left >= testfn.LHS_FLOOR)
            if np.any(bad):
                j = int(np.argmax(bad))
                violations.append(
                    f"estimate ({label}): left side {left[bad].max():.3e} "
                    f"over vanishing right side at (t, r) = ({T[j]:.4g}, {Rr[j]:.4g})"
                )
            ratios.append(float(np.max(left[usable] / right[usable], initial=0.0)))
    return ratios, int(T.size), violations


CLAIMED = testfn.DEFAULT_RHS_R_POWERS


@pytest.mark.parametrize(
    "R, lam, d, bc, grid, r_powers, phi_powers, rel",
    [
        (4.0, 2.0, 3, BCS[2], (64, 48), CLAIMED, None, 1e-12),
        (6.0, 5.0, 2, BCS[0], (97, 61), CLAIMED, None, 1e-12),
        (32.0, 5.0, 3, BCS[0], (128, 128), (-3.0, -4.0, -2.0, -2.0), None, 1e-12),
        (32.0, 3.0, 4, BCS[3], (256, 200), CLAIMED, (40.0, 1.0, 60.0, 80.0), 1e-12),
        # phi*^x with x up to 400: near the rim rho -> 1 the rounding of rho
        # is amplified by about x / (1 - rho)^2, so the two meshes differ more
        (4.0, 3.0, 3, BCS[2], (128, 128), CLAIMED, (80.0,) * 4, 1e-10),
        # Neumann, Psi = 1: (iv) is (iii), violations included, unless the
        # right sides of (iii) and (iv) differ
        (4.0, 3.0, 3, BCS[1], (128, 128), CLAIMED, (200.0,) * 4, 1e-10),
        (6.0, 3.0, 2, BCS[1], (97, 61), CLAIMED, (40.0, 1.0, 60.0, 80.0), 1e-12),
    ],
)
def test_sup_ratio_batch_matches_the_unscaled_sweep(R, lam, d, bc, grid, r_powers, phi_powers, rel):
    res = cutoff_estimate_sup_ratios(R, lam, d, bc, grid, r_powers, phi_powers)
    if phi_powers is None:
        phi_powers = ((lam + 1.0) / (lam + 2.0),) + (lam / (lam + 2.0),) * 3
    ratios, n_samples, violations = _unscaled_sweep(R, lam, d, bc, grid, r_powers, phi_powers)
    assert res.ratios == pytest.approx(ratios, rel=rel, abs=0.0)
    assert res.n_samples == n_samples
    assert list(res.violations) == violations
    assert bool(violations) == (phi_powers[0] >= 40.0)


def test_sup_ratio_batch_evaluates_the_bridge_once(monkeypatch):
    """One verify_cutoff_estimates call on a fresh memo evaluates the bridge
    derivatives on one sweep's shell samples 1/2 < rho < 1 in total, shared
    by every (lam, d, bc, R), and never re-runs the bridge for phi*; a second
    call on the same grid evaluates none; n_samples still counts every
    sample with rho < 1."""
    from exwave.harness import verify_cutoff_estimates

    testfn._shell_blocks.cache_clear()
    sizes = []
    calls = {"bridge": 0, "cutoff_value": 0}
    bridge_derivatives_ = testfn.bridge_derivatives

    def counted_derivatives(s):
        sizes.append(np.size(s))
        return bridge_derivatives_(s)

    monkeypatch.setattr(testfn, "bridge_derivatives", counted_derivatives)
    for name in calls:
        def counted(*args, _f=getattr(testfn, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(testfn, name, counted)
    grid = (160, 48)
    rep = verify_cutoff_estimates([4.0, 8.0, 16.0], [5.0, 2.0], [2, 3], BCS[:3], grid=grid)
    rho = np.linspace(0.0, 1.0, grid[0])[:, None] ** 2 + np.linspace(0.0, 1.0, grid[1]) ** 4
    n_samples = {res.n_samples for row in rep.rows for res in row.by_R}
    assert len(rep.rows) == 2 * 2 * 3 and n_samples == {np.count_nonzero(rho < 1.0)}
    assert sum(sizes) == np.count_nonzero((rho > 0.5) & (rho < 1.0))
    assert len(sizes) > 1  # more than one block
    assert calls == {"bridge": 0, "cutoff_value": 0}
    n_calls = len(sizes)
    verify_cutoff_estimates([4.0], [5.0], [3], BCS[:1], grid=grid)
    assert len(sizes) == n_calls


@pytest.mark.parametrize("grid", [(512, 512), (256, 256), (128, 128), (64, 64)])
def test_sup_ratio_samples_are_the_unscaled_grid(grid):
    """The scaled mesh tau^2 + sigma^4 < 1 keeps exactly the samples of the
    t, r mesh with t^2 + (r-1)^4 < R^4, for R = 2, ..., 32."""
    nt, nr = grid
    n = cutoff_estimate_sup_ratios(2.0, 2.0, 3, BCS[0], grid).n_samples
    for R in range(2, 33):
        t = np.linspace(0.0, R**2, nt)[:, None]
        r = 1.0 + np.linspace(0.0, R, nr)[None, :]
        assert np.count_nonzero((t**2 + (r - 1.0) ** 4) / R**4 < 1.0) == n


@pytest.mark.parametrize(
    "rhs_phi_powers", [None, (40.0, 1.0, 60.0, 80.0), (200.0, 200.0, 200.0, 200.0)]
)
def test_sup_ratio_blocks_do_not_change_the_result(monkeypatch, rhs_phi_powers):
    """Ratios, sample counts and violation strings are equal for blocks of
    1, 7 and all tau-rows; the large phi* powers make violations occur."""
    from exwave.harness import verify_cutoff_estimates

    grid = (61, 45)

    def run():
        rep = verify_cutoff_estimates([4.0, 11.3], [5.0, 2.0], [2, 3], BCS[:3], grid=grid)
        sweeps = [res for row in rep.rows for res in row.by_R] + [
            cutoff_estimate_sup_ratios(
                R, 3.0, 4, BCS[3], grid, (-2.0, -4.0, -2.0, -2.0), rhs_phi_powers
            )
            for R in (4.0, 32.0)
        ]
        return [(res.ratios, res.n_samples, res.violations) for res in sweeps]

    results = []
    for rows in (1, 7, grid[0]):
        monkeypatch.setattr(testfn, "SUP_RATIO_BLOCK_ROWS", rows)
        results.append(run())
    assert results[0] == results[1] == results[2]
    if rhs_phi_powers is not None:
        assert all(violations for *_, violations in results[0][-2:])
    if rhs_phi_powers == (200.0,) * 4:
        text = "\n".join(v for *_, violations in results[0] for v in violations)
        assert "estimate (iv)" in text and "(iiii)" not in text


def _memo_sweeps(grid, cold):
    """(ratios, n_samples, violations) of a batch and two single sweeps on
    ``grid``, with the shell memo cleared before every call when ``cold``."""
    from exwave.harness import verify_cutoff_estimates

    def batch():
        rep = verify_cutoff_estimates([4.0, 11.3], [5.0, 2.0], [2, 3], BCS[:3], grid=grid)
        return [res for row in rep.rows for res in row.by_R]

    mutation = (-3.0, -4.0, -2.0, -2.0)
    calls = [
        batch,
        lambda: [cutoff_estimate_sup_ratios(32.0, 5.0, 3, BCS[0], grid, mutation)],
        lambda: [cutoff_estimate_sup_ratios(4.0, 3.0, 3, BCS[2], grid, CLAIMED, (200.0,) * 4)],
    ]
    out = []
    for call in calls:
        if cold:
            testfn._shell_blocks.cache_clear()
        out += [(res.ratios, res.n_samples, res.violations) for res in call()]
        assert testfn._shell_blocks.cache_info().currsize <= 1
    return out


def test_shell_memo_gives_the_cold_results():
    """The shell samples and bridge derivatives are formed once per grid and
    block rows; a warm memo, visited in an interleaved order of grids, gives
    the very ratios, sample counts and violation strings of a fresh one."""
    order = [(64, 64), (97, 33), (128, 128), (64, 64), (128, 128), (97, 33)]
    cold = {grid: _memo_sweeps(grid, cold=True) for grid in order}
    for grid in order:
        assert _memo_sweeps(grid, cold=False) == cold[grid]
    assert any(violations for *_, violations in cold[(97, 33)])


def test_shell_memo_is_read_only_and_holds_one_grid():
    cutoff_estimate_sup_ratios(4.0, 2.0, 3, BCS[0], grid=(97, 33))
    n_samples, blocks = testfn._shell_blocks(97, 33, testfn.SUP_RATIO_BLOCK_ROWS)
    assert testfn._shell_blocks.cache_info().currsize == 1
    assert n_samples == cutoff_estimate_sup_ratios(4.0, 2.0, 3, BCS[0], (97, 33)).n_samples
    for block in blocks:
        for a in block:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
    cutoff_estimate_sup_ratios(4.0, 2.0, 3, BCS[0], grid=(64, 64))
    assert testfn._shell_blocks.cache_info().currsize == 1


def test_sup_ratios_match_the_benchmark_reference():
    """Seed 0 of perfbench's lemma_batch is the acceptance-04 batch: rows in
    the order lam (5, 2) x d (2, 3) x (Dirichlet, Neumann, Robin(1, 1)), each
    over R = 4, 8, 16, 32 at 512^2, then the R^-3 mutation at R = 4 and 32."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference_seed0.json"
    ratios = json.loads(reference.read_text())["lemma_batch"]["ratios"]
    assert len(ratios) == 2 * 2 * 3 * 4 + 2
    lam5, lam2, grid = 2.0 / (1.4 - 1.0), 2.0 / (2.0 - 1.0), (512, 512)
    robin_row = 4 * ((1 * 2 + 1) * 3 + 2)  # lam 2, d 3, Robin
    sweeps = [
        cutoff_estimate_sup_ratios(R, lam2, 3, BoundaryCondition.robin(1.0, 1.0), grid)
        for R in (4.0, 8.0, 16.0, 32.0)
    ] + [
        cutoff_estimate_sup_ratios(
            R, lam5, 3, BoundaryCondition.dirichlet(), grid, (-3.0, -4.0, -2.0, -2.0)
        )
        for R in (4.0, 32.0)
    ]
    expected = ratios[robin_row:robin_row + 4] + ratios[-2:]
    for res, ref in zip(sweeps, expected, strict=True):
        assert res.ratios == pytest.approx(ref, rel=1e-12, abs=0.0)
