"""Harmonic weights and scaled space-time cutoffs for the blow-up machinery.

Two ingredients:

* Psi(r): a radial harmonic function on the exterior of the unit ball that
  satisfies the prescribed boundary condition at r = 1 (the outward normal of
  the exterior domain points toward the origin, so the condition reads
  -alpha Psi'(1) + beta Psi(1) = 0).

* phi_R(t, x) = phi((t^2 + (|x|-1)^4) / R^4)^(lambda+2): a smooth cutoff
  supported on the region Q_R = {t^2 + (|x|-1)^4 < R^4}, together with its
  outer-shell companion phi*_R which vanishes where the scaled argument is
  below 1/2.

The profile phi is 1 on [0, 1/2], 0 on [1, inf) and bridges in between with
the standard C-infinity transition built from f(s) = exp(-1/s).  All
derivatives are available in closed form, so the sup-ratio bounds

    |d_t phi_R|    <= C R^-2 (phi*_R)^((lam+1)/(lam+2))
    |d_tt phi_R|   <= C R^-4 (phi*_R)^(lam/(lam+2))
    |Lap phi_R|    <= C R^-2 (phi*_R)^(lam/(lam+2))
    |Lap(Psi phi_R)| <= C R^-2 Psi (phi*_R)^(lam/(lam+2))

can be verified numerically on dense samples of Q_R (``cutoff_estimate_sup_ratios``).
phi_R depends on (t, r) only through tau = t/R^2 and sigma = (r-1)/R, so the
sweep runs on the scaled grid, whose samples are the same for every R: a batch
over (lam, d, bc, R) (``sup_ratio_rows``) evaluates the bridge once per sample
and returns one row per (lam, d, bc) holding the sweeps for every R.  With the
claimed powers of R, ratios (i) and (ii) do not depend on R; R enters (iii)
and (iv) only through (d-1)/r and Psi(r) at r = 1 + R sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .exponents import BoundaryCondition, ExponentVector

# Underflow bookkeeping for the sup-ratio sweeps: a sample counts as
# 0/0-consistent (and is skipped) when the right side underflows below
# RHS_FLOOR while the left side is below LHS_FLOOR.
RHS_FLOOR = 1e-300
LHS_FLOOR = 1e-12

# Roman labels of the four cutoff estimates, as the paper numbers them.
ESTIMATE_LABELS = ("i", "ii", "iii", "iv")


# ---------------------------------------------------------------------------
# smooth bridge
# ---------------------------------------------------------------------------

def bridge(s):
    """g(s) = f(1-s) / (f(s) + f(1-s)) with f(s) = exp(-1/s): 1 for s <= 0,
    0 for s >= 1, strictly decreasing in between, all derivatives vanishing
    at the endpoints."""
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    g = np.where(s <= 0.0, 1.0, 0.0)
    si = s[inside]
    with np.errstate(over="ignore"):  # -1/si overflows for subnormal si
        f0 = np.exp(-1.0 / si)
    f1 = np.exp(-1.0 / (1.0 - si))
    g[inside] = f1 / (f0 + f1)
    return g


def bridge_derivatives(s):
    """(g, g', g'') of the bridge, in closed form."""
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    g = np.where(s <= 0.0, 1.0, 0.0)
    g1 = np.zeros_like(s)
    g2 = np.zeros_like(s)
    if np.any(inside):
        si = s[inside]
        with np.errstate(over="ignore"):  # -1/si overflows for subnormal si
            f0 = np.exp(-1.0 / si)
        f1 = np.exp(-1.0 / (1.0 - si))
        live = f0 > 0.0  # f'(s), f''(s) are 0 elsewhere, even where si**2, si**4 underflow
        d0 = np.divide(f0, si**2, out=np.zeros_like(si), where=live)
        d1 = -f1 / (1.0 - si) ** 2             # d/ds f(1-s)
        dd0 = np.divide(f0 * (1.0 - 2.0 * si), si**4, out=np.zeros_like(si), where=live)
        dd1 = f1 * (2.0 * si - 1.0) / (1.0 - si) ** 4
        den = f0 + f1
        gi = f1 / den
        num1 = d1 * f0 - f1 * d0
        g1i = num1 / den**2
        g2i = ((dd1 * f0 - f1 * dd0) * den - 2.0 * num1 * (d0 + d1)) / den**3
        g[inside] = gi
        g1[inside] = g1i
        g2[inside] = g2i
    return g, g1, g2


# ---------------------------------------------------------------------------
# cutoff profiles phi, phi*
# ---------------------------------------------------------------------------

def cutoff_value(rho, star: bool = False):
    """phi(rho) (or phi*(rho) when ``star``).

    phi = 1 on [0, 1/2], bridges smoothly down on (1/2, 1), 0 on [1, inf).
    phi* = 0 on [0, 1/2) and coincides with phi from 1/2 on.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    val = bridge(2.0 * rho - 1.0)
    if star:
        val = np.where(rho < 0.5, 0.0, val)
    if val.ndim == 0:
        return float(val)
    return val


def cutoff_profile_derivatives(rho):
    """(phi, phi', phi'') with respect to rho; phi' = 2 g'(2 rho - 1)."""
    rho = np.asarray(rho, dtype=float)
    g, g1, g2 = bridge_derivatives(2.0 * rho - 1.0)
    return g, 2.0 * g1, 4.0 * g2


@dataclass(frozen=True)
class CutoffProfile:
    """Bridge profile together with the smoothing exponent lambda.

    The admissibility rule ties lambda to the system exponents:
    lambda >= 2 / (min(p) - 1), i.e. min(p) * lambda / (lambda + 2) >= 1.
    """

    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")

    @staticmethod
    def floor_for(p: ExponentVector) -> float:
        return 2.0 / (p.p_min - 1.0)

    def admissible_for(self, p: ExponentVector) -> bool:
        return self.lam >= self.floor_for(p) - 1e-12


def _scaled_argument(t, r, R: float):
    """rho = (t^2 + (r-1)^4) / R^4, the argument of phi in phi_R."""
    return (t**2 + (r - 1.0) ** 4) / R**4


@dataclass(frozen=True)
class ScaledCutoff:
    """phi_R and phi*_R at scale R > 0 (space-time argument t^2 + (r-1)^4)."""

    R: float
    profile: CutoffProfile

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")

    def rho(self, t, r):
        t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
        return _scaled_argument(t, r, self.R)

    def phi_R(self, t, r, star: bool = False):
        val = cutoff_value(self.rho(t, r), star=star) ** (self.profile.lam + 2.0)
        return val


def psi(r, d: int, bc: BoundaryCondition):
    """Harmonic weight Psi on r >= 1.

    beta != 0:  d=1: r - 1 + alpha/beta
                d=2: log r + alpha/beta
                d>=3: 1 - r^(2-d) + (alpha/beta)(d-2)
    beta == 0:  Psi = 1 for every d.
    Nonnegative on r >= 1 whenever alpha*beta >= 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise ValueError("Psi is defined on r >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if bc.beta == 0.0:
        out = np.ones_like(r)
    else:
        q = bc.alpha / bc.beta
        if d == 1:
            out = r - 1.0 + q
        elif d == 2:
            out = np.log(r) + q
        else:
            out = 1.0 - r ** (2.0 - d) + q * (d - 2.0)
    if out.ndim == 0:
        return float(out)
    return out


def psi_prime(r, d: int, bc: BoundaryCondition):
    """Radial derivative Psi'(r); positive for beta != 0, zero for Neumann."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise ValueError("Psi is defined on r >= 1")
    if bc.beta == 0.0:
        out = np.zeros_like(r)
    elif d == 1:
        out = np.ones_like(r)
    elif d == 2:
        out = 1.0 / r
    else:
        out = (d - 2.0) * r ** (1.0 - d)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HarmonicWeight:
    """Psi bundled with its dimension and boundary condition."""

    d: int
    bc: BoundaryCondition

    def value(self, r):
        return psi(r, self.d, self.bc)

    def prime(self, r):
        return psi_prime(r, self.d, self.bc)

    def laplacian_residual(self, r):
        """Psi'' + (d-1)/r Psi', which vanishes identically (harmonicity)."""
        r = np.asarray(r, dtype=float)
        if self.bc.beta == 0.0:
            out = np.zeros_like(r)
        elif self.d == 1:
            out = np.zeros_like(r)  # Psi'' = 0, no curvature term
        elif self.d == 2:
            out = -1.0 / r**2 + (1.0 / r) * (1.0 / r)
        else:
            d = self.d
            out = (d - 2.0) * (1.0 - d) * r ** (-d) + ((d - 1.0) / r) * (
                (d - 2.0) * r ** (1.0 - d)
            )
        if out.ndim == 0:
            return float(out)
        return out

    def boundary_identity(self) -> float:
        """alpha * (-Psi'(1)) + beta * Psi(1); zero by construction."""
        return self.bc.alpha * (-self.prime(1.0)) + self.bc.beta * self.value(1.0)


# ---------------------------------------------------------------------------
# phi_R derivatives (chain rule on the bridge)
# ---------------------------------------------------------------------------

def _scaled_chain_rule(tau, sigma, c: float, phi, dphi, ddphi):
    """(F, G, H, K): the derivatives of phi_R = phi(rho)^c in the scaled
    coordinates tau = t/R^2, sigma = (r-1)/R, where rho = tau^2 + sigma^4.

        d_t phi_R  = R^-2 F,  F = 2c tau phi^(c-1) phi'
        d_tt phi_R = R^-4 G,  G = 2c phi^(c-1) phi' + 4c(c-1) tau^2 phi^(c-2) phi'^2
                                  + 4c tau^2 phi^(c-1) phi''
        d_r phi_R  = R^-1 H,  H = 4c sigma^3 phi^(c-1) phi'
        d_rr phi_R = R^-2 K,  K = 12c sigma^2 phi^(c-1) phi'
                                  + 16c(c-1) sigma^6 phi^(c-2) phi'^2
                                  + 16c sigma^6 phi^(c-1) phi''

    ``phi``, ``dphi``, ``ddphi`` are the profile and its rho-derivatives at
    the samples.  Everything vanishes identically where rho >= 1.
    """
    with np.errstate(under="ignore"):
        pcm1 = phi ** (c - 1.0)
        a = pcm1 * dphi
        b = phi ** (c - 2.0) * dphi**2
        e = pcm1 * ddphi
        tau2 = tau**2
        sigma2 = sigma**2
        sigma6 = sigma2**3
        F = 2.0 * c * tau * a
        G = 2.0 * c * a + 4.0 * c * (c - 1.0) * tau2 * b + 4.0 * c * tau2 * e
        H = 4.0 * c * sigma**3 * a
        K = (
            12.0 * c * sigma2 * a
            + 16.0 * c * (c - 1.0) * sigma6 * b
            + 16.0 * c * sigma6 * e
        )
    return F, G, H, K


def phi_R_derivatives(t, r, R: float, lam: float, d: int):
    """(phi_R, d_t phi_R, d_tt phi_R, Lap phi_R, signed d_r phi_R <= 0) at (t, r).

    The R-scaling of ``_scaled_chain_rule`` with c = lam + 2, and
    Lap phi_R = d_rr phi_R + (d-1)/r * d_r phi_R for the radial Laplacian in
    d dimensions.  Everything vanishes identically where rho >= 1.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise ValueError("radial coordinate must satisfy r >= 1")
    if R <= 0:
        raise ValueError("R must be positive")
    c = lam + 2.0
    phi, dphi, ddphi = cutoff_profile_derivatives(_scaled_argument(t, r, R))
    F, G, H, K = _scaled_chain_rule(t / R**2, (r - 1.0) / R, c, phi, dphi, ddphi)
    with np.errstate(under="ignore"):
        d_r = R**-1.0 * H
        lap = R**-2.0 * K + ((d - 1.0) / r) * d_r
        return phi**c, R**-2.0 * F, R**-4.0 * G, lap, d_r


def _laplacian_psi_times(psi_r, psi_prime_r, lap, d_r):
    """Lap(Psi phi_R) = 2 Psi' d_r phi_R + Psi Lap phi_R (Psi harmonic)."""
    return 2.0 * psi_prime_r * d_r + psi_r * lap


def phi_R_radial_derivative(t, r, R: float, lam: float):
    """Signed d_r phi_R <= 0; the dimension does not enter it."""
    return phi_R_derivatives(t, r, R, lam, 1)[4]


def laplacian_psi_phi_R(t, r, R: float, lam: float, d: int, bc: BoundaryCondition):
    """Lap(Psi phi_R) = 2 grad Psi . grad phi_R + Psi Lap phi_R (Psi harmonic)."""
    lap, d_r = phi_R_derivatives(t, r, R, lam, d)[3:]
    return _laplacian_psi_times(psi(r, d, bc), psi_prime(r, d, bc), lap, d_r)


# ---------------------------------------------------------------------------
# derivative-estimate sup ratios
# ---------------------------------------------------------------------------

DEFAULT_RHS_R_POWERS = (-2.0, -4.0, -2.0, -2.0)

# tau-rows per block of the sup-ratio sweep; bounds the working set to
# SUP_RATIO_BLOCK_ROWS x nr samples (the maxima run across blocks)
SUP_RATIO_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SupRatioSweep:
    """Sup over Q_R samples of |left side| / right side for the four estimates.

    A finite ratio certifies nothing on its own; the claimed content is that
    the ratios stay bounded uniformly as R grows.
    """

    R: float
    ratios: tuple[float, float, float, float]
    n_samples: int
    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SupRatioRow:
    """The sup-ratio sweeps of one (lam, d, bc), one per R of the batch."""

    lam: float
    d: int
    bc: BoundaryCondition
    by_R: tuple[SupRatioSweep, ...]

    def bands(self) -> tuple[float, ...]:
        """Per estimate, the largest ratio over R divided by the smallest."""
        mat = np.array([res.ratios for res in self.by_R])
        lo = mat.min(axis=0)
        hi = mat.max(axis=0)
        return tuple(float(h / l) if l > 0 else math.inf for h, l in zip(hi, lo))


class _RunningSup:
    """One estimate's sup of lhs/rhs over the usable samples, and its support
    violations, accumulated block by block (a max of maxima is exact)."""

    def __init__(self):
        self.sup = 0.0
        self.bad_lhs = -np.inf  # largest left side over a vanishing right side
        self.first_bad = None   # (row, col) of the first such sample

    def add(self, lhs, rhs, rows, cols):
        usable = rhs >= RHS_FLOOR
        bad = (~usable) & (lhs >= LHS_FLOOR)
        if np.any(bad):
            self.bad_lhs = max(self.bad_lhs, float(lhs[bad].max()))
            if self.first_bad is None:
                j = int(np.argmax(bad))
                self.first_bad = (rows[j], cols[j])
        if np.any(usable):
            self.sup = max(self.sup, float(np.max(lhs[usable] / rhs[usable])))


def _finished_sweep(R, sups, t, r, n_samples) -> SupRatioSweep:
    """The ``SupRatioSweep`` of the running sups of (i)..(iv) at scale R; the
    mesh axes ``t`` and ``r`` locate the first sample of each violation."""
    violations = []
    for label, est in zip(ESTIMATE_LABELS, sups):
        if est.first_bad is not None:
            row, col = est.first_bad
            violations.append(
                f"estimate ({label}): left side {est.bad_lhs:.3e} "
                f"over vanishing right side at (t, r) = ({t[row]:.4g}, {r[col]:.4g})"
            )
    return SupRatioSweep(
        R=R,
        ratios=tuple(est.sup for est in sups),
        n_samples=n_samples,
        violations=tuple(violations),
    )


def sup_ratio_rows(
    R_list,
    lam_list,
    d_list,
    bc_list,
    grid: tuple[int, int],
    rhs_r_powers: tuple[float, float, float, float],
    rhs_phi_powers: tuple[float, float, float, float] | None = None,
) -> list[SupRatioRow]:
    """Sup-ratio sweeps for every (lam, d, bc, R) on one scaled sample grid.

    ``cutoff_estimate_sup_ratios`` samples t in [0, R^2] and r in [1, 1 + R]
    on a ``grid`` mesh, which is the same (tau, sigma) mesh for every R.  So
    the bridge derivatives are evaluated once per sample for the whole batch,
    the phi powers and phi* once per lam, estimates (i) and (ii) per (lam, R),
    (iii) per (lam, R, d) and (iv) per (lam, R, d, bc); R enters (iii) and
    (iv) through (d-1)/r and Psi(r) at r = 1 + R sigma.  The sweep runs over
    blocks of SUP_RATIO_BLOCK_ROWS tau-rows.

    Returns one ``SupRatioRow`` per (lam, d, bc), lam slowest and bc fastest,
    each holding its ``SupRatioSweep`` for every R of ``R_list``.
    """
    if any(R < 2 for R in R_list):
        raise ValueError("R >= 2 required for a meaningful sweep")
    nt, nr = grid
    tau = np.linspace(0.0, 1.0, nt)
    sigma = np.linspace(0.0, 1.0, nr)
    sigma4 = sigma**4
    a1, a2, a3, a4 = rhs_r_powers
    # the mesh columns r = 1 + R sigma; (d-1)/r per (R, d), (Psi, Psi') per
    # (R, d, bc)
    r_cols = [1.0 + np.linspace(0.0, R, nr) for R in R_list]
    by_d = [
        [
            ((d - 1.0) / r, [(psi(r, d, bc), psi_prime(r, d, bc)) for bc in bc_list])
            for d in d_list
        ]
        for r in r_cols
    ]
    # sups[lam][R] = (sup (i), sup (ii), [(sup (iii), [sup (iv) per bc]) per d])
    sups = [
        [
            (
                _RunningSup(),
                _RunningSup(),
                [(_RunningSup(), [_RunningSup() for _ in bc_list]) for _ in d_list],
            )
            for _ in R_list
        ]
        for _ in lam_list
    ]

    n_samples = 0
    with np.errstate(under="ignore"):
        for i0 in range(0, nt, SUP_RATIO_BLOCK_ROWS):
            rho = tau[i0:i0 + SUP_RATIO_BLOCK_ROWS, None] ** 2 + sigma4[None, :]
            rows, cols = np.nonzero(rho < 1.0)
            n_samples += rows.size
            rho = rho[rows, cols]
            phi, dphi, ddphi = cutoff_profile_derivatives(rho)
            # every left side carries a factor phi' or phi'': where both vanish
            # (rho <= 1/2, and the rim where the bridge underflows to 0) a
            # sample adds a zero ratio and cannot be a violation
            live = (dphi != 0.0) | (ddphi != 0.0)
            rows, cols = rows[live] + i0, cols[live]
            phi, dphi, ddphi = phi[live], dphi[live], ddphi[live]
            star = np.where(rho[live] < 0.5, 0.0, phi)  # phi* from the same phi
            for lam, sups_lam in zip(lam_list, sups):
                c = lam + 2.0
                F, G, H, K = _scaled_chain_rule(
                    tau[rows], sigma[cols], c, phi, dphi, ddphi
                )
                F, G = np.abs(F), np.abs(G)
                q = rhs_phi_powers
                if q is None:
                    q = ((lam + 1.0) / c, lam / c, lam / c, lam / c)
                # (phi*_R)^q = phi*^((lam+2) q), at profile level against
                # double underflow
                exps = [c * qi for qi in q]
                powers = {x: star**x for x in set(exps)}
                S1, S2, S3, S4 = (powers[x] for x in exps)
                for R, cols_d, (e1, e2, sups_d) in zip(R_list, by_d, sups_lam):
                    e1.add(R**-2.0 * F, R**a1 * S1, rows, cols)
                    e2.add(R**-4.0 * G, R**a2 * S2, rows, cols)
                    d_r = R**-1.0 * H
                    d_rr = R**-2.0 * K
                    for (curv, weights), (e3, sups_bc) in zip(cols_d, sups_d):
                        lap = d_rr + curv[cols] * d_r
                        e3.add(np.abs(lap), R**a3 * S3, rows, cols)
                        for (psi_r, psi_prime_r), e4 in zip(weights, sups_bc):
                            psi_s = psi_r[cols]
                            lpp = _laplacian_psi_times(psi_s, psi_prime_r[cols], lap, d_r)
                            e4.add(np.abs(lpp), R**a4 * S4 * psi_s, rows, cols)

    t_axes = [np.linspace(0.0, R**2, nt) for R in R_list]
    rows_out = []
    for lam, sups_lam in zip(lam_list, sups):
        for (i_d, d), (i_bc, bc) in product(enumerate(d_list), enumerate(bc_list)):
            by_R = []
            for R, t, r, (e1, e2, sups_d) in zip(R_list, t_axes, r_cols, sups_lam):
                e3, sups_bc = sups_d[i_d]
                by_R.append(_finished_sweep(R, (e1, e2, e3, sups_bc[i_bc]), t, r, n_samples))
            rows_out.append(SupRatioRow(lam=lam, d=d, bc=bc, by_R=tuple(by_R)))
    return rows_out


def cutoff_estimate_sup_ratios(
    R: float,
    lam: float,
    d: int,
    bc: BoundaryCondition,
    grid: tuple[int, int] = (512, 512),
    rhs_r_powers: tuple[float, float, float, float] = DEFAULT_RHS_R_POWERS,
    rhs_phi_powers: tuple[float, float, float, float] | None = None,
) -> SupRatioSweep:
    """Measure the four derivative-estimate ratios on a dense sample of Q_R.

    The samples are the points of a ``grid`` mesh of [0, R^2] x [1, 1 + R]
    with t^2 + (r-1)^4 < R^4.  ``rhs_r_powers`` and ``rhs_phi_powers``
    parametrize the right-hand sides R^a (phi*_R)^q (with an extra factor Psi
    for the fourth estimate); the defaults are the claimed estimate exponents,
    and overriding them implements mutation tests.  Samples where the right
    side underflows are skipped only when the left side vanishes as well;
    otherwise they are reported as support violations.
    """
    (row,) = sup_ratio_rows([R], [lam], [d], [bc], grid, rhs_r_powers, rhs_phi_powers)
    (res,) = row.by_R
    return res
