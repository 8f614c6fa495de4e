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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponents import BoundaryCondition, ExponentVector

# Underflow bookkeeping for the sup-ratio sweeps: a sample counts as
# 0/0-consistent (and is skipped) when the right side underflows below
# RHS_FLOOR while the left side is below LHS_FLOOR.
RHS_FLOOR = 1e-300
LHS_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# smooth bridge
# ---------------------------------------------------------------------------

def _f(s):
    """f(s) = exp(-1/s) for s > 0, 0 otherwise; C-infinity on the real line."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / s[pos])
    return out


def bridge(s):
    """g(s) = f(1-s) / (f(s) + f(1-s)): 1 for s <= 0, 0 for s >= 1, strictly
    decreasing in between, all derivatives vanishing at the endpoints."""
    s = np.asarray(s, dtype=float)
    f0 = _f(s)
    f1 = _f(1.0 - s)
    inside = (s > 0.0) & (s < 1.0)
    out = np.where(s <= 0.0, 1.0, 0.0)
    # f0 + f1 >= exp(-2) on (0,1), so the quotient is safe there.
    np.divide(f1, f0 + f1, out=out, where=inside)
    return out


def bridge_derivatives(s):
    """(g, g', g'') of the bridge, in closed form."""
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    g = np.where(s <= 0.0, 1.0, 0.0)
    g1 = np.zeros_like(s)
    g2 = np.zeros_like(s)
    if np.any(inside):
        si = s[inside]
        f0 = np.exp(-1.0 / si)
        f1 = np.exp(-1.0 / (1.0 - si))
        d0 = f0 / si**2                        # f'(s)
        d1 = -f1 / (1.0 - si) ** 2             # d/ds f(1-s)
        dd0 = f0 * (1.0 - 2.0 * si) / si**4    # f''(s)
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

    @classmethod
    def for_exponents(cls, p: ExponentVector) -> "CutoffProfile":
        return cls(lam=cls.floor_for(p))

    def admissible_for(self, p: ExponentVector) -> bool:
        return self.lam >= self.floor_for(p) - 1e-12


@dataclass(frozen=True)
class ScaledCutoff:
    """phi_R and phi*_R at scale R > 0 (space-time argument t^2 + (r-1)^4)."""

    R: float
    profile: CutoffProfile

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("R must be positive")

    def rho(self, t, r):
        t = np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        return (t**2 + (r - 1.0) ** 4) / self.R**4

    def phi_R(self, t, r, star: bool = False):
        val = cutoff_value(self.rho(t, r), star=star) ** (self.profile.lam + 2.0)
        return val

    def in_QR(self, t, r):
        return self.rho(t, r) < 1.0


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


def psi_gradient_magnitude(r, d: int, bc: BoundaryCondition):
    """|grad Psi| = Psi'(r): 1/r (d=2), (d-2)/r^(d-1) (d>=3), 1 (d=1), 0 (Neumann)."""
    return psi_prime(r, d, bc)


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

def phi_R_derivatives(t, r, R: float, lam: float, d: int):
    """(phi_R, d_t phi_R, d_tt phi_R, Lap phi_R, |grad phi_R|) at (t, r).

    With rho = (t^2 + (r-1)^4)/R^4 and c = lam + 2:

        d_t phi_R   = (2c/R^4) t phi^(c-1) phi'
        d_tt phi_R  = (2c/R^4) phi^(c-1) phi' + (4c(c-1)/R^8) t^2 phi^(c-2) phi'^2
                      + (4c/R^8) t^2 phi^(c-1) phi''
        d_r phi_R   = (4c/R^4) (r-1)^3 phi^(c-1) phi'
        d_rr phi_R  = (12c/R^4) (r-1)^2 phi^(c-1) phi'
                      + (16c(c-1)/R^8) (r-1)^6 phi^(c-2) phi'^2
                      + (16c/R^8) (r-1)^6 phi^(c-1) phi''

    and Lap phi_R = d_rr phi_R + (d-1)/r * d_r phi_R for the radial Laplacian
    in d dimensions.  Everything vanishes identically where rho >= 1.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise ValueError("radial coordinate must satisfy r >= 1")
    if R <= 0:
        raise ValueError("R must be positive")
    c = lam + 2.0
    R4 = R**4
    rho = (t**2 + (r - 1.0) ** 4) / R4
    phi, dphi, ddphi = cutoff_profile_derivatives(rho)
    with np.errstate(under="ignore"):
        pc = phi**c
        pcm1 = phi ** (c - 1.0)
        pcm2 = phi ** (c - 2.0)
        s = r - 1.0
        d_t = (2.0 * c / R4) * t * pcm1 * dphi
        d_tt = (
            (2.0 * c / R4) * pcm1 * dphi
            + (4.0 * c * (c - 1.0) / R4**2) * t**2 * pcm2 * dphi**2
            + (4.0 * c / R4**2) * t**2 * pcm1 * ddphi
        )
        d_r = (4.0 * c / R4) * s**3 * pcm1 * dphi
        d_rr = (
            (12.0 * c / R4) * s**2 * pcm1 * dphi
            + (16.0 * c * (c - 1.0) / R4**2) * s**6 * pcm2 * dphi**2
            + (16.0 * c / R4**2) * s**6 * pcm1 * ddphi
        )
        lap = d_rr + ((d - 1.0) / r) * d_r
    return pc, d_t, d_tt, lap, np.abs(d_r)


def phi_R_radial_derivative(t, r, R: float, lam: float):
    """Signed d_r phi_R (needed for grad Psi . grad phi_R; it is <= 0)."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    c = lam + 2.0
    R4 = R**4
    rho = (t**2 + (r - 1.0) ** 4) / R4
    phi, dphi, _ = cutoff_profile_derivatives(rho)
    with np.errstate(under="ignore"):
        return (4.0 * c / R4) * (r - 1.0) ** 3 * phi ** (c - 1.0) * dphi


def laplacian_psi_phi_R(t, r, R: float, lam: float, d: int, bc: BoundaryCondition):
    """Lap(Psi phi_R) = 2 grad Psi . grad phi_R + Psi Lap phi_R (Psi harmonic)."""
    _, _, _, lap, _ = phi_R_derivatives(t, r, R, lam, d)
    d_r = phi_R_radial_derivative(t, r, R, lam)
    return 2.0 * psi_prime(r, d, bc) * d_r + psi(r, d, bc) * lap


# ---------------------------------------------------------------------------
# derivative-estimate sup ratios
# ---------------------------------------------------------------------------

DEFAULT_RHS_R_POWERS = (-2.0, -4.0, -2.0, -2.0)


@dataclass(frozen=True)
class SupRatioSweep:
    """Sup over Q_R samples of |left side| / right side for the four estimates.

    A finite ratio certifies nothing on its own; the claimed content is that
    the ratios stay bounded uniformly as R grows.
    """

    R: float
    lam: float
    d: int
    bc: BoundaryCondition
    ratios: tuple[float, float, float, float]
    n_samples: int
    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def cutoff_estimate_sup_ratios(
    R: float,
    lam: float,
    d: int,
    bc: BoundaryCondition,
    grid: tuple[int, int] = (512, 512),
    rhs_r_powers: tuple[float, float, float, float] = DEFAULT_RHS_R_POWERS,
    rhs_phi_powers: tuple[float, float, float, float] | None = None,
    ratio_cap: float | None = None,
) -> SupRatioSweep:
    """Measure the four derivative-estimate ratios on a dense sample of Q_R.

    ``rhs_r_powers`` and ``rhs_phi_powers`` parametrize the right-hand sides
    R^a (phi*_R)^q (with an extra factor Psi for the fourth estimate); the
    defaults are the claimed estimate exponents, and overriding them implements
    mutation tests.  Samples where the right side underflows are skipped only
    when the left side vanishes as well; otherwise they are reported as
    support violations.
    """
    if R < 2:
        raise ValueError("R >= 2 required for a meaningful sweep")
    nt, nr = grid
    t = np.linspace(0.0, R**2, nt)
    r = 1.0 + np.linspace(0.0, R, nr)
    T, Rr = np.meshgrid(t, r, indexing="ij")
    rho = (T**2 + (Rr - 1.0) ** 4) / R**4
    inside = rho < 1.0
    T = T[inside]
    Rr = Rr[inside]
    rho = rho[inside]

    if rhs_phi_powers is None:
        rhs_phi_powers = (
            (lam + 1.0) / (lam + 2.0),
            lam / (lam + 2.0),
            lam / (lam + 2.0),
            lam / (lam + 2.0),
        )

    _, d_t, d_tt, lap, _ = phi_R_derivatives(T, Rr, R, lam, d)
    lap_psi_phi = laplacian_psi_phi_R(T, Rr, R, lam, d, bc)
    psi_vals = psi(Rr, d, bc)

    # phi*_R^q computed at base-profile level to dodge double underflow:
    # (phi*^(lam+2))^q = phi*^((lam+2) q).
    star = np.asarray(cutoff_value(rho, star=True))
    lhs_list = [np.abs(d_t), np.abs(d_tt), np.abs(lap), np.abs(lap_psi_phi)]
    ratios = []
    violations: list[str] = []
    with np.errstate(under="ignore"):
        for i, (lhs, rpow, qpow) in enumerate(
            zip(lhs_list, rhs_r_powers, rhs_phi_powers)
        ):
            rhs = R**rpow * star ** ((lam + 2.0) * qpow)
            if i == 3:
                rhs = rhs * psi_vals
            usable = rhs >= RHS_FLOOR
            bad = (~usable) & (lhs >= LHS_FLOOR)
            if np.any(bad):
                j = int(np.argmax(bad))
                violations.append(
                    f"estimate ({'i' * (i + 1)}): left side {lhs[bad].max():.3e} "
                    f"over vanishing right side at (t, r) = ({T[j]:.4g}, {Rr[j]:.4g})"
                )
            sup = float(np.max(lhs[usable] / rhs[usable])) if np.any(usable) else 0.0
            if ratio_cap is not None and sup > ratio_cap:
                violations.append(
                    f"estimate ({'i' * (i + 1)}): sup ratio {sup:.3e} exceeds cap {ratio_cap:.3e}"
                )
            ratios.append(sup)

    return SupRatioSweep(
        R=R,
        lam=lam,
        d=d,
        bc=bc,
        ratios=tuple(ratios),
        n_samples=int(T.size),
        violations=tuple(violations),
    )
