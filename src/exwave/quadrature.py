"""Space-time integrals over Q_R under radial symmetry.

All integrands in scope are radial, so volume integrals reduce to

    int_Omega f dx = omega_{d-1} * int_1^inf f(r) r^(d-1) dr,

with omega_{d-1} the area of the unit sphere (2 for d = 1, counting both
half-lines).  Three consumers:

* ``theta``: the comparison function Theta_p(R) appearing on the right side
  of the nonlinear inequality chain;
* ``measure_QRstar_psi``: adaptive quadrature of Psi over the transition
  shell Q*_R, whose growth rate in R the theory pins down;
* ``functional_IR`` / ``chain_check``: trapezoidal functionals of simulation
  output against the weights Psi phi_R (``star=True``: Psi phi*_R), each a
  plain float with R read from the ``ScaledCutoff``, and the link-by-link
  diagnostic of the inequality chain leading to the lifespan bound.

Only ``measure_QRstar_psi`` imports scipy, inside the function, so importing
the CLI does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exponents import BoundaryCondition, ExponentVector, compute_gamma
from .testfn import CutoffProfile, HarmonicWeight, ScaledCutoff, psi


def sphere_area(d: int) -> float:
    """Area of the unit sphere S^(d-1); 2 for d = 1 (both half-lines)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return 2.0
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def radial_integral(r: np.ndarray, values: np.ndarray, d: int) -> float:
    """omega_{d-1} * int values(r) r^(d-1) dr by the trapezoidal rule."""
    return float(sphere_area(d) * np.trapezoid(values * r ** (d - 1), r))


def theta(R: float, d: int, bc: BoundaryCondition, p: float) -> float:
    """Comparison function Theta_p(R) of the inequality chain.

    d = 2, beta != 0:  R^(2 - 4/p) (log R)^(1 - 1/p)
    d >= 3, beta != 0: R^(d - (d+2)/p)
    d >= 2, beta == 0: R^(d - (d+2)/p)
    d = 1:             R^(2 - 4/p) for beta != 0, R^(1 - 3/p) for beta == 0.
    """
    if R <= 1.0:
        raise ValueError("R must exceed 1 (log R must be positive)")
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    neumann = bc.beta == 0.0
    if d == 1:
        return R ** (1.0 - 3.0 / p) if neumann else R ** (2.0 - 4.0 / p)
    if d == 2 and not neumann:
        return R ** (2.0 - 4.0 / p) * math.log(R) ** (1.0 - 1.0 / p)
    return R ** (d - (d + 2.0) / p)


class QuadratureConvergenceError(RuntimeError):
    pass


def measure_QRstar_psi(
    R: float,
    d: int,
    bc: BoundaryCondition,
    T_horizon: float,
) -> float:
    """int over Q*_R of Psi(x) d(t, x), reduced to a radial integral.

    Q*_R = {(t, r): R^4/2 < t^2 + (r-1)^4 < R^4, t > 0, r > 1}.  For fixed r
    the admissible t form an interval whose length is known in closed form,
    so the 2D integral collapses to an adaptive 1D quadrature of

        [t_hi(r) - t_lo(r)] * Psi(r) * omega_{d-1} r^(d-1)

    over r in (1, 1 + R), to a relative error of 1e-6.  The expected growth
    rates are R^4 log R for d = 2 with beta != 0 and R^(d+2) otherwise.
    """
    from scipy import integrate

    if R < 2:
        raise ValueError("R >= 2 required")
    if T_horizon < R**2:
        raise ValueError("T_horizon must be at least R^2 so Q_R is not truncated")
    omega = sphere_area(d)
    R4 = R**4

    def integrand(r: float) -> float:
        s4 = (r - 1.0) ** 4
        if s4 >= R4:
            return 0.0
        t_hi = math.sqrt(R4 - s4)
        t_lo = math.sqrt(max(R4 / 2.0 - s4, 0.0))
        return (t_hi - t_lo) * psi(r, d, bc) * omega * r ** (d - 1)

    kink = 1.0 + R * 2.0 ** (-0.25)  # where the inner boundary of Q*_R hits t = 0
    value, abserr = integrate.quad(
        integrand, 1.0, 1.0 + R, points=[kink], limit=200, epsabs=0.0, epsrel=1e-9
    )
    if value <= 0.0 or abserr > 1e-6 * value:
        raise QuadratureConvergenceError(
            f"shell integral did not converge: value={value:.6e}, abserr={abserr:.2e}"
        )
    return float(value)


class InsufficientCoverageError(ValueError):
    """Grid or recorded history clips the support of phi_R."""


def functional_IR(
    history,
    cutoff: ScaledCutoff,
    weight: HarmonicWeight,
    ell: int,
    p_next: float,
    star: bool = False,
    allow_truncated: bool = False,
) -> float:
    """Tensor-product trapezoidal quadrature of |u_ell|^p_next Psi phi_R over
    Q_R, with R = ``cutoff.R``; ``star=True`` takes phi*_R instead (I*_R).

    ``history`` provides ``times`` (m,), ``r`` (n+1,), ``u`` (m, k, n+1) and
    ``horizon``.  ``ell`` is the 1-based component index.  The time window
    must reach min(horizon, R^2) and the grid must reach 1 + R, otherwise the
    support of phi_R is clipped; ``allow_truncated`` waives the time check
    (used on blown-up runs, whose natural life ends before R^2).

    The quadrature runs over the support of phi_R only: the snapshots up to
    the first one at t >= R^2 and the nodes up to the first one at
    r >= 1 + R.  Every sample left out has weight exactly 0.0, and the two
    kept end lines carry weight 0.0 too, so no trapezoid segment with weight
    is dropped.  A non-finite ``u`` beyond those end lines therefore does not
    enter the value (on the full grid, 0.0 * inf would turn it into NaN).
    """
    R = cutoff.R
    times = np.asarray(history.times, dtype=float)
    r = np.asarray(history.r, dtype=float)
    u = np.asarray(history.u, dtype=float)
    k = u.shape[1]
    if not 1 <= ell <= k:
        raise ValueError(f"component index must lie in [1, {k}]")
    if r[-1] < 1.0 + R:
        raise InsufficientCoverageError(
            f"grid reaches r = {r[-1]:.3f} < 1 + R = {1.0 + R:.3f}"
        )
    t_needed = min(R**2, history.horizon)
    if times[-1] < t_needed * (1.0 - 1e-12) and not allow_truncated:
        raise InsufficientCoverageError(
            f"history ends at t = {times[-1]:.3f} < min(horizon, R^2) = {t_needed:.3f}"
        )
    # past the first snapshot at t >= R^2 and the first node at r >= 1 + R,
    # rho >= 1 up to rounding, and phi is exactly 0.0 from rho > 0.9994 on
    # (the bridge underflows there), so the weight is exactly 0.0
    m = min(int(np.searchsorted(times, R**2)) + 1, times.size)
    n = min(int(np.searchsorted(r, 1.0 + R)) + 1, r.size)
    times, r = times[:m], r[:n]
    w_r = weight.value(r) * sphere_area(weight.d) * r ** (weight.d - 1)
    cut = cutoff.phi_R(times[:, None], r[None, :], star=star)
    integrand = np.abs(u[:m, ell - 1, :n]) ** p_next * cut * w_r[None, :]
    inner = np.trapezoid(integrand, r, axis=1)
    return max(float(np.trapezoid(inner, times)), 0.0)


# ---------------------------------------------------------------------------
# inequality-chain diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkCheck:
    """One link of the cyclic inequality chain at a fixed scale R.

    lhs  = I_R[u_prev] + C0_ell * eps
    rhs  = Theta_p(R) * (int |u_ell|^p Psi phi*_R)^(1/p)
    ratio = lhs / rhs is the measured hidden constant of the link.
    """

    ell: int
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return math.inf if self.lhs > 0 else 0.0
        return self.lhs / self.rhs


@dataclass(frozen=True)
class ChainRow:
    R: float
    links: tuple[LinkCheck, ...]
    final_ratio: float        # eps * R^(2 gamma_max - d)
    in_theory_window: bool    # R^2 <= covered time span


@dataclass(frozen=True)
class ChainReport:
    rows: tuple[ChainRow, ...]
    gamma_max: float


def chain_check(
    history,
    p: ExponentVector,
    d: int,
    bc: BoundaryCondition,
    R_values: Sequence[float],
    epsilon: float,
    C0: Sequence[float],
) -> ChainReport:
    """Evaluate both sides of every link of the inequality chain on a run.

    For each R and link ell, two ``functional_IR`` calls on one
    ``ScaledCutoff(R)``: I_R of |u_(ell-1)|^p_ell (cyclic index) and I*_R of
    |u_ell|^p_(ell+1), 2k per R.  Purely diagnostic: hidden constants are
    reported as measured ratios and nothing is asserted.  The final ratio eps * R^(2 gamma_max - d) realizes
    the closing inequality (data term <= C R^(-2 gamma_max + d)); it is only
    meaningful inside the theory window R <= sqrt(covered time).  The cutoff
    profile is the lambda floor of ``p``.
    """
    k = p.k
    if len(C0) != k:
        raise ValueError(f"expected {k} data constants, got {len(C0)}")
    report = compute_gamma(p, d)
    weight = HarmonicWeight(d, bc)
    t_covered = float(history.times[-1])
    power = 2.0 * report.gamma_max - d
    profile = CutoffProfile(lam=CutoffProfile.floor_for(p))

    rows = []
    for R in map(float, R_values):
        cutoff = ScaledCutoff(R=R, profile=profile)
        links = []
        for j, prev in enumerate(p.sources):  # j = ell - 1
            p_next = p.p[(j + 1) % k]
            i_prev = functional_IR(
                history, cutoff, weight, prev + 1, p.p[j], allow_truncated=True
            )
            i_star = functional_IR(
                history, cutoff, weight, j + 1, p_next, star=True, allow_truncated=True
            )
            lhs = i_prev + C0[j] * epsilon
            rhs = theta(R, d, bc, p_next) * i_star ** (1.0 / p_next)
            links.append(LinkCheck(ell=j + 1, lhs=lhs, rhs=rhs))
        rows.append(ChainRow(
            R=R, links=tuple(links), final_ratio=epsilon * R**power,
            in_theory_window=R**2 <= t_covered * (1.0 + 1e-12),
        ))
    return ChainReport(rows=tuple(rows), gamma_max=report.gamma_max)
