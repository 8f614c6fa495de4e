"""Space-time integrals over Q_R under radial symmetry.

All integrands in scope are radial, so volume integrals reduce to

    int_Omega f dx = omega_{d-1} * int_1^inf f(r) r^(d-1) dr,

with omega_{d-1} the area of the unit sphere (2 for d = 1, counting both
half-lines).  Three consumers:

* ``theta``: the comparison function Theta_p(R) appearing on the right side
  of the nonlinear inequality chain;
* ``measure_QRstar_psi``: a fixed Gauss-Legendre rule for Psi over the
  transition shell Q*_R, whose growth rate in R the theory pins down;
* ``functional_IR`` / ``chain_check``: trapezoidal functionals of simulation
  output against the weights Psi phi_R (``star=True``: Psi phi*_R), each a
  plain float with R read from the ``ScaledCutoff``, and the link-by-link
  diagnostic of the inequality chain leading to the lifespan bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exponents import BoundaryCondition, ExponentVector, compute_gamma
from .testfn import CutoffProfile, ScaledCutoff, psi


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


def _shell_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes sigma and weights, n per panel, of the rule for
    int_0^1 L(sigma) f(sigma) dsigma in ``measure_QRstar_psi``."""
    x, w = np.polynomial.legendre.leggauss(n)
    v, w = (x + 1.0) / 2.0, w / 2.0
    kink = 2.0 ** -0.25
    lo, hi = np.array([[0.0], [kink]]), np.array([[kink], [1.0]])  # a panel per row
    sigma = hi - (hi - lo) * v**2
    length = np.sqrt(1.0 - sigma**4) - np.sqrt(np.maximum(0.5 - sigma**4, 0.0))
    return sigma.ravel(), (2.0 * (hi - lo) * v * w * length).ravel()


def measure_QRstar_psi(R: float, d: int, bc: BoundaryCondition) -> float:
    """int over Q*_R of Psi(x) d(t, x), reduced to a radial integral.

    Q*_R = {(t, r): R^4/2 < t^2 + (r-1)^4 < R^4, t > 0, r > 1}.  For fixed
    r = 1 + R sigma the admissible t form an interval of length R^2 L(sigma),
    L = sqrt(1 - sigma^4) - sqrt(max(1/2 - sigma^4, 0)), so the 2D integral
    collapses to R^3 int_0^1 L(sigma) Psi(r) omega_{d-1} r^(d-1) dsigma.  L
    has square-root endpoints at the kink 2^(-1/4), where the inner boundary of
    Q*_R hits t = 0, and at 1.  On each panel [lo, hi] between them, sigma =
    hi - (hi - lo) v^2 makes the integrand smooth in v in [0, 1] for
    Gauss-Legendre.  The value is that of 96 nodes per panel; unless it is
    positive, finite and within 1e-9 relative of 48 nodes' value,
    ``QuadratureConvergenceError`` is raised.  The expected growth rates are
    R^4 log R for d = 2 with beta != 0 and R^(d+2) otherwise.
    """
    if not 2.0 <= R < math.inf:
        raise ValueError(f"R must be finite and >= 2, got {R!r}")

    def integral(n: int) -> float:
        sigma, weight = _shell_rule(n)
        r = 1.0 + R * sigma
        return float(sphere_area(d) * R**3 * np.sum(weight * psi(r, d, bc) * r ** (d - 1)))

    coarse, value = integral(48), integral(96)
    if not (0.0 < value < math.inf and abs(value - coarse) <= 1e-9 * value):
        raise QuadratureConvergenceError(
            f"shell integral did not converge: {value:.6e} with 96 nodes per panel, "
            f"{coarse:.6e} with 48"
        )
    return value


class InsufficientCoverageError(ValueError):
    """Grid or recorded history clips the support of phi_R."""


def _support_window(history, R: float, allow_truncated: bool):
    """(times, r, u) of ``history`` cut to the support of phi_R, after
    checking that the grid reaches 1 + R and (unless ``allow_truncated``)
    that the snapshots reach min(horizon, R^2)."""
    times = np.asarray(history.times, dtype=float)
    r = np.asarray(history.r, dtype=float)
    u = np.asarray(history.u, dtype=float)
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
    return times[:m], r[:n], u[:m, :, :n]


def _radial_weight(r: np.ndarray, d: int, bc: BoundaryCondition) -> np.ndarray:
    """Psi(r) omega_{d-1} r^(d-1), the radial measure against Psi."""
    return psi(r, d, bc) * sphere_area(d) * r ** (d - 1)


def _weighted_trapezoid(powered, cut, w_r, r, times) -> float:
    """Trapezoids in r, then in t, of (|u|^p * cut) * w_r, clipped at 0."""
    integrand = powered * cut * w_r[None, :]
    inner = np.trapezoid(integrand, r, axis=1)
    return max(float(np.trapezoid(inner, times)), 0.0)


def functional_IR(
    history,
    cutoff: ScaledCutoff,
    d: int,
    bc: BoundaryCondition,
    ell: int,
    p_next: float,
    star: bool = False,
    allow_truncated: bool = False,
) -> float:
    """Tensor-product trapezoidal quadrature of |u_ell|^p_next Psi phi_R over
    Q_R, with R = ``cutoff.R`` and Psi that of (d, bc); ``star=True`` takes
    phi*_R instead (I*_R).

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
    k = np.shape(history.u)[1]
    if not 1 <= ell <= k:
        raise ValueError(f"component index must lie in [1, {k}]")
    times, r, u = _support_window(history, cutoff.R, allow_truncated)
    cut = cutoff.phi_R(times[:, None], r[None, :], star=star)
    powered = np.abs(u[:, ell - 1]) ** p_next
    return _weighted_trapezoid(powered, cut, _radial_weight(r, d, bc), r, times)


# ---------------------------------------------------------------------------
# inequality-chain diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkCheck:
    """One link of the cyclic inequality chain at a fixed scale R.

    lhs  = I_R[u_prev] + C0_ell * eps
    rhs  = Theta_p(R) * (int |u_ell|^p Psi phi*_R)^(1/p)
    lhs / rhs is the measured hidden constant of the link.
    """

    ell: int
    lhs: float
    rhs: float


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

    Link ell pairs I_R of |u_(ell-1)|^p_ell (cyclic index) with I*_R of
    |u_ell|^p_(ell+1), the quadrature of ``functional_IR``.  Both sides take
    |u_c|^p with p the power of the component that c forces, so per R the
    window, Psi and one bridge (phi_R and phi*_R) are formed once and |u|^p
    k times, for k trapezoids against each cutoff.  A component whose window
    is equal (``np.array_equal``) to an earlier one's, with the same power,
    takes that one's I_R and I*_R: equal exponents give the k components as
    bit-for-bit copies, which are then powered and integrated once.  The
    power skips the exact zeros: they give +0.0 as 0^p does (p > 1), while
    numpy's AVX-512 pow costs about 9 ns per zero against about 2.6 ns per
    normal input, and a window of a travelling bump is mostly zeros (99.6%
    in the benchmark's histories, whose largest pow fell 0.57 -> 0.03 ms on
    a 2-core Xeon; on dense rows the mask costs about +30% of the pow).  NaN
    and inf are not zeros and take the pow as before.

    Purely diagnostic: hidden constants are reported as measured ratios and
    nothing is asserted.  The final ratio eps * R^(2 gamma_max - d) realizes
    the closing inequality (data term <= C R^(-2 gamma_max + d)); it is only
    meaningful inside the theory window R <= sqrt(covered time).  The cutoff
    profile is the lambda floor of ``p``.
    """
    k = p.k
    if len(C0) != k:
        raise ValueError(f"expected {k} data constants, got {len(C0)}")
    if np.shape(history.u)[1] < k:
        raise ValueError(f"history holds {np.shape(history.u)[1]} components, p has {k}")
    report = compute_gamma(p, d)
    t_covered = float(history.times[-1])
    power = 2.0 * report.gamma_max - d
    profile = CutoffProfile(lam=CutoffProfile.floor_for(p))

    forced_power = dict(zip(p.sources, p.p))  # u_c forces a component of this power
    rows = []
    for R in map(float, R_values):
        cutoff = ScaledCutoff(R=R, profile=profile)
        times, r, u = _support_window(history, R, allow_truncated=True)
        w_r = _radial_weight(r, d, bc)
        phi, phi_star = cutoff.phi_R_pair(times[:, None], r[None, :])
        # I_R and I*_R take the same (component, power) pairs: |u_c|^p with
        # the power of the component c forces; a component equal to an
        # earlier one on the window, with the same power, takes its integrals
        # (equal exponents give k bit-for-bit copies)
        i_cut, i_star = [], []
        for c in range(k):
            for e in range(c):
                if forced_power[e] == forced_power[c] and np.array_equal(u[:, e], u[:, c]):
                    i_cut.append(i_cut[e])
                    i_star.append(i_star[e])
                    break
            else:
                amp = np.abs(u[:, c])
                powered = np.power(
                    amp, forced_power[c], out=np.zeros_like(amp), where=amp != 0.0
                )
                i_cut.append(_weighted_trapezoid(powered, phi, w_r, r, times))
                i_star.append(_weighted_trapezoid(powered, phi_star, w_r, r, times))
        links = []
        for j, prev in enumerate(p.sources):  # j = ell - 1
            p_next = forced_power[j]
            lhs = i_cut[prev] + C0[j] * epsilon
            rhs = theta(R, d, bc, p_next) * i_star[j] ** (1.0 / p_next)
            links.append(LinkCheck(ell=j + 1, lhs=lhs, rhs=rhs))
        rows.append(ChainRow(
            R=R, links=tuple(links), final_ratio=epsilon * R**power,
            in_theory_window=R**2 <= t_covered * (1.0 + 1e-12),
        ))
    return ChainReport(rows=tuple(rows), gamma_max=report.gamma_max)
