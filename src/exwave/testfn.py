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
over (lam, d, bc, R) (``sup_ratio_rows``) reads the samples of the shell
1/2 < rho < 1, the only samples where phi' or phi'' can be nonzero, and their
bridge derivatives from a read-only memo formed once per (grid, block rows)
and process (``_shell_blocks``; it keeps one grid, 3.69 MB at 512^2), and
returns one row per (lam, d, bc) holding the sweeps for every R.  Repeated
batches on one grid skip the bridge; a one-shot ``exwave verify-lemma`` makes
one batch and gains nothing.  With the claimed powers of R, ratios (i) and
(ii) do not depend on R; R enters (iii) and (iv) only through (d-1)/r and
Psi(r) at r = 1 + R sigma; where Psi = 1 (beta = 0), (iv) has the left side
of (iii).
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
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


def _plain(out):
    """A 0-d result as a float; any other array as it is."""
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# smooth bridge
# ---------------------------------------------------------------------------

def _bridge_kernel(s):
    """What both bridge functions start from: g with its ends filled in (1 for
    s <= 0, 0 for s >= 1), the mask of 0 < s < 1, the samples si there and
    f(si), f(1 - si)."""
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    g = np.where(s <= 0.0, 1.0, 0.0)
    si = s[inside]
    with np.errstate(over="ignore"):  # -1/si overflows for subnormal si
        f0 = np.exp(-1.0 / si)
    f1 = np.exp(-1.0 / (1.0 - si))
    return g, inside, si, f0, f1


def bridge(s):
    """g(s) = f(1-s) / (f(s) + f(1-s)) with f(s) = exp(-1/s): 1 for s <= 0,
    0 for s >= 1, strictly decreasing in between, all derivatives vanishing
    at the endpoints."""
    g, inside, _, f0, f1 = _bridge_kernel(s)
    g[inside] = f1 / (f0 + f1)
    return g


def bridge_derivatives(s):
    """(g, g', g'') of the bridge, in closed form."""
    g, inside, si, f0, f1 = _bridge_kernel(s)
    g1 = np.zeros_like(g)
    g2 = np.zeros_like(g)
    live = f0 > 0.0  # f'(s), f''(s) are 0 elsewhere, even where si**2, si**4 underflow
    d0 = np.divide(f0, si**2, out=np.zeros_like(si), where=live)
    d1 = -f1 / (1.0 - si) ** 2             # d/ds f(1-s)
    dd0 = np.divide(f0 * (1.0 - 2.0 * si), si**4, out=np.zeros_like(si), where=live)
    dd1 = f1 * (2.0 * si - 1.0) / (1.0 - si) ** 4
    den = f0 + f1
    num1 = d1 * f0 - f1 * d0
    g[inside] = f1 / den
    g1[inside] = num1 / den**2
    g2[inside] = ((dd1 * f0 - f1 * dd0) * den - 2.0 * num1 * (d0 + d1)) / den**3
    return g, g1, g2


# ---------------------------------------------------------------------------
# cutoff profiles phi, phi*
# ---------------------------------------------------------------------------

def cutoff_value(rho):
    """phi(rho): 1 on [0, 1/2], bridges smoothly down on (1/2, 1), 0 on
    [1, inf).  Its shell companion phi* (0 on [0, 1/2), phi from 1/2 on) is
    formed by ``ScaledCutoff.phi_R_pair``."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    return _plain(bridge(2.0 * rho - 1.0))


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
        # with c = lam + 2, 16 c (c - 1) is the chain rule's largest coefficient
        c = self.lam + 2.0
        if not (self.lam > 0.0 and math.isfinite(16.0 * c * (c - 1.0))):
            raise ValueError(
                f"lambda must be positive and finite, with 16 (lambda + 2)(lambda + 1) "
                f"finite, got {self.lam!r}"
            )

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
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, got {self.R!r}")

    def phi_R(self, t, r, star: bool = False):
        """phi_R, or phi*_R when ``star``."""
        phi, phi_star = self.phi_R_pair(t, r)
        return phi_star if star else phi

    def phi_R_pair(self, t, r):
        """(phi_R, phi*_R) from one bridge evaluation: phi*_R is phi_R with
        the samples at rho < 1/2 set to 0.0."""
        rho = _scaled_argument(np.asarray(t, dtype=float), np.asarray(r, dtype=float), self.R)
        phi = cutoff_value(rho) ** (self.profile.lam + 2.0)
        return phi, np.where(rho < 0.5, 0.0, phi)


def _radial(r, d: int) -> np.ndarray:
    """r as a float array, after the radial functions' one check: r, d >= 1."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise ValueError("the radial functions are defined on r >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    return r


def _psi_parts(r, d: int, bc: BoundaryCondition):
    """(r, Psi(r), Psi'(r), Psi''(r)) with r as an array, from the one case
    split on (beta = 0, d)."""
    r = _radial(r, d)
    if bc.beta == 0.0:
        return r, np.ones_like(r), np.zeros_like(r), np.zeros_like(r)
    q = bc.alpha / bc.beta
    if d == 1:
        return r, r - 1.0 + q, np.ones_like(r), np.zeros_like(r)
    if d == 2:
        return r, np.log(r) + q, 1.0 / r, -1.0 / r**2
    m = d - 2.0
    return r, 1.0 - r ** (2.0 - d) + q * m, m * r ** (1.0 - d), m * (1.0 - d) * r ** (-d)


def psi(r, d: int, bc: BoundaryCondition):
    """Harmonic weight Psi on r >= 1.

    beta != 0:  d=1: r - 1 + alpha/beta
                d=2: log r + alpha/beta
                d>=3: 1 - r^(2-d) + (alpha/beta)(d-2)
    beta == 0:  Psi = 1 for every d.
    Nonnegative on r >= 1 whenever alpha*beta >= 0.
    """
    return _plain(_psi_parts(r, d, bc)[1])


def psi_prime(r, d: int, bc: BoundaryCondition):
    """Radial derivative Psi'(r); positive for beta != 0, zero for Neumann."""
    return _plain(_psi_parts(r, d, bc)[2])


def psi_identities(r, d: int, bc: BoundaryCondition):
    """(Psi'' + (d-1)/r Psi' at r, alpha (-Psi'(1)) + beta Psi(1)): both
    vanish by construction (harmonicity and the boundary condition)."""
    r, _, dpsi, ddpsi = _psi_parts(r, d, bc)
    _, psi1, dpsi1, _ = map(float, _psi_parts(1.0, d, bc))
    return _plain(ddpsi + ((d - 1.0) / r) * dpsi), bc.alpha * (-dpsi1) + bc.beta * psi1


# ---------------------------------------------------------------------------
# phi_R derivatives (chain rule on the bridge)
# ---------------------------------------------------------------------------

def _scaled_chain_rule(tau, sigma, c: float, pcm1, pcm2, dphi, ddphi):
    """(F, G, H, K): the derivatives of phi_R = phi(rho)^c in the scaled
    coordinates tau = t/R^2, sigma = (r-1)/R, where rho = tau^2 + sigma^4.

        d_t phi_R  = R^-2 F,  F = 2c tau phi^(c-1) phi'
        d_tt phi_R = R^-4 G,  G = 2c phi^(c-1) phi' + 4c(c-1) tau^2 phi^(c-2) phi'^2
                                  + 4c tau^2 phi^(c-1) phi''
        d_r phi_R  = R^-1 H,  H = 4c sigma^3 phi^(c-1) phi'
        d_rr phi_R = R^-2 K,  K = 12c sigma^2 phi^(c-1) phi'
                                  + 16c(c-1) sigma^6 phi^(c-2) phi'^2
                                  + 16c sigma^6 phi^(c-1) phi''

    ``pcm1`` and ``pcm2`` are phi^(c-1) and phi^(c-2), ``dphi`` and ``ddphi``
    the profile's rho-derivatives at the samples.  Everything vanishes
    identically where rho >= 1.
    """
    with np.errstate(under="ignore"):
        a = pcm1 * dphi
        b = pcm2 * dphi**2
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
    r = _radial(r, d)
    c = ScaledCutoff(R, CutoffProfile(lam)).profile.lam + 2.0
    phi, dphi, ddphi = cutoff_profile_derivatives(_scaled_argument(t, r, R))
    with np.errstate(under="ignore"):
        pcm1, pcm2 = phi ** (c - 1.0), phi ** (c - 2.0)
        F, G, H, K = _scaled_chain_rule(t / R**2, (r - 1.0) / R, c, pcm1, pcm2, dphi, ddphi)
        d_r = R**-1.0 * H
        lap = R**-2.0 * K + ((d - 1.0) / r) * d_r
        return phi**c, R**-2.0 * F, R**-4.0 * G, lap, d_r


def _laplacian_psi_times(psi_r, flux, lap):
    """Lap(Psi phi_R) = 2 Psi' d_r phi_R + Psi Lap phi_R (Psi harmonic), from
    Psi, the cross term ``flux`` = 2 Psi' d_r phi_R and Lap phi_R."""
    return flux + psi_r * lap


def phi_R_radial_derivative(t, r, R: float, lam: float):
    """Signed d_r phi_R <= 0; the dimension does not enter it."""
    return phi_R_derivatives(t, r, R, lam, 1)[4]


def laplacian_psi_phi_R(t, r, R: float, lam: float, d: int, bc: BoundaryCondition):
    """Lap(Psi phi_R) = 2 grad Psi . grad phi_R + Psi Lap phi_R (Psi harmonic)."""
    lap, d_r = phi_R_derivatives(t, r, R, lam, d)[3:]
    return _laplacian_psi_times(psi(r, d, bc), 2.0 * psi_prime(r, d, bc) * d_r, lap)


# ---------------------------------------------------------------------------
# derivative-estimate sup ratios
# ---------------------------------------------------------------------------

DEFAULT_RHS_R_POWERS = (-2.0, -4.0, -2.0, -2.0)
DEFAULT_SUP_RATIO_GRID = (512, 512)

# tau-rows per block of the sup-ratio sweep; bounds the working set to
# SUP_RATIO_BLOCK_ROWS x nr samples (the maxima run across blocks)
SUP_RATIO_BLOCK_ROWS = 64


@lru_cache(maxsize=1)
def _shell_blocks(nt: int, nr: int, block_rows: int):
    """(n_samples, blocks) of the scaled nt x nr mesh rho = tau^2 + sigma^4:
    n_samples counts its samples with rho < 1, and each block of block_rows
    tau-rows gives its live shell samples as read-only arrays (rows, cols,
    phi, dphi, ddphi), rows and cols as mesh indices.  They stay intp: the
    batch gathers by ``cols`` dozens of times per block, and a gather by
    int32 indices casts them first (a warm 512^2 batch took about 20% more
    CPU time with int32 indices on a 2-core Xeon).

    Every left side of the sup-ratio estimates carries a factor phi' or
    phi'': where both vanish (rho <= 1/2, and the rim where the bridge
    underflows to 0) a sample adds a zero ratio and cannot be a violation,
    so only the shell 1/2 < rho < 1 goes through the bridge, and only its
    samples with phi' or phi'' nonzero are kept (92,359 at 512^2).
    """
    tau = np.linspace(0.0, 1.0, nt)
    sigma4 = np.linspace(0.0, 1.0, nr) ** 4
    n_samples = 0
    blocks = []
    with np.errstate(under="ignore"):
        for i0 in range(0, nt, block_rows):
            block = tau[i0:i0 + block_rows, None] ** 2 + sigma4[None, :]
            n_samples += int(np.count_nonzero(block < 1.0))
            rows, cols = np.nonzero((block > 0.5) & (block < 1.0))
            phi, dphi, ddphi = cutoff_profile_derivatives(block[rows, cols])
            live = (dphi != 0.0) | (ddphi != 0.0)
            shell = (rows[live] + i0, cols[live], phi[live], dphi[live], ddphi[live])
            for a in shell:
                a.flags.writeable = False
            blocks.append(shell)
    return n_samples, tuple(blocks)


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
        # division by zero and 0/0 happen only at the vanishing right sides,
        # whose ratios are overwritten with 0; an overflow elsewhere shows as
        # an infinite sup.  The caller silences those warnings (one
        # np.errstate per batch, not per call), and the 1-d arrays take
        # .nonzero() and the reduce directly.
        ratios = lhs / rhs
        vanishing = (rhs < RHS_FLOOR).nonzero()[0]
        if vanishing.size:
            ratios[vanishing] = 0.0
            bad = lhs[vanishing]
            worst = float(bad.max())
            if worst >= LHS_FLOOR:
                self.bad_lhs = max(self.bad_lhs, worst)
                if self.first_bad is None:
                    j = vanishing[int(np.argmax(bad >= LHS_FLOOR))]
                    self.first_bad = (rows[j], cols[j])
        self.sup = max(self.sup, float(np.maximum.reduce(ratios, initial=0.0)))


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
    the bridge derivatives depend on the grid alone: ``_shell_blocks`` forms
    them once per (grid, SUP_RATIO_BLOCK_ROWS) and process and keeps the last
    grid's, read-only (92,359 samples, 3.69 MB at 512^2), so only the first
    batch on a grid pays for them.  The phi powers and phi* are formed once
    per lam, estimates (i) and (ii) per (lam, R), (iii) per (lam, R, d) and
    (iv) per (lam, R, d, bc); R enters (iii) and (iv) through (d-1)/r and
    Psi(r) at r = 1 + R sigma.  Every left side carries a factor phi' or
    phi'', so only the shell samples 1/2 < rho < 1 go through the bridge
    derivatives and the estimates; ``n_samples`` still counts every sample
    with rho < 1.  Where beta = 0, Psi = 1 and Psi' = 0, so the left side of
    (iv) is that of (iii); when the right sides agree as well, (iv) takes
    (iii)'s running sup for that (lam, R, d).

    The sweep runs over the memo's blocks of SUP_RATIO_BLOCK_ROWS tau-rows,
    read when the call is made.  Per block,
    each lam's chain-rule arrays and phi* powers are formed first, with (i)
    and (ii) for every R; then (iii) and (iv) loop over R, d, bc with lam
    innermost, so the column gathers of (d-1)/r and Psi are formed once per
    (R, d, bc) and R^a (phi*)^q once per (lam, R).  Each power of phi is
    formed once per lam: the right sides' phi^((lam+2) q) take the chain
    rule's phi^(c-1) and phi^(c-2), c = lam + 2, where the exponents are
    equal as floats (the default q gives lam + 1 and lam), so the default
    right sides form no pow of their own.  Psi' does not depend on
    alpha/beta, so Dirichlet and Robin share 2 Psi' (formed once per (R, d)
    for the whole sweep), its column gather per (R, d) and the product
    2 Psi' d_r phi_R per (lam, R, d).  The batch runs under one np.errstate,
    so ``_RunningSup.add``, called 576 times per pass of the benchmark's
    batch, enters none.

    Returns one ``SupRatioRow`` per (lam, d, bc), lam slowest and bc fastest,
    each holding its ``SupRatioSweep`` for every R of ``R_list``.
    """
    if not all(2.0 <= R < sys.float_info.max**0.25 for R in R_list):
        raise ValueError(f"every R must be finite and >= 2, with R^4 finite, got {R_list}")
    lam_list = [CutoffProfile(lam).lam for lam in lam_list]
    if any(d < 1 for d in d_list):
        raise ValueError("d must be >= 1")
    if min(grid) < 2:
        raise ValueError(f"the sample grid needs at least 2 points per axis, got {grid}")
    nt, nr = grid
    tau = np.linspace(0.0, 1.0, nt)
    sigma = np.linspace(0.0, 1.0, nr)
    a1, a2, a3, a4 = rhs_r_powers
    # the mesh columns r = 1 + R sigma; per (R, d): (d-1)/r, 2 Psi' and Psi per
    # bc, None where Psi is identically 1 (beta = 0).  Psi' does not depend on
    # alpha/beta (beta != 0), so those bcs share the first one's 2 Psi' (None
    # if none is in the batch)
    r_cols = [1.0 + np.linspace(0.0, R, nr) for R in R_list]
    weighted = next((bc for bc in bc_list if bc.beta != 0.0), None)
    by_d = [
        [
            (
                (d - 1.0) / r,
                None if weighted is None else 2.0 * psi_prime(r, d, weighted),
                [None if bc.beta == 0.0 else psi(r, d, bc) for bc in bc_list],
            )
            for d in d_list
        ]
        for r in r_cols
    ]

    # the running sups, keyed by list positions: (estimate, R, lam), plus d
    # for (iii), plus d and bc for (iv)
    sups = defaultdict(_RunningSup)

    n_samples, blocks = _shell_blocks(nt, nr, SUP_RATIO_BLOCK_ROWS)
    if not any(rows.size for rows, *_ in blocks):
        raise ValueError(f"the sample grid {grid} holds no sample in the shell 1/2 < rho < 1")
    # one errstate for the batch: underflow is expected, and _RunningSup.add
    # divides by vanishing right sides
    with np.errstate(under="ignore", divide="ignore", over="ignore", invalid="ignore"):
        for rows, cols, phi, dphi, ddphi in blocks:
            tau_s, sigma_s = tau[rows], sigma[cols]
            # per lam: estimates (i) and (ii) for every R, and H, K and the
            # phi* powers of (iii) and (iv)
            by_lam = []
            for i_lam, lam in enumerate(lam_list):
                c = lam + 2.0
                powers = {c - 1.0: phi ** (c - 1.0), c - 2.0: phi ** (c - 2.0)}
                F, G, H, K = _scaled_chain_rule(
                    tau_s, sigma_s, c, powers[c - 1.0], powers[c - 2.0], dphi, ddphi
                )
                F, G = np.abs(F), np.abs(G)
                q = rhs_phi_powers
                if q is None:
                    q = ((lam + 1.0) / c, lam / c, lam / c, lam / c)
                # (phi*_R)^q = phi*^((lam+2) q), at profile level against
                # double underflow; phi* is phi on the shell.  An exponent
                # equal as a float to the chain rule's c - 1 or c - 2 (the
                # default q gives (lam+2) q = lam + 1 and lam) takes its array
                exps = [c * qi for qi in q]
                for x in exps:
                    if x not in powers:
                        powers[x] = phi**x
                S1, S2, S3, S4 = (powers[x] for x in exps)
                for i_R, R in enumerate(R_list):
                    sups[0, i_R, i_lam].add(R**-2.0 * F, R**a1 * S1, rows, cols)
                    sups[1, i_R, i_lam].add(R**-4.0 * G, R**a2 * S2, rows, cols)
                by_lam.append((H, K, S3, S4))
            for i_R, (R, cols_d) in enumerate(zip(R_list, by_d)):
                # per lam: d_r phi_R, d_rr phi_R and the right sides of (iii)
                # and (iv) before the factor Psi (one array when they agree)
                scaled = []
                for H, K, S3, S4 in by_lam:
                    rhs3 = R**a3 * S3
                    rhs4 = rhs3 if a4 == a3 and S4 is S3 else R**a4 * S4
                    scaled.append((R**-1.0 * H, R**-2.0 * K, rhs3, rhs4))
                for i_d, (curv, two_psi_prime, psis) in enumerate(cols_d):
                    curv_s = curv[cols]
                    laps = []
                    for i_lam, (d_r, d_rr, rhs3, _) in enumerate(scaled):
                        lap = d_rr + curv_s * d_r
                        abs_lap = np.abs(lap)
                        sups[2, i_R, i_lam, i_d].add(abs_lap, rhs3, rows, cols)
                        laps.append((lap, abs_lap))
                    if two_psi_prime is not None:
                        # 2 Psi' d_r phi_R per lam, shared by every bc with beta != 0
                        two_psi_prime_s = two_psi_prime[cols]
                        fluxes = [two_psi_prime_s * d_r for d_r, *_ in scaled]
                    for i_bc, psi_r in enumerate(psis):
                        if psi_r is not None:
                            psi_s = psi_r[cols]
                        for i_lam, ((_, _, rhs3, rhs4), (lap, abs_lap)) in enumerate(
                            zip(scaled, laps)
                        ):
                            key = 3, i_R, i_lam, i_d, i_bc
                            if psi_r is not None:
                                lpp = _laplacian_psi_times(psi_s, fluxes[i_lam], lap)
                                sups[key].add(np.abs(lpp), rhs4 * psi_s, rows, cols)
                            elif rhs4 is rhs3:
                                # Psi = 1 and Psi' = 0: (iv) is (iii)
                                sups[key] = sups[2, i_R, i_lam, i_d]
                            else:
                                sups[key].add(abs_lap, rhs4, rows, cols)

    t_axes = [np.linspace(0.0, R**2, nt) for R in R_list]
    rows_out = []
    for (i_lam, lam), (i_d, d), (i_bc, bc) in product(
        enumerate(lam_list), enumerate(d_list), enumerate(bc_list)
    ):
        by_R = []
        for i_R, (R, t, r) in enumerate(zip(R_list, t_axes, r_cols)):
            keys = ((0, i_R, i_lam), (1, i_R, i_lam), (2, i_R, i_lam, i_d),
                    (3, i_R, i_lam, i_d, i_bc))
            by_R.append(_finished_sweep(R, [sups[key] for key in keys], t, r, n_samples))
        rows_out.append(SupRatioRow(lam=lam, d=d, bc=bc, by_R=tuple(by_R)))
    return rows_out


def cutoff_estimate_sup_ratios(
    R: float,
    lam: float,
    d: int,
    bc: BoundaryCondition,
    grid: tuple[int, int] = DEFAULT_SUP_RATIO_GRID,
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
