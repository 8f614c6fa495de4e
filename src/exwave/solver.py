"""Radial finite-difference integrator for the weakly coupled damped wave
system on the exterior of the unit ball.

Each component solves

    d_tt u_l - (d_rr + (d-1)/r d_r) u_l + d_t u_l = |u_{l-1}|^(p_l),

with cyclic coupling (component 1 is forced by |u_k|^(p_1)) on r in (1, r_max),
the configured Dirichlet/Neumann/Robin condition at r = 1 and homogeneous
Dirichlet at the outer edge.  Time stepping is the three-level scheme

    (u+ - 2u + u-) / dt^2 + (u+ - u-) / (2 dt) = L u + f,

explicit in space with the damping term solved pointwise for u+ (the damping
never enters the stability constraint).  Fields are real: the blow-up theory
concerns sign-definite real data.

``run`` steps on the numerical light cone.  The three-point stencil moves the
support of compactly supported data out by exactly one node per step (speed
1/cfl in r, ahead of the unit physical cone), so after step s every field is
zero beyond node j_data + s, where j_data is the last nonzero node of the
data.  Each step therefore updates only nodes j < min(n + 1, j_data + s + 2);
every skipped node has all-zero inputs, and since |0|^p = 0 it would compute
to exactly 0, so the result is bit-identical to a full-grid step.  The three
time levels live in buffers allocated once per run, and only the displacement
is stored in the history.  ``step`` is the allocating full-grid reference
that the bit-identity gates compare ``run`` against: it forms its own forcing
(optionally linear, plus an optional external source for the
manufactured-solution tests) and returns the velocity too.  ``step``,
``apply_boundary`` and ``_laplacian`` stay in this module because
``perfbench/tracer.py`` traces them by name (``TRACED``).

``run`` also steps one row instead of k when all exponents are equal.
``InitialData`` gives every component the same data, and with p_1 = ... = p_k
each row is forced by a copy of itself through the same power, so the rows
stay bit-for-bit copies of one solution of u_tt - Lu + u_t = |u|^p.  The run
returns that row as k identical columns of the peaks and the history.  This
relies on ``_forcing`` taking the same array pow for one row as for k (see
its docstring); ``step`` always advances all k rows and is the reference.

Blow-up is detected by the max norm crossing a large threshold; the crossing
time is located inside the last step by bisection on the log-linear
interpolant of the peak norm.  First crossings of the ``SENSITIVITY_THRESHOLDS``
are recorded in the same run, giving a free threshold-sensitivity estimate.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .exponents import BoundaryCondition, BoundaryKind, ExponentVector
from .quadrature import radial_integral
from .testfn import cutoff_value, psi

DEFAULT_CFL = 0.9
DEFAULT_BLOWUP_THRESHOLD = 1e8
SENSITIVITY_THRESHOLDS = (1e6, 1e8, 1e10)


class CFLViolationError(ValueError):
    pass


class DataPositivityError(ValueError):
    pass


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes r_j = 1 + j dr, j = 0..n, on [1, r_max]."""

    r_max: float
    n: int

    def __post_init__(self):
        if self.r_max <= 1.0:
            raise ValueError("r_max must exceed 1")
        if self.n < 16:
            raise ValueError("need at least 16 cells")

    @property
    def dr(self) -> float:
        return (self.r_max - 1.0) / self.n

    @cached_property
    def r(self) -> np.ndarray:
        """The nodes, built once per grid and read-only."""
        r = 1.0 + self.dr * np.arange(self.n + 1)
        r.flags.writeable = False
        return r


@dataclass
class RadialState:
    """k displacement and k velocity fields at one time level.

    ``u_prev`` is the displacement one level back; it is scheme bookkeeping
    (None on a freshly initialized state) and not part of the public contract.
    """

    t: float
    u: np.ndarray  # (k, n+1)
    v: np.ndarray  # (k, n+1)
    u_prev: np.ndarray | None = field(default=None, repr=False)

    def peak(self) -> np.ndarray:
        """Per-component max norm."""
        return np.max(np.abs(self.u), axis=1)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v)))


@dataclass(frozen=True)
class InitialData:
    """Smooth compact bump, identical for u_0 and u_1 and for every component,
    scaled by epsilon.

    The profile reuses the cutoff bridge: B(r) = phi(((r - center)/width)^2),
    supported on |r - center| <= width with unit amplitude at the center.
    """

    center: float = 2.0
    width: float = 0.5
    epsilon: float = 1.0

    def __post_init__(self):
        if self.center - self.width <= 1.0:
            raise ValueError("bump support must stay inside r > 1")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    @property
    def support_outer(self) -> float:
        return self.center + self.width

    def profile(self, r: np.ndarray) -> np.ndarray:
        s = ((np.asarray(r, dtype=float) - self.center) / self.width) ** 2
        return np.asarray(cutoff_value(s))

    def build(self, grid: RadialGrid, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(u0, u1) arrays of shape (k, n+1); u0 = u1 = eps * bump."""
        bump = self.epsilon * self.profile(grid.r)
        u0 = np.tile(bump, (k, 1))
        return u0, u0.copy()


def weighted_data_integral(
    r: np.ndarray, u0: np.ndarray, u1: np.ndarray, d: int, bc: BoundaryCondition
) -> float:
    """omega * int (u0 + u1) Psi r^(d-1) dr for arbitrary data arrays."""
    return radial_integral(np.asarray(r, float), (u0 + u1) * psi(r, d, bc), d)


def _laplacian_nodes(
    u: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    hi: int,
    dr: float,
    radial: np.ndarray,
    d: int,
    bc: BoundaryCondition,
) -> None:
    """Write the radial Laplacian at nodes [1, hi), and the ghost-node row 0
    for flux conditions, into ``out``; other columns are left untouched.

    ``radial`` is (d-1)/r[1:-1] and ``scratch`` a work array shaped like u.
    The in-place ufunc sequence is the operation order of
    (u+ - 2u + u-)/dr^2 + ((d-1)/r) (u+ - u-)/(2 dr), so any node range gives
    the same bits as the whole grid.
    """
    lap = out[:, 1:hi]
    grad = scratch[:, : hi - 1]
    up, mid, down = u[:, 2 : hi + 1], u[:, 1:hi], u[:, : hi - 1]
    np.multiply(2.0, mid, out=lap)
    np.subtract(up, lap, out=lap)
    np.add(lap, down, out=lap)
    np.divide(lap, dr**2, out=lap)
    np.subtract(up, down, out=grad)
    np.multiply(radial[: hi - 1], grad, out=grad)
    np.divide(grad, 2.0 * dr, out=grad)
    np.add(lap, grad, out=lap)
    if bc.kind is not BoundaryKind.DIRICHLET:
        slope = bc.beta / bc.alpha
        out[:, 0] = (
            2.0 * (u[:, 1] - u[:, 0]) / dr**2
            - 2.0 * slope * u[:, 0] / dr
            + (d - 1.0) * slope * u[:, 0]
        )


def _laplacian(u: np.ndarray, grid: RadialGrid, d: int, bc: BoundaryCondition) -> np.ndarray:
    """Radial Laplacian u_rr + (d-1)/r u_r, centered differences.

    r = 1: Dirichlet rows are overwritten by the boundary anyway; for
    alpha != 0 the ghost node u_{-1} = u_1 - 2 dr (beta/alpha) u_0 realizes
    -alpha d_r u(1) ... = 0 written as d_r u(1) = (beta/alpha) u(1) at second
    order.  The outer node is pinned to zero by the caller.
    """
    out = np.zeros_like(u)
    _laplacian_nodes(
        u, out, np.empty_like(u), grid.n, grid.dr, (d - 1.0) / grid.r[1:-1], d, bc
    )
    return out


def _pin(bc: BoundaryCondition, *fields: np.ndarray) -> None:
    """Zero the strongly imposed nodes: r = 1 under Dirichlet, and the outer edge."""
    for a in fields:
        if bc.kind is BoundaryKind.DIRICHLET:
            a[:, 0] = 0.0
        a[:, -1] = 0.0


def apply_boundary(state: RadialState, bc: BoundaryCondition) -> RadialState:
    """Enforce the strong part of the boundary conditions on a state.

    Dirichlet pins u(r=1) = 0; the flux conditions (alpha != 0) live in the
    ghost-node Laplacian and need no strong enforcement.  The outer edge is
    always pinned to zero.
    """
    bc.require_dissipative()
    _pin(bc, state.u, state.v)
    if state.u_prev is not None:
        _pin(bc, state.u_prev)
    return state


def _forcing(u: np.ndarray, rows: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """|u_{l-1}|^(p_l) as a fresh contiguous array.

    ``rows`` is ``ExponentVector.sources`` and ``powers`` the exponents as a
    full-width (k, n+1) array, of which the first u.shape[1] columns are used.
    The power must run on a contiguous temporary: numpy's vectorized pow and
    its strided fallback can differ in the last bit (seen at p = 2).  The
    exponents are full width so that every k, including k = 1, takes the same
    array pow: ``**`` with a size-1 exponent takes numpy's scalar fast path,
    which squares at p = 2 and differs in the last bit from the array pow, and
    ``run`` relies on one row giving the bits of each row of k.
    """
    return np.power(np.abs(u[rows]), powers[:, : u.shape[1]])


def _velocity(
    u_new: np.ndarray, u: np.ndarray, u_prev: np.ndarray, dt: float, out: np.ndarray
) -> None:
    """Second-order one-sided velocity (3u+ - 4u + u-)/(2 dt) at the new level."""
    np.multiply(3.0, u_new, out=out)
    out -= 4.0 * u
    out += u_prev
    out /= 2.0 * dt


class _Kernel:
    """One time level of the scheme on the first m nodes, for a given forcing.

    Holds the per-trajectory constants and two scratch arrays, so a run
    allocates them once.  ``run`` passes ``_forcing`` of its current level;
    ``step`` forms its own forcing and advances through the same kernel.
    """

    def __init__(
        self, dt: float, p: ExponentVector, d: int, bc: BoundaryCondition, grid: RadialGrid
    ):
        k = p.k
        self.dt = dt
        self.a = 1.0 / dt**2 + 1.0 / (2.0 * dt)
        self.d = d
        self.bc = bc
        self.n = grid.n
        self.dr = grid.dr
        self.radial = (d - 1.0) / grid.r[1:-1]
        self.rows = np.array(p.sources)  # the row order of np.roll(u, 1, axis=0)
        self.powers = np.repeat(np.array(p.p)[:, None], grid.n + 1, axis=1)
        self.lap = np.zeros((k, grid.n + 1))
        self.scratch = np.empty((k, grid.n + 1))

    def advance(
        self,
        u: np.ndarray,
        u_prev: np.ndarray | None,
        v: np.ndarray,
        f: np.ndarray,
        m: int,
        out: np.ndarray,
        v_out: np.ndarray | None = None,
    ) -> None:
        """Write the next level at nodes [0, m) into ``out`` (before the strong
        boundary values), and its velocity into ``v_out`` when given; ``f`` is
        the forcing on nodes [0, m).

        Without ``u_prev`` (the initial level) this is the second-order Taylor
        start u + dt v + dt^2/2 (L u + f - v); otherwise the three-level leapfrog
        with semi-implicit damping.  ``out`` must not share memory with the
        inputs.
        """
        dt = self.dt
        _laplacian_nodes(
            u, self.lap, self.scratch, min(m, self.n), self.dr, self.radial, self.d, self.bc
        )
        lap = self.lap[:, :m]
        new = out[:, :m]
        if u_prev is None:
            drift = lap + f - v[:, :m]
            new[...] = u[:, :m] + dt * v[:, :m] + 0.5 * dt**2 * drift
            if v_out is not None:
                v_out[:, :m] = (new - u[:, :m]) / dt + 0.5 * dt * drift
            return
        back = self.scratch[:, :m]
        np.multiply(2.0, u[:, :m], out=new)
        np.subtract(new, u_prev[:, :m], out=new)
        np.divide(new, dt**2, out=new)
        np.divide(u_prev[:, :m], 2.0 * dt, out=back)
        np.add(new, back, out=new)
        np.add(new, lap, out=new)
        np.add(new, f, out=new)
        np.divide(new, self.a, out=new)
        if v_out is not None:
            _velocity(new, u[:, :m], u_prev[:, :m], dt, v_out[:, :m])


def _check_cfl(dt: float, cfl: float, grid: RadialGrid) -> None:
    if dt > cfl * grid.dr * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.3e} exceeds CFL limit {cfl:.2f} * dr = {cfl * grid.dr:.3e}"
        )


def step(
    state: RadialState,
    dt: float,
    p: ExponentVector,
    d: int,
    bc: BoundaryCondition,
    grid: RadialGrid,
    source: Callable[[float], np.ndarray] | None = None,
    cfl: float = DEFAULT_CFL,
    nonlinear: bool = True,
) -> RadialState:
    """Advance one time level on the full grid (the reference for ``run``).

    The forcing f is ``_forcing`` of the state, or zeros when not
    ``nonlinear``, plus ``source(t)`` when given.  A state without ``u_prev``
    (the initial level) is started with the second-order Taylor step
    u1 = u0 + dt v0 + dt^2/2 (L u0 + f - v0); subsequent levels use the
    three-level leapfrog with semi-implicit damping.  The same dt must be used
    along a trajectory.
    """
    _check_cfl(dt, cfl, grid)
    if not state.is_finite():
        raise FloatingPointError("non-finite state; blow-up should have been flagged")
    kernel = _Kernel(dt, p, d, bc, grid)
    if nonlinear:
        f = _forcing(state.u, kernel.rows, kernel.powers)
    else:
        f = np.zeros(state.u.shape)
    if source is not None:
        f = f + source(state.t)
    u_new = np.empty_like(state.u)
    v_new = np.empty_like(state.u)
    kernel.advance(state.u, state.u_prev, state.v, f, grid.n + 1, u_new, v_new)
    new = RadialState(t=state.t + dt, u=u_new, v=v_new, u_prev=state.u.copy())
    return apply_boundary(new, bc)


def energy(
    state: RadialState, grid: RadialGrid, d: int, dt: float, bc: BoundaryCondition
) -> float:
    """Discrete leapfrog energy of a mid-trajectory state (``u_prev`` present),
    summed over all components: ||(u - u_prev)/dt||^2 + <grad u, grad u_prev>
    weighted by r^(d-1) dr, which is the quantity the damped scheme dissipates
    (the nodal form with the one-sided velocity oscillates at O((dt/dr)^2) per
    mode).  A Robin condition contributes the boundary energy
    (beta/alpha) u(1)^2 per component.
    """
    r = grid.r
    dr = grid.dr
    rmid = 0.5 * (r[1:] + r[:-1])
    du = (state.u - state.u_prev) / dt
    g1 = (state.u[:, 1:] - state.u[:, :-1]) / dr
    g2 = (state.u_prev[:, 1:] - state.u_prev[:, :-1]) / dr
    kin = np.sum(du**2 * r ** (d - 1.0)) * dr
    pot = np.sum(g1 * g2 * rmid ** (d - 1.0)) * dr
    boundary = 0.0
    if bc.kind is BoundaryKind.ROBIN:
        boundary = (bc.beta / bc.alpha) * float(np.sum(state.u[:, 0] ** 2))
    return float(kin + pot + boundary)


class Verdict(str, Enum):
    BLEW_UP = "blew-up"
    SURVIVED = "survived-horizon"


@dataclass
class SolutionHistory:
    """Time-indexed radial snapshots, the quadrature module's input."""

    times: np.ndarray          # (m,)
    r: np.ndarray              # (n+1,)
    u: np.ndarray              # (m, k, n+1)
    horizon: float = math.inf  # configured T_end of the producing run


def _dependence_radius(data: InitialData, T_end: float) -> float:
    """The one r_max rule: a unit-speed signal leaving the bump's outer edge
    reaches r = 1 + (support_outer - 1) + T_end by the horizon."""
    return 1.0 + (data.support_outer - 1.0) + T_end


@dataclass(frozen=True)
class SolverConfig:
    p: ExponentVector
    d: int
    bc: BoundaryCondition
    grid: RadialGrid
    T_end: float
    data: InitialData
    cfl: float = DEFAULT_CFL
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD
    history_snapshots: int = 256  # target number of stored time levels; 0 disables

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.T_end <= 0:
            raise ValueError("T_end must be positive")
        self.bc.require_dissipative()
        if not 0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.blowup_threshold < 1e4:
            raise ValueError("blow-up threshold unreasonably small")
        if self.data.support_outer >= self.grid.r_max:
            raise ValueError("initial bump support must lie inside the grid")

    @property
    def dt(self) -> float:
        return self.cfl * self.grid.dr

    def domain_of_dependence_ok(self) -> bool:
        """Unit propagation speed: the outer edge never influences the run if
        r_max >= 1 + support + T_end."""
        return self.grid.r_max >= _dependence_radius(self.data, self.T_end)

    @classmethod
    def with_auto_domain(
        cls,
        p: ExponentVector,
        d: int,
        bc: BoundaryCondition,
        n: int,
        T_end: float,
        data: InitialData,
        margin: float = 1.0,
        **kwargs,
    ) -> "SolverConfig":
        """Size r_max from the domain-of-dependence rule plus ``margin``."""
        r_max = _dependence_radius(data, T_end) + margin
        return cls(
            p=p, d=d, bc=bc, grid=RadialGrid(r_max=r_max, n=n), T_end=T_end,
            data=data, **kwargs,
        )


@dataclass
class RunRecord:
    """Full provenance of one simulation."""

    config: SolverConfig
    verdict: Verdict
    t_blow: float | None
    t_final: float
    peak_times: np.ndarray
    peaks: np.ndarray                      # (steps+1, k)
    threshold_crossings: dict[float, float]
    nan_encountered: bool = False
    data_positivity: float = 0.0
    history: SolutionHistory | None = None

    @property
    def threshold_sensitivity(self) -> float | None:
        """Spread of the crossing times of the lowest and highest recorded
        thresholds; insensitivity to the threshold choice means this stays
        within a couple of time steps."""
        lows = [m for m in self.threshold_crossings if m < self.config.blowup_threshold]
        highs = [m for m in self.threshold_crossings if m > self.config.blowup_threshold]
        if not lows or not highs:
            return None
        return self.threshold_crossings[max(highs)] - self.threshold_crossings[min(lows)]


def _crossing_time(t0: float, g0: float, t1: float, g1: float, M: float) -> float:
    """Bisect the log-linear interpolant of the peak norm for the M-crossing."""
    if g0 <= 0.0:
        return t1
    a, b = math.log(max(g0, 1e-300)), math.log(g1)
    target = math.log(M)

    def val(t: float) -> float:
        w = (t - t0) / (t1 - t0)
        return a + w * (b - a)

    lo, hi = t0, t1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if val(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run(config: SolverConfig) -> RunRecord:
    """Integrate until blow-up or the horizon.

    Deterministic for a given config.  Refuses initial data whose weighted
    integral against Psi is not positive (the blow-up theory's data
    condition).  After the main threshold crossing, stepping continues for a
    short grace period to record the highest sensitivity threshold.

    Steps only the nodes inside the numerical light cone and rotates three
    preallocated time levels; the results are bit-identical to a loop of
    ``step`` calls.  The velocity is formed only on the Taylor start and near
    overflow, where it decides the non-finite verdict just as a full
    finiteness scan would.  With equal exponents it steps one row and copies
    it into the k columns (see the module docstring).
    """
    grid = config.grid
    bc = config.bc
    k = config.p.k
    # equal exponents keep the k rows bit-for-bit copies: step one of them
    stepped = ExponentVector.of(config.p.p[0]) if config.p.all_equal else config.p
    k_stepped = stepped.k
    n = grid.n
    u0, u1 = config.data.build(grid, k_stepped)  # zero on both pinned nodes
    positivity = weighted_data_integral(grid.r, u0[0], u1[0], config.d, bc)
    if config.data.epsilon > 0 and positivity <= 0.0:
        raise DataPositivityError(
            f"int (u0 + u1) Psi dx = {positivity:.3e} must be positive"
        )
    if not config.domain_of_dependence_ok():
        warnings.warn(
            "r_max < 1 + support + T_end: the outer wall can influence the "
            "solution before the horizon",
            stacklevel=2,
        )
    dt = config.dt
    _check_cfl(dt, config.cfl, grid)
    n_steps = max(1, math.ceil(config.T_end / dt))
    stride = (
        max(1, n_steps // config.history_snapshots)
        if config.history_snapshots > 0
        else 0
    )
    live = np.flatnonzero(np.any(u0 != 0.0, axis=0) | np.any(u1 != 0.0, axis=0))
    front = (int(live[-1]) if live.size else 0) + 2  # m = front + step
    # below this peak, (3u+ - 4u + u-)/(2 dt) cannot overflow
    v_guard = sys.float_info.max / 16.0 * min(1.0, 2.0 * dt)

    kernel = _Kernel(dt, stepped, config.d, bc, grid)
    u_prev, u_cur, u_new, spare = None, u0, np.zeros_like(u0), np.zeros_like(u0)
    v_new = u1.copy()  # velocity of the newest level; the Taylor start refills it

    times = np.empty(n_steps + 1)
    peaks = np.empty((n_steps + 1, k_stepped))
    times[0] = 0.0
    peaks[0] = np.max(np.abs(u0), axis=1)
    levels = 1

    cap = n_steps // stride + 3 if stride else 0
    hist_t = np.empty(cap)
    hist_u = np.empty((cap, k_stepped, n + 1))
    n_hist = 0

    def snapshot(t: float, u: np.ndarray):
        nonlocal n_hist
        hist_t[n_hist] = t
        hist_u[n_hist] = u
        n_hist += 1

    if stride:
        snapshot(0.0, u0)

    thresholds = sorted(set(SENSITIVITY_THRESHOLDS) | {config.blowup_threshold})
    crossings: dict[float, float] = {}
    verdict = Verdict.SURVIVED
    t_blow: float | None = None
    nan_flag = False
    grace_left = -1
    t = 0.0
    prev_peak = older_peak = float(np.max(peaks[0]))

    for istep in range(1, n_steps + 1):
        m = min(n + 1, front + istep)
        starting = u_prev is None
        f = _forcing(u_cur[:, :m], kernel.rows, kernel.powers)
        kernel.advance(u_cur, u_prev, u1, f, m, u_new, v_new if starting else None)
        _pin(bc, u_new)
        t = t + dt
        pk = peaks[istep]
        np.abs(u_new[:, :m]).max(axis=1, out=pk)
        peak_now = float(pk.max())
        finite = math.isfinite(peak_now)
        if finite and (starting or max(peak_now, prev_peak, older_peak) > v_guard):
            # no pin needed: at the pinned nodes every input is 0, so v is 0
            if not starting:
                _velocity(u_new[:, :m], u_cur[:, :m], u_prev[:, :m], dt, v_new[:, :m])
            finite = bool(np.all(np.isfinite(v_new[:, :m])))
        if not finite:
            nan_flag = True
            if t_blow is None:
                verdict = Verdict.BLEW_UP
                t_blow = t
                crossings.setdefault(config.blowup_threshold, t)
            break
        times[istep] = t
        levels += 1
        for M in thresholds:
            if M not in crossings and peak_now > M:
                crossings[M] = _crossing_time(t - dt, prev_peak, t, peak_now, M)
        if t_blow is None and config.blowup_threshold in crossings:
            verdict = Verdict.BLEW_UP
            t_blow = crossings[config.blowup_threshold]
            if stride:  # close the history at the crossing step
                snapshot(t, u_new)
            grace_left = 200
        elif stride and t_blow is None and (istep % stride == 0 or istep == n_steps):
            snapshot(t, u_new)
        if grace_left >= 0:
            if max(thresholds) in crossings or grace_left == 0:
                break
            grace_left -= 1
        # rotate the time levels; the recycled buffer is zero beyond the front
        u_prev, u_cur, u_new = u_cur, u_new, (spare if u_prev is None else u_prev)
        older_peak, prev_peak = prev_peak, peak_now

    peaks, hist_u = peaks[:levels], hist_u[:n_hist]
    if k_stepped < k:  # every component is a copy of the stepped row
        peaks = np.repeat(peaks, k, axis=1)
        hist_u = np.repeat(hist_u, k, axis=1)
    history = None
    if stride:
        history = SolutionHistory(
            times=hist_t[:n_hist],
            r=grid.r,
            u=hist_u,
            horizon=config.T_end,
        )
    return RunRecord(
        config=config,
        verdict=verdict,
        t_blow=t_blow,
        t_final=t,
        peak_times=times[:levels],
        peaks=peaks,
        threshold_crossings=crossings,
        nan_encountered=nan_flag,
        data_positivity=positivity,
        history=history,
    )
