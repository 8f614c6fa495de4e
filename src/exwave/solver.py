"""Radial finite-difference integrator for the weakly coupled damped wave
system on the exterior of the unit ball.

Each component solves

    d_tt u_l - (d_rr + (d-1)/r d_r) u_l + d_t u_l = |u_{l-1}|^(p_l),

with cyclic coupling (component 1 is forced by |u_k|^(p_1)) on r in (1, r_max),
the configured Dirichlet/Neumann/Robin condition at r = 1 and homogeneous
Dirichlet at the outer edge.  Time stepping is the three-level scheme

    (u+ - 2u + u-) / dt^2 + (u+ - u-) / (2 dt) = L u + f,

explicit in space with the damping term solved pointwise for u+ (the damping
never enters the stability constraint), and stepped as one five-term stencil
(see ``_Kernel``).  Fields are real: the blow-up theory concerns
sign-definite real data.

``run_ladder`` steps on the numerical light cone.  The three-point stencil
moves the support of compactly supported data out by exactly one node per
step (speed 1/cfl in r, ahead of the unit physical cone), so after step s
every field is zero beyond node j_data + s, where j_data is the last nonzero
node of the data.  Each step therefore updates only nodes
j < min(n + 1, j_data + s + 2); every skipped node has all-zero inputs, and
since |0|^p = 0 it would compute to exactly +0.0, so the result is
bit-identical to a full-grid step.  For the same reason the strongly imposed
nodes (r = 1 under Dirichlet, and the outer edge) stay +0.0 without a pin.
The three time levels and |u| of the newest level live in buffers allocated
once per ladder, and only the displacement is stored in the history.
``step`` is the allocating full-grid reference that the bit-identity gates
compare against: it forms its own forcing (optionally linear, plus an
optional external source for the manufactured-solution tests), pins the
boundary and returns the velocity too.  ``step``, ``apply_boundary`` and
``_laplacian`` stay in this module because ``perfbench/tracer.py`` traces
them by name (``TRACED``).

A ladder is one config at several epsilons, which share the grid, ``dt`` and
horizon, so ``run_ladder`` steps them in lockstep as column blocks of one
array, and ``run`` is its one-epsilon case.  The ladder's arrays are
node-major, shape (n+1, columns): a step's light-cone prefix ``a[:m]`` is
then one contiguous block, as is every stencil shift of it, and each ufunc
runs as one flat loop instead of one short loop per row.  ``step`` and
``_laplacian`` keep the public (k, n+1) layout and pass transposed views
through the same kernel.  With unequal exponents a block holds the k
components and the cyclic gather stays inside it; with equal exponents a
block is one column.  ``InitialData`` gives every component the same data,
and with p_1 = ... = p_k each component is forced by a copy of itself
through the same power, so the k components would stay bit-for-bit copies
of one solution of u_tt - Lu + u_t = |u|^p: the record repeats that column
as k identical columns of the peaks and the history.  This relies on
``_forcing`` taking the same array pow for any number of columns (see its
docstring).  A run that blows up (after its grace steps), goes non-finite or
reaches the horizon leaves the batch, and the remaining columns close up
unchanged, so the run-time contract is that each run of a ladder is
bit-identical to its own loop of ``step`` calls.

Blow-up is detected by the max norm crossing a large threshold; the crossing
time inside the last step is where the log-linear interpolant of the peak
norm reaches the threshold, in closed form.  First crossings of the
``SENSITIVITY_THRESHOLDS`` are recorded in the same run, giving a free
threshold-sensitivity estimate.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

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
        if not 1.0 < self.r_max < math.inf:
            raise ValueError(f"r_max must be finite and exceed 1, got {self.r_max!r}")
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
        for name in ("center", "width", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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


def _weights(dr: float, d: int, a: float, up: np.ndarray, down: np.ndarray) -> None:
    """Turn the nodes r_j in ``up`` into the stencil's weight of u_{j+1},
    (1/dr^2 + (d-1)/(2 r_j dr))/a, and write that of u_{j-1}, with - for +,
    into ``down``: in place and on equal shapes, as a ufunc that broadcasts
    takes a buffer of its own."""
    np.multiply(up, 2.0, out=up)
    np.multiply(up, dr, out=up)
    np.divide(d - 1.0, up, out=up)
    np.subtract(1.0 / dr**2, up, out=down)
    np.add(1.0 / dr**2, up, out=up)
    np.divide(up, a, out=up)
    np.divide(down, a, out=down)


def _ghost_row(
    up: float, down: float, centre: float, dr: float, bc: BoundaryCondition
) -> tuple[float, float] | None:
    """The weights of (u_1, u_0) at node 0 from the stencil's weights at
    r = 1, None under Dirichlet: the ghost node u_{-1} = u_1 - 2 dr
    (beta/alpha) u_0 realizes d_r u(1) = (beta/alpha) u(1) at second order."""
    if bc.kind is BoundaryKind.DIRICHLET:
        return None
    return up + down, centre - 2.0 * dr * (bc.beta / bc.alpha) * down


def _laplacian(u: np.ndarray, grid: RadialGrid, d: int, bc: BoundaryCondition) -> np.ndarray:
    """Radial Laplacian u_rr + (d-1)/r u_r, centered differences: the
    stencil at a = 1 with the centre weight -2/dr^2; zero at r = 1 under
    Dirichlet and at the outer node."""
    up, down, dr = grid.r[:-1].copy(), np.empty(grid.n), grid.dr
    _weights(dr, d, 1.0, up, down)
    centre = -2.0 / dr**2
    out = np.zeros_like(u)
    out[:, 1:-1] = up[1:] * u[:, 2:] + down[1:] * u[:, :-2] + centre * u[:, 1:-1]
    ghost = _ghost_row(up[0], down[0], centre, dr, bc)
    if ghost is not None:
        out[:, 0] = ghost[0] * u[:, 1] + ghost[1] * u[:, 0]
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


def _forcing(
    absu: np.ndarray,
    sources: tuple[int, ...] | None,
    powers: np.ndarray,
    out: np.ndarray | None,
) -> np.ndarray:
    """|u_{l-1}|^(p_l) on the first m nodes, from ``absu`` = |u| on those
    nodes (node-major, (m, columns)), returned.

    ``sources`` is ``ExponentVector.sources``, gathered inside each block of
    k columns into ``out[:m]``, or None for one column per block (equal
    exponents), which powers ``absu`` in place with no gather.  ``powers`` holds
    the exponents on every node, of which the first m rows are used.  The
    power must run on contiguous arrays: numpy's vectorized pow and its
    strided fallback can differ in the last bit (seen at p = 2).  The
    exponents are stored on every node so that every column count, including
    one, takes the same array pow: an exponent broadcast with stride 0 takes
    numpy's scalar fast path, which squares at p = 2 and differs in the last
    bit from the array pow, and ``run_ladder`` relies on one column giving
    the bits of each column of k.
    """
    m, width = absu.shape
    if sources is None:
        return np.power(absu, powers[:m], out=absu)
    k = len(sources)
    f = out[:m]
    blocks, src = f.reshape(m, width // k, k), absu.reshape(m, width // k, k)
    for l, s in enumerate(sources):
        blocks[..., l] = src[..., s]
    return np.power(f, powers[:m], out=f)


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

    The leapfrog with semi-implicit damping is the five-term update
    u+_j = A_j u_{j+1} + B_j u_{j-1} + C u_j + D u-_j + E f_j, with
    a = 1/dt^2 + 1/(2 dt), A_j and B_j from ``_weights``,
    C = (2/dt^2 - 2/dr^2)/a, D = (1/(2 dt) - 1/dt^2)/a and E = 1/a: five
    multiplies and four adds per node, and no division.  Node 0 is the
    ``_ghost_row`` of the same weights.  The Taylor start
    u + dt v + dt^2/2 (L u + f - v) is h = a dt^2/2 times the same update
    with the weight T = (dt - dt^2/2)/h on v in place of D u-.

    Holds the ``powers``, the A and B tiles, a ``scratch`` array and, for
    k > 1, the ``forcing`` buffer of the gather, for ``copies`` blocks of k
    columns, node-major, so a ladder allocates them once.  ``run_ladder``
    passes ``_forcing`` of its current level; ``step`` forms its own forcing
    and advances through the same kernel.
    """

    def __init__(
        self, dt: float, p: ExponentVector, d: int, bc: BoundaryCondition, grid: RadialGrid,
        copies: int = 1,
    ):
        k = self.k = p.k
        self.dt, self.d, self.n, self.dr, self.p = dt, d, grid.n, grid.dr, p.p
        self.a = a = 1.0 / dt**2 + 1.0 / (2.0 * dt)
        self.C = (2.0 / dt**2 - 2.0 / grid.dr**2) / a
        self.D = (1.0 / (2.0 * dt) - 1.0 / dt**2) / a
        self.E = 1.0 / a
        self.h = 0.5 * dt**2 * a
        self.T = (dt - 0.5 * dt**2) / self.h
        self.sources = None if k == 1 else p.sources
        self.r = grid.r[:-1]
        # the flat memory of powers, A, B, scratch and, for k > 1, forcing
        self.memory = [np.empty((grid.n + 1) * copies * k) for _ in range(4 + (k > 1))]
        self.keep_blocks(copies)
        self.ghost = _ghost_row(self.A[0, 0], self.B[0, 0], self.C, grid.dr, bc)

    def keep_blocks(self, copies: int) -> None:
        """Step only the first ``copies`` blocks from now on: lay the arrays
        out at that width over the front of their own memory."""
        width = copies * self.k
        n = self.n
        self.powers, self.A, self.B, self.scratch, *forcing = (
            mem[: rows * width].reshape(rows, width)
            for mem, rows in zip(self.memory, (n + 1, n, n, n + 1, n + 1))
        )
        self.forcing = forcing[0] if forcing else None
        self.powers[...] = np.tile(self.p, copies)
        self.A[...] = self.r[:, None]
        _weights(self.dr, self.d, self.a, self.A, self.B)

    def _stencil(
        self, u: np.ndarray, weight: float, back: np.ndarray, f: np.ndarray, m: int,
        out: np.ndarray,
    ) -> None:
        """Write A_j u_{j+1} + B_j u_{j-1} + C u_j + ``weight`` back_j + E f_j,
        summed left to right, at nodes [0, m) into ``out``: zero at the
        pinned nodes, and at every node the bits of the whole grid's."""
        hi = min(m, self.n)
        inner, w = out[1:hi], self.scratch[1:hi]
        np.multiply(self.A[1:hi], u[2 : hi + 1], out=inner)
        np.multiply(self.B[1:hi], u[: hi - 1], out=w)
        np.add(inner, w, out=inner)
        for c, x in ((self.C, u), (weight, back), (self.E, f)):
            np.multiply(c, x[1:hi], out=w)
            np.add(inner, w, out=inner)
        if self.ghost is None:
            out[0] = 0.0
        else:
            up, centre = self.ghost
            out[0] = up * u[1] + centre * u[0] + weight * back[0] + self.E * f[0]
        if m > self.n:
            out[self.n] = 0.0

    def advance(
        self, u: np.ndarray, u_prev: np.ndarray | None, v: np.ndarray, f: np.ndarray, m: int,
        out: np.ndarray, v_out: np.ndarray | None = None,
    ) -> None:
        """Write the next level at nodes [0, m) into ``out``, and its velocity
        into ``v_out`` when given; ``f`` is the forcing on nodes [0, m).
        Every array is node-major.

        Without ``u_prev`` (the initial level) this is the Taylor start, whose
        velocity is v+ = 2 (u+ - u)/dt - v; otherwise the leapfrog.  ``out``
        must not share memory with ``u``, ``u_prev`` or ``f``; ``v_out`` may
        be ``v``.
        """
        new = out[:m]
        if u_prev is not None:
            self._stencil(u, self.D, u_prev, f, m, out)
            if v_out is not None:
                _velocity(new, u[:m], u_prev[:m], self.dt, v_out[:m])
            return
        self._stencil(u, self.T, v, f, m, out)
        np.multiply(new, self.h, out=new)
        if v_out is not None:
            vel = self.scratch[:m]
            np.subtract(new, u[:m], out=vel)
            np.multiply(vel, 2.0 / self.dt, out=vel)
            np.subtract(vel, v[:m], out=v_out[:m])


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
    if dt > cfl * grid.dr * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.3e} exceeds CFL limit {cfl:.2f} * dr = {cfl * grid.dr:.3e}"
        )
    if not state.is_finite():
        raise FloatingPointError("non-finite state; blow-up should have been flagged")
    kernel = _Kernel(dt, p, d, bc, grid)
    if nonlinear:
        f = _forcing(np.abs(state.u).T, kernel.sources, kernel.powers, kernel.forcing)
    else:
        f = np.zeros(state.u.shape).T
    if source is not None:
        f = f + source(state.t).T
    u_new = np.empty_like(state.u)
    v_new = np.empty_like(state.u)
    u_prev = None if state.u_prev is None else state.u_prev.T
    kernel.advance(state.u.T, u_prev, state.v.T, f, grid.n + 1, u_new.T, v_new.T)
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
        if not 0 < self.T_end < math.inf:
            raise ValueError(f"T_end must be positive and finite, got {self.T_end!r}")
        self.bc.require_dissipative()
        if not 0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if math.isnan(self.blowup_threshold):
            raise ValueError("blowup_threshold must be a number, got nan")
        if self.blowup_threshold < 1e4:
            raise ValueError("blow-up threshold unreasonably small")
        if self.history_snapshots < 0:
            raise ValueError(f"history_snapshots must be >= 0, got {self.history_snapshots}")
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
    t_blow: float | None
    t_final: float
    peak_times: np.ndarray
    peaks: np.ndarray                      # (steps+1, k)
    threshold_crossings: dict[float, float]
    nan_encountered: bool = False
    data_positivity: float = 0.0
    history: SolutionHistory | None = None
    wall_s: float = 0.0  # from the ladder's start to the step this run left it

    @property
    def verdict(self) -> Verdict:
        return Verdict.SURVIVED if self.t_blow is None else Verdict.BLEW_UP

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
    """Where the log-linear interpolant of the peak norm, which is linear in t,
    reaches M: t1 when g0 <= 0, t0 when g0 already reaches M."""
    if g0 <= 0.0:
        return t1
    a, target = math.log(max(g0, 1e-300)), math.log(M)
    if a >= target:
        return t0
    return t0 + (target - a) / (math.log(g1) - a) * (t1 - t0)


def run(config: SolverConfig) -> RunRecord:
    """Integrate one config until blow-up or the horizon: the one-epsilon
    case of ``run_ladder``."""
    return _step_ladder(config, (config.data.epsilon,))[0]


# steps a run keeps going after its blow-up crossing, to record the highest
# sensitivity threshold
_GRACE_STEPS = 200


@dataclass
class _Rung:
    """One epsilon's bookkeeping while its block is in a ladder's batch."""

    config: SolverConfig
    col: int  # its first column in the ladder's peaks
    positivity: float
    history: list | None  # (t, u) snapshots, None when the ladder stores none
    crossings: dict[float, float] = field(default_factory=dict)
    nan_flag: bool = False
    deadline: int | None = None  # its last grace step
    levels: int = 0
    t_final: float = 0.0
    wall_s: float = 0.0

    def leave(self, levels: int, t: float, wall_s: float) -> None:
        self.levels, self.t_final, self.wall_s = levels, t, wall_s


def _keep_columns(a: np.ndarray, sel: np.ndarray, m: int) -> np.ndarray:
    """Columns ``sel`` of the node-major ``a``, which is zero beyond node m,
    laid out over the front of a's own memory, zero beyond node m again."""
    kept = a[:m, sel]
    out = a.reshape(-1)[: a.shape[0] * sel.size].reshape(a.shape[0], sel.size)
    out[:m] = kept
    out[m:] = 0.0
    return out


def _column_max(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The column maxima of the node-major ``a``, reduced along the rows of a
    transposed copy in ``scratch``'s memory: numpy's max over axis 0 of a
    few columns runs one short loop per node and is many times slower.  max
    is exact, so the bits are those of either reduction."""
    rows = a.T  # contiguous already for one column
    if a.shape[1] > 1:
        rows = scratch.reshape(-1)[: a.size].reshape(rows.shape)
        np.copyto(rows, a.T)
    return rows.max(axis=1)


def _next_event(batch: list[_Rung], istep: int, stride: int, n_steps: int) -> int:
    """The first step after ``istep`` at which a rung's grace ends or a
    history snapshot is due."""
    events = [rung.deadline for rung in batch if rung.deadline is not None]
    if stride and any(r.config.blowup_threshold not in r.crossings for r in batch):
        events.append(min((istep // stride + 1) * stride, n_steps))
    return min(events, default=n_steps + 1)


def run_ladder(base: SolverConfig, epsilons: Sequence[float]) -> tuple[RunRecord, ...]:
    """Integrate ``base`` at each epsilon until blow-up or the horizon, all
    in one stepping loop; record i is that of ``base`` with epsilon
    ``epsilons[i]``.

    Deterministic for a given config.  Refuses initial data whose weighted
    integral against Psi is not positive (the blow-up theory's data
    condition).  After the main threshold crossing, a run continues for
    ``_GRACE_STEPS`` steps to record the highest sensitivity threshold.

    Steps each epsilon as a block of columns (see the module docstring) on the
    nodes inside the numerical light cone and rotates three preallocated
    time levels; every run is bit-identical to a loop of ``step`` calls.
    |u| of the new level is formed once per step: its column maxima are the
    peaks and it is the next step's forcing base.  The per-rung Python
    bookkeeping runs only on the steps where the batch's peak passes the
    lowest uncrossed threshold or the velocity guard, or a snapshot or a
    grace end is due.  The velocity is formed only on the Taylor start and
    near overflow, where it decides the non-finite verdict just as a full
    finiteness scan would.  A record's ``wall_s`` is the time from this
    call to the step at which its run left the batch.
    """
    return _step_ladder(base, epsilons)


def _step_ladder(base: SolverConfig, epsilons: Sequence[float]) -> tuple[RunRecord, ...]:
    """The body of ``run_ladder``."""
    t_start = time.perf_counter()
    configs = [replace(base, data=replace(base.data, epsilon=e)) for e in epsilons]
    grid = base.grid
    bc = base.bc
    k = base.p.k
    # equal exponents keep the k components bit-for-bit copies: step one of them
    stepped = ExponentVector.of(base.p.p[0]) if base.p.all_equal else base.p
    ks = stepped.k
    n = grid.n
    # (u0, u1) of every epsilon as blocks of ks columns; zero on both pinned nodes
    width = len(configs) * ks
    u_cur, v = np.empty((n + 1, width)), np.empty((n + 1, width))
    positivity = []
    for i, c in enumerate(configs):
        u0, u1 = c.data.build(grid, ks)
        u_cur[:, i * ks : (i + 1) * ks], v[:, i * ks : (i + 1) * ks] = u0.T, u1.T
        positivity.append(weighted_data_integral(grid.r, u0[0], u1[0], base.d, bc))
    for c, pos in zip(configs, positivity):
        if c.data.epsilon > 0 and not pos > 0.0:
            raise DataPositivityError(f"int (u0 + u1) Psi dx = {pos:.3e} must be positive")
    if not base.domain_of_dependence_ok():
        warnings.warn(
            "r_max < 1 + support + T_end: the outer wall can influence the "
            "solution before the horizon",
            # run and run_ladder both call this directly: name their caller
            stacklevel=3,
        )
    dt = base.dt
    n_steps = max(1, math.ceil(base.T_end / dt))
    stride = max(1, n_steps // base.history_snapshots) if base.history_snapshots > 0 else 0
    live = np.flatnonzero(np.any(u_cur != 0.0, axis=1) | np.any(v != 0.0, axis=1))
    front = (int(live[-1]) if live.size else 0) + 2  # m = front + step
    # below this peak, (3u+ - 4u + u-)/(2 dt) cannot overflow
    v_guard = sys.float_info.max / 16.0 * min(1.0, 2.0 * dt)

    rungs = [
        _Rung(
            c, i * ks, pos, [(0.0, u_cur[:, i * ks : (i + 1) * ks].T.copy())] if stride else None
        )
        for i, (c, pos) in enumerate(zip(configs, positivity))
    ]
    batch = list(rungs)
    kernel = _Kernel(dt, stepped, base.d, bc, grid, copies=len(batch))
    u_prev, u_new = None, np.zeros_like(u_cur)
    # |u| of the newest level, zero beyond the front; _forcing may power it in place
    absu = np.abs(u_cur)
    cols = np.arange(width)  # the peaks columns of the batch's columns

    times = np.empty(n_steps + 1)
    peaks = np.empty((n_steps + 1, width))
    times[0] = 0.0
    peaks[0] = absu.max(axis=0)

    thresholds = sorted(set(SENSITIVITY_THRESHOLDS) | {base.blowup_threshold})
    watch = min(thresholds[0], v_guard)
    next_event = _next_event(batch, 0, stride, n_steps)
    t = 0.0
    prev_top = older_top = float(peaks[0].max())

    for istep in range(1, n_steps + 1):
        m = min(n + 1, front + istep)
        starting = u_prev is None
        f = _forcing(absu[:m], kernel.sources, kernel.powers, kernel.forcing)
        # the Taylor start writes the velocity over the data's, which only it reads
        kernel.advance(u_cur, u_prev, v, f, m, u_new, v)
        t = t + dt
        times[istep] = t
        np.abs(u_new[:m], out=absu[:m])
        pk = _column_max(absu[:m], kernel.scratch)  # the scratch is free again
        peaks[istep, cols] = pk
        top = float(pk.max())
        left = []
        if (
            starting
            or istep >= next_event
            or not (top <= watch and prev_top <= v_guard and older_top <= v_guard)
        ):
            due = stride and (istep % stride == 0 or istep == n_steps)  # snapshot step
            for slot, rung in enumerate(batch):
                block = slice(slot * ks, (slot + 1) * ks)
                own = slice(rung.col, rung.col + ks)
                peak_now = float(peaks[istep, own].max())
                prev_peak = float(peaks[istep - 1, own].max())
                older_peak = float(peaks[max(istep - 2, 0), own].max())
                finite = math.isfinite(peak_now)
                if finite and (starting or max(peak_now, prev_peak, older_peak) > v_guard):
                    # no pin needed: at the pinned nodes every input is 0, so v is 0
                    vel = v[:m, block] if starting else np.empty((m, ks))
                    if not starting:
                        _velocity(u_new[:m, block], u_cur[:m, block], u_prev[:m, block], dt, vel)
                    finite = bool(np.all(np.isfinite(vel)))
                if not finite:
                    rung.nan_flag = True
                    rung.crossings.setdefault(base.blowup_threshold, t)
                    rung.leave(istep, t, time.perf_counter() - t_start)
                    left.append(slot)
                    continue
                before = base.blowup_threshold in rung.crossings
                for M in thresholds:
                    if M not in rung.crossings and peak_now > M:
                        rung.crossings[M] = _crossing_time(t - dt, prev_peak, t, peak_now, M)
                crossed = not before and base.blowup_threshold in rung.crossings
                if stride and not before and (due or crossed):  # last one at crossing
                    rung.history.append((t, u_new[:, block].T.copy()))
                if crossed:
                    rung.deadline = istep + _GRACE_STEPS
                if rung.deadline is not None and (
                    thresholds[-1] in rung.crossings or istep == rung.deadline
                ):
                    rung.leave(istep + 1, t, time.perf_counter() - t_start)
                    left.append(slot)
            keep = [slot for slot in range(len(batch)) if slot not in left]
            batch = [batch[slot] for slot in keep]
            uncrossed = [M for rung in batch for M in thresholds if M not in rung.crossings]
            watch = min(min(uncrossed, default=math.inf), v_guard)
            next_event = _next_event(batch, istep, stride, n_steps)
        if not batch:
            break
        if starting:  # nothing reads the data's velocity again: recycle it
            u_prev, v = v, None
        # rotate the time levels; the recycled buffer is zero beyond the front
        u_prev, u_cur, u_new = u_cur, u_new, u_prev
        older_top, prev_top = prev_top, top
        if left:  # close up the remaining blocks in place, bits unchanged
            sel = (ks * np.array(keep)[:, None] + np.arange(ks)).ravel()
            u_prev, u_cur, u_new, absu = (
                _keep_columns(a, sel, m) for a in (u_prev, u_cur, u_new, absu)
            )
            cols = cols[sel]
            kernel.keep_blocks(len(batch))
    del u_prev, u_cur, u_new, v, absu, kernel  # free the step buffers before the records
    wall_s = time.perf_counter() - t_start
    for rung in batch:  # the runs that reached the horizon
        rung.leave(n_steps + 1, t, wall_s)

    return tuple(_ladder_record(rung, k, ks, times, peaks, grid) for rung in rungs)


def _ladder_record(rung: _Rung, k: int, ks: int, times, peaks, grid) -> RunRecord:
    """A rung's record; its stepped columns are repeated into the k columns."""
    config = rung.config
    history = None
    if rung.history is not None:
        hist_t, hist_u = zip(*rung.history)
        history = SolutionHistory(
            times=np.array(hist_t),
            r=grid.r,
            u=np.repeat(np.array(hist_u), k // ks, axis=1),
            horizon=config.T_end,
        )
    return RunRecord(
        config=config,
        t_blow=rung.crossings.get(config.blowup_threshold),
        t_final=rung.t_final,
        peak_times=times[: rung.levels].copy(),
        peaks=np.repeat(peaks[: rung.levels, rung.col : rung.col + ks], k // ks, axis=1),
        threshold_crossings=rung.crossings,
        nan_encountered=rung.nan_flag,
        data_positivity=rung.positivity,
        history=history,
        wall_s=rung.wall_s,
    )
