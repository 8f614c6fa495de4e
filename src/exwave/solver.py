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
node of the data.  Step s therefore needs only the nodes
j < min(n + 1, j_data + s + 2).  The prefix of nodes stepped grows by
``_CHUNK`` nodes at a time, so that the views of the arrays on it are formed
once per chunk: the nodes it holds past the front, like every skipped node,
have all-zero inputs, and since |0|^p = 0 they compute to exactly +0.0, so
the result is bit-identical to a full-grid step.  For the same reason the
strongly imposed nodes (r = 1 under Dirichlet, and the outer edge) stay +0.0
without a pin.  The three time levels and |u| of the newest level live in
buffers allocated once per ladder, and only the displacement is stored in
the history.
``step`` is the allocating full-grid reference that the bit-identity gates
compare against: each call builds a kernel of its own and forms its own
forcing (optionally linear, plus an optional external source for the
manufactured-solution tests), pins the boundary and returns the velocity
too.  ``step``, ``apply_boundary`` and ``_laplacian`` stay in this module
because ``perfbench/tracer.py`` traces them by name (``TRACED``).

A ladder is one config at several epsilons, which share the grid, ``dt`` and
horizon, so ``run_ladder`` steps them in lockstep as column blocks of one
array, and ``run`` is its one-epsilon case.  The ladder's arrays are
node-major, shape (n+1, columns): a step's light-cone prefix ``a[:m]`` is
then one contiguous block, as is every stencil shift of it, and each ufunc
runs as one flat loop instead of one short loop per row.  ``step`` keeps the
public (k, n+1) layout and passes transposed views through the same kernel.
With unequal exponents a block holds the k components and the cyclic gather
stays inside it; with equal exponents a block is one column.
``InitialData`` gives every component the same data, and with
p_1 = ... = p_k each component is forced by a copy of itself through the
same power, so the k components would stay bit-for-bit copies of one
solution of u_tt - Lu + u_t = |u|^p: the record repeats that column as k
identical columns of the history.  This relies on ``_forcing`` taking the
same array pow for any number of columns (see its docstring).  A run that
blows up (after its grace steps), goes non-finite or reaches the horizon
leaves the batch, and the remaining columns close up unchanged, so the
run-time contract is that each run of a ladder is bit-identical to its own
loop of ``step`` calls.

Blow-up is detected by the max norm crossing the fixed ``BLOWUP_THRESHOLD``,
1e8; the crossing time inside the last step is where the log-linear
interpolant of the peak norm reaches the threshold, in closed form.  First
crossings of the ``SENSITIVITY_THRESHOLDS`` around it, 1e6 and 1e10, are
recorded in the same run, giving a free threshold-sensitivity estimate.  A
ladder keeps no trace of the peaks: each step takes one flat max of |u| over
the whole batch, and a run's own peaks (of the new level and the one before
it) are formed only on the rare steps where that max or a due snapshot or
grace end calls for the per-run bookkeeping, on the Taylor start as on any
other step.  max and abs are exact, so every crossing keeps its bits.  Each run's
``RunRecord`` is built when its block enters the batch, and that
bookkeeping writes the crossings, the non-finite flag, ``t_final`` and
``wall_s`` into it in place; its history is formed from its snapshots after
the loop.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exponents import BoundaryCondition, BoundaryKind, ExponentVector
from .quadrature import radial_integral
from .testfn import cutoff_value, psi

DEFAULT_CFL = 0.9
SENSITIVITY_THRESHOLDS = (1e6, 1e8, 1e10)
BLOWUP_THRESHOLD = SENSITIVITY_THRESHOLDS[1]


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
        if self.n > sys.float_info.max:  # an exact comparison; float(n) would overflow
            raise ValueError(f"n must be at most {sys.float_info.max:.6e}, the largest float")

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
        if self.epsilon >= BLOWUP_THRESHOLD:  # the bump peaks at epsilon
            raise ValueError(
                f"epsilon must be below the blow-up threshold {BLOWUP_THRESHOLD:g}, "
                f"got {self.epsilon!r}"
            )

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


def _cfl_limit(dr: float, bc: BoundaryCondition) -> float:
    """The largest stable dt/dr: 1, or under Robin sqrt(2/(1 + sqrt(1 + x^2)))
    with x = dr beta/alpha.  The ghost row carries a boundary mode (-rho)^j,
    rho = sqrt(1 + x^2) - x, of eigenvalue dr^2 lambda = 2 + 2 sqrt(1 + x^2),
    and the leapfrog needs dt^2 lambda <= 4; the bound is sharp in d = 1 and
    conservative for d >= 2."""
    if bc.kind is not BoundaryKind.ROBIN:
        return 1.0
    return math.sqrt(2.0 / (1.0 + math.hypot(1.0, dr * bc.beta / bc.alpha)))


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


def apply_boundary(state: RadialState, bc: BoundaryCondition) -> RadialState:
    """Enforce the strong part of the boundary conditions on a state.

    Dirichlet pins u(r=1) = 0; the flux conditions (alpha != 0) live in the
    ghost-node Laplacian and need no strong enforcement.  The outer edge is
    always pinned to zero.
    """
    for a in (state.u, state.v, state.u_prev):
        if a is not None:
            if bc.kind is BoundaryKind.DIRICHLET:
                a[:, 0] = 0.0
            a[:, -1] = 0.0
    return state


def _forcing(
    absu: np.ndarray,
    sources: tuple[int, ...] | None,
    powers: np.ndarray,
    out: np.ndarray | None,
) -> np.ndarray:
    """|u_{l-1}|^(p_l) on m nodes, from ``absu`` = |u| on those nodes
    (node-major, (m, columns)), returned.

    ``sources`` is ``ExponentVector.sources``, gathered inside each block of
    k columns into ``out``, or None for one column per block (equal
    exponents), which powers ``absu`` in place with no gather.  ``powers``
    holds the exponents and ``out`` the gather, both on the same m nodes.
    The power must run on contiguous arrays: numpy's vectorized pow and its
    strided fallback can differ in the last bit (seen at p = 2).  The
    exponents are stored on every node so that every column count, including
    one, takes the same array pow: an exponent broadcast with stride 0 takes
    numpy's scalar fast path, which squares at p = 2 and differs in the last
    bit from the array pow, and ``run_ladder`` relies on one column giving
    the bits of each column of k.
    """
    if sources is None:
        return np.power(absu, powers, out=absu)
    m, width = absu.shape
    k = len(sources)
    blocks, src = out.reshape(m, width // k, k), absu.reshape(m, width // k, k)
    for l, s in enumerate(sources):
        blocks[..., l] = src[..., s]
    return np.power(out, powers, out=out)


def _velocity(
    u_new: np.ndarray, u: np.ndarray, back: np.ndarray, dt: float, out: np.ndarray,
    start: bool,
) -> None:
    """The velocity at the new level into ``out``: the leapfrog's one-sided
    (3u+ - 4u + u-)/(2 dt) with u- in ``back``, or at the Taylor ``start``,
    whose ``back`` holds the data velocity v, 2 (u+ - u)/dt - v."""
    if start:
        np.subtract(u_new, u, out=out)
        out *= 2.0 / dt
        out -= back
        return
    np.multiply(3.0, u_new, out=out)
    out -= 4.0 * u
    out += back
    out /= 2.0 * dt


class _Prefix(NamedTuple):
    """A node-major array ``a`` and its views on the first m nodes that the
    stencil reads: ``head`` = a[:m], ``mid`` = a[1:hi] (the interior nodes
    written), ``up`` = a[2:hi+1] and ``down`` = a[:hi-1], hi = min(m, n)."""

    a: np.ndarray
    head: np.ndarray
    mid: np.ndarray
    up: np.ndarray
    down: np.ndarray


class _Kernel:
    """One time level of the scheme on the first m nodes, for a given forcing.

    The leapfrog with semi-implicit damping is the five-term update
    u+_j = A_j u_{j+1} + B_j u_{j-1} + C u_j + D u-_j + E f_j, with
    a = 1/dt^2 + 1/(2 dt), A_j and B_j from ``_weights``,
    C = (2/dt^2 - 2/dr^2)/a, D = (1/(2 dt) - 1/dt^2)/a and E = 1/a: five
    multiplies and four adds per node, and no division.  Node 0 is the
    ``_ghost_row`` of the same weights.  The Taylor start
    u + dt v + dt^2/2 (L u + f - v) is h = a dt^2/2 times the same update
    with the data velocity v in the back level's place and the weight
    T = (dt - dt^2/2)/h in D's.

    Holds the ``powers``, the A and B tiles, a ``scratch`` array and, for
    k > 1, the ``forcing`` buffer of the gather, for ``copies`` blocks of k
    columns, node-major, so a ladder allocates them once.  ``prefix`` forms
    the views of these and of the caller's arrays on the m nodes stepped;
    ``run_ladder`` grows m in chunks of ``_CHUNK`` nodes, so it forms them
    once per chunk rather than once per step.  The strongly imposed nodes
    (r = 1 under Dirichlet, and the outer edge) are never written, so
    ``out`` must hold +0.0 there, as every level of a ladder does.  ``step``
    forms its own forcing and advances through a kernel of its own.
    """

    def __init__(
        self, dt: float, p: ExponentVector, d: int, bc: BoundaryCondition, grid: RadialGrid,
        copies: int = 1,
    ):
        k = self.k = p.k
        self.d, self.n, self.dr, self.p = d, grid.n, grid.dr, p.p
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
        out at that width over the front of their own memory.  ``prefix``
        must be called again before the next step."""
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

    def prefix(self, m: int, *arrays: np.ndarray) -> list[_Prefix]:
        """Step nodes [0, m) from now on: form the kernel's own views on
        them, and return those of the node-major ``arrays``."""
        hi = min(m, self.n)
        self.A_mid, self.B_mid, self.w = self.A[1:hi], self.B[1:hi], self.scratch[1:hi]
        self.powers_m = self.powers[:m]
        self.gather = None if self.forcing is None else self._views(self.forcing, m, hi)
        return [self._views(a, m, hi) for a in arrays]

    @staticmethod
    def _views(a: np.ndarray, m: int, hi: int) -> _Prefix:
        return _Prefix(a, a[:m], a[1:hi], a[2 : hi + 1], a[: hi - 1])

    def force(self, absu: _Prefix) -> _Prefix:
        """The forcing on the prefix from ``absu`` = |u| there (``_forcing``),
        which it may overwrite."""
        gather = None if self.gather is None else self.gather.head
        _forcing(absu.head, self.sources, self.powers_m, gather)
        return absu if self.gather is None else self.gather

    def advance(self, u: _Prefix, back: _Prefix, f: _Prefix, out: _Prefix, start: bool) -> None:
        """Write the five-term update A_j u_{j+1} + B_j u_{j-1} + C u_j +
        W back_j + E f_j on the prefix into ``out``, with ``f`` the forcing
        there and ``back`` the level before ``u`` (W = D), or at the Taylor
        ``start`` the data velocity (W = T, and the sum times h).  Summed
        left to right at the prefix's nodes but the pinned ones, each node
        takes the whole grid's ufunc sequence on its own inputs, so it gets
        the whole grid's bits.  ``out`` must not share memory with ``u``,
        ``back`` or ``f``."""
        weight = self.T if start else self.D
        inner, w = out.mid, self.w
        np.multiply(self.A_mid, u.up, out=inner)
        np.multiply(self.B_mid, u.down, out=w)
        np.add(inner, w, out=inner)
        for c, x in ((self.C, u.mid), (weight, back.mid), (self.E, f.mid)):
            np.multiply(c, x, out=w)
            np.add(inner, w, out=inner)
        if self.ghost is not None:
            up, centre = self.ghost
            out.a[0] = up * u.a[1] + centre * u.a[0] + weight * back.a[0] + self.E * f.a[0]
        if start:
            np.multiply(out.head, self.h, out=out.head)


def step(
    state: RadialState,
    dt: float,
    p: ExponentVector,
    d: int,
    bc: BoundaryCondition,
    grid: RadialGrid,
    source: Callable[[float], np.ndarray] | None = None,
    nonlinear: bool = True,
) -> RadialState:
    """Advance one time level on the full grid (the reference for ``run``).

    The forcing f is ``_forcing`` of the state, or zeros when not
    ``nonlinear``, plus ``source(t)`` when given.  A state without ``u_prev``
    (the initial level) is started with the second-order Taylor step
    u1 = u0 + dt v0 + dt^2/2 (L u0 + f - v0); subsequent levels use the
    three-level leapfrog with semi-implicit damping.  The same dt must be used
    along a trajectory, and dt/dr must not exceed ``_cfl_limit``.
    """
    limit = _cfl_limit(grid.dr, bc)
    if dt > limit * grid.dr * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.3e} exceeds CFL limit {limit:.4g} * dr = {limit * grid.dr:.3e}"
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
    start = state.u_prev is None
    back = state.v if start else state.u_prev
    u_new = np.zeros_like(state.u)  # +0.0 on the pinned nodes, which advance skips
    kernel.advance(*kernel.prefix(grid.n + 1, state.u.T, back.T, f, u_new.T), start)
    v_new = np.empty_like(state.u)
    _velocity(u_new, state.u, back, dt, v_new, start)
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
    history_snapshots: int = 256  # target number of stored time levels; 0 disables

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not 0 < self.T_end < math.inf:
            raise ValueError(f"T_end must be positive and finite, got {self.T_end!r}")
        limit = _cfl_limit(self.grid.dr, self.bc)
        if not 0 < self.cfl <= limit:
            raise ValueError(f"cfl must lie in (0, {limit:.6g}] at dr = {self.grid.dr:.6g}")
        if not self.T_end < self.dt * sys.float_info.max:  # dt may underflow to 0
            raise ValueError(
                f"T_end = {self.T_end!r} spans more steps of dt = {self.dt!r} than a float counts"
            )
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
        **kwargs,
    ) -> "SolverConfig":
        """Size r_max from the domain-of-dependence rule plus a margin of 1."""
        r_max = _dependence_radius(data, T_end) + 1.0
        return cls(
            p=p, d=d, bc=bc, grid=RadialGrid(r_max=r_max, n=n), T_end=T_end,
            data=data, **kwargs,
        )


@dataclass
class RunRecord:
    """Full provenance of one simulation."""

    config: SolverConfig
    t_final: float
    threshold_crossings: dict[float, float]
    nan_encountered: bool = False
    data_positivity: float = 0.0
    history: SolutionHistory | None = None
    wall_s: float = 0.0  # from the ladder's start to the step this run left it

    @property
    def t_blow(self) -> float | None:
        """The crossing time of ``BLOWUP_THRESHOLD``, None if none."""
        return self.threshold_crossings.get(BLOWUP_THRESHOLD)

    @property
    def verdict(self) -> Verdict:
        return Verdict.SURVIVED if self.t_blow is None else Verdict.BLEW_UP

    @property
    def threshold_sensitivity(self) -> float | None:
        """The 1e10 crossing time minus the 1e6 one, None unless both were
        crossed; insensitivity to the threshold choice means this stays
        within a couple of time steps."""
        low, high = SENSITIVITY_THRESHOLDS[0], SENSITIVITY_THRESHOLDS[-1]
        if low not in self.threshold_crossings or high not in self.threshold_crossings:
            return None
        return self.threshold_crossings[high] - self.threshold_crossings[low]


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
# nodes by which run_ladder's light-cone prefix grows at a time
_CHUNK = 32


@dataclass
class _Rung:
    """One epsilon's record, filled in place while its block is in a ladder's
    batch, with its (t, u) snapshots (None when the ladder stores none) and
    its last grace step."""

    record: RunRecord
    snapshots: list | None
    deadline: int | None = None


def _keep_columns(a: np.ndarray, sel: np.ndarray, m: int) -> np.ndarray:
    """Columns ``sel`` of the node-major ``a``, which is zero beyond node m,
    laid out over the front of a's own memory, zero beyond node m again."""
    kept = a[:m, sel]
    out = a.reshape(-1)[: a.shape[0] * sel.size].reshape(a.shape[0], sel.size)
    out[:m] = kept
    out[m:] = 0.0
    return out


def _next_event(batch: list[_Rung], istep: int, stride: int, n_steps: int) -> int:
    """The first step after ``istep`` at which a rung's grace ends or a
    history snapshot is due."""
    events = [rung.deadline for rung in batch if rung.deadline is not None]
    if stride and any(BLOWUP_THRESHOLD not in r.record.threshold_crossings for r in batch):
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

    Steps each epsilon as a block of columns (see the module docstring) on a
    prefix of nodes that covers the numerical light cone, grown in chunks of
    ``_CHUNK`` nodes, and rotates three preallocated time levels; every run
    is bit-identical to a loop of ``step`` calls.  |u| of the new level is
    formed once per step: one flat max of it is the batch's peak, and it is
    the next step's forcing base.  The per-run Python bookkeeping runs only
    on the steps where the batch's peak passes the lowest uncrossed threshold,
    or a snapshot or a grace end is due, and writes straight into the run's
    record; only there are a run's own peaks formed, of the new level from
    |u| and of the one before it from that level.  The velocity is checked
    only where a run's new peak passes the guard ``v_guard``, where it
    decides the non-finite verdict just as a full finiteness scan would.  The
    guard reads only the newest level: a run leaves the batch on the step its
    peak passes the highest sensitivity threshold, 1e10, or goes non-finite
    (a non-finite run's grace ends on that step), and ``InitialData`` refuses
    data at or above ``BLOWUP_THRESHOLD``, so every older level of a run
    still in the batch is at most 1e10.  ``v_guard`` exceeds 1e10 whenever
    dt > 5e-298, so below it (3u+ - 4u + u-)/(2 dt) cannot overflow, and a
    peak above it has passed every threshold.  The Taylor start takes the
    same rule: its data lie below 1e8, so below the guard its velocity
    2 (u+ - u)/dt - v cannot overflow either, and where the guard trips the
    check forms it from the data velocity still in the back level.  A record's
    ``wall_s`` is the time from this call to the step at which its run left
    the batch.
    """
    return _step_ladder(base, epsilons)


@np.errstate(over="ignore", invalid="ignore")  # a run may overflow: it then leaves
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
    dt = base.dt
    n_steps = max(1, math.ceil(base.T_end / dt))
    stride = max(1, n_steps // base.history_snapshots) if base.history_snapshots > 0 else 0
    # (u0, u1) of every epsilon as blocks of ks columns; zero on both pinned nodes
    width = len(configs) * ks
    u_cur, back = np.empty((n + 1, width)), np.empty((n + 1, width))
    rungs = []
    for i, c in enumerate(configs):
        u0, u1 = c.data.build(grid, ks)
        u_cur[:, i * ks : (i + 1) * ks], back[:, i * ks : (i + 1) * ks] = u0.T, u1.T
        pos = radial_integral(grid.r, (u0[0] + u1[0]) * psi(grid.r, base.d, bc), base.d)
        if c.data.epsilon > 0 and not pos > 0.0:
            raise DataPositivityError(f"int (u0 + u1) Psi dx = {pos:.3e} must be positive")
        record = RunRecord(c, t_final=0.0, threshold_crossings={}, data_positivity=pos)
        rungs.append(_Rung(record, [(0.0, u0)] if stride else None))
    if not base.domain_of_dependence_ok():
        warnings.warn(
            "r_max < 1 + support + T_end: the outer wall can influence the "
            "solution before the horizon",
            # run and run_ladder both call this through its errstate: name their caller
            stacklevel=4,
        )
    live = np.flatnonzero(np.any(u_cur != 0.0, axis=1) | np.any(back != 0.0, axis=1))
    front = (int(live[-1]) if live.size else 0) + 2  # step s needs m >= front + s
    # below this new peak, with the older levels at most 1e10 (see run_ladder),
    # neither (3u+ - 4u + u-)/(2 dt) nor the Taylor start's velocity can overflow
    v_guard = sys.float_info.max / 16.0 * min(1.0, 2.0 * dt)
    batch = list(rungs)
    kernel = _Kernel(dt, stepped, base.d, bc, grid, copies=len(batch))
    m = min(n + 1, front + _CHUNK)
    # the time levels, the back one holding the data's velocity for the Taylor
    # start, and |u| of the newest one (zero beyond the prefix; _forcing may
    # power it in place)
    u_prev, u_cur, u_new, absu = kernel.prefix(
        m, back, u_cur, np.zeros_like(u_cur), np.abs(u_cur)
    )
    watch = SENSITIVITY_THRESHOLDS[0]
    next_event = _next_event(batch, 0, stride, n_steps)
    t = 0.0

    for istep in range(1, n_steps + 1):
        if m <= n and front + istep > m:  # the next chunk of the prefix
            m = min(n + 1, m + _CHUNK)
            u_prev, u_cur, u_new, absu = kernel.prefix(
                m, *(x.a for x in (u_prev, u_cur, u_new, absu))
            )
        kernel.advance(u_cur, u_prev, kernel.force(absu), u_new, istep == 1)
        t = t + dt
        np.abs(u_new.head, out=absu.head)
        top = float(absu.head.max())
        left = []
        if istep >= next_event or not top <= watch:
            due = stride and (istep % stride == 0 or istep == n_steps)  # snapshot step
            for slot, rung in enumerate(batch):
                rec, block = rung.record, slice(slot * ks, (slot + 1) * ks)
                crossings = rec.threshold_crossings
                peak_now = float(absu.head[:, block].max())
                finite = math.isfinite(peak_now)
                if finite and peak_now > v_guard:
                    # no pin needed: at the pinned nodes every input is 0, so v is 0
                    vel = np.empty((m, ks))
                    _velocity(
                        u_new.head[:, block], u_cur.head[:, block],
                        u_prev.head[:, block], dt, vel, istep == 1,
                    )
                    finite = bool(np.all(np.isfinite(vel)))
                if not finite:  # the run leaves on this step
                    rec.nan_encountered = True
                    crossings.setdefault(BLOWUP_THRESHOLD, t)
                    rung.deadline = istep
                else:
                    prev_peak = float(np.abs(u_cur.head[:, block]).max())
                    before = BLOWUP_THRESHOLD in crossings
                    for M in SENSITIVITY_THRESHOLDS:
                        if M not in crossings and peak_now > M:
                            crossings[M] = _crossing_time(t - dt, prev_peak, t, peak_now, M)
                    crossed = not before and BLOWUP_THRESHOLD in crossings
                    if stride and not before and (due or crossed):  # last one at crossing
                        rung.snapshots.append((t, u_new.a[:, block].T.copy()))
                    if crossed:
                        rung.deadline = istep + _GRACE_STEPS
                if rung.deadline is not None and (
                    SENSITIVITY_THRESHOLDS[-1] in crossings or istep == rung.deadline
                ):
                    rec.t_final, rec.wall_s = t, time.perf_counter() - t_start
                    left.append(slot)
            keep = [slot for slot in range(len(batch)) if slot not in left]
            batch = [batch[slot] for slot in keep]
            pending = (r.record.threshold_crossings for r in batch)
            watch = min(
                (M for c in pending for M in SENSITIVITY_THRESHOLDS if M not in c),
                default=math.inf,
            )
            next_event = _next_event(batch, istep, stride, n_steps)
        if not batch:
            break
        # rotate the time levels; the recycled buffer is zero beyond the prefix
        u_prev, u_cur, u_new = u_cur, u_new, u_prev
        if left:  # close up the remaining blocks in place, bits unchanged
            sel = (ks * np.array(keep)[:, None] + np.arange(ks)).ravel()
            kernel.keep_blocks(len(batch))
            u_prev, u_cur, u_new, absu = kernel.prefix(
                m, *(_keep_columns(x.a, sel, m) for x in (u_prev, u_cur, u_new, absu))
            )
    del u_prev, u_cur, u_new, absu, kernel  # free the step buffers before the records
    wall_s = time.perf_counter() - t_start
    for rung in batch:  # the runs that reached the horizon
        rung.record.t_final, rung.record.wall_s = t, wall_s
    for rung in rungs:  # each stepped column of a history repeats into k // ks
        if rung.snapshots is not None:
            times, u = zip(*rung.snapshots)
            rung.record.history = SolutionHistory(
                np.array(times), grid.r, np.repeat(np.array(u), k // ks, axis=1), base.T_end
            )
    return tuple(rung.record for rung in rungs)
