"""Low-dimensional blow-up oracles.

The space-homogeneous reduction of the damped wave system (drop the
Laplacian) gives cheap reference problems with known or near-exact blow-up
times; they calibrate the blow-up detector and the scaling-law fitter before
any PDE run is trusted.

* First-order: y'_l = |y_{l-1}|^(p_l) cyclically; for a single component
  y' = y^p with y(0) = y0 > 0 the blow-up time is exactly y0^(1-p)/(p-1).
* Second-order damped: u''_l + u'_l = |u_{l-1}|^(p_l).

The adaptive integrator uses classical RK4 with step-doubling Richardson
error control (tolerance per step), brackets the threshold crossing with the
last accepted step, and for single first-order problems removes the threshold
bias by adding the analytic tail integral from the crossing value to
infinity.

The integrator runs on Python floats: numpy's per-call overhead on states
of at most 2k numbers made each step about 20 times slower.  The state of
y' = |y|^p is a bare float, that of any other system a list.  Each state
type has its RK4 step map, its step attempt and its amplitude, and one
adaptive loop drives either; the crossing bisection calls the step map.  An
attempt is one Python call per step-doubling pair: the full step, two half
steps and the Richardson error estimate and extrapolation, or None when a
step overflows (the loop then shrinks the step).  The scalar attempt
inlines its three RK4 steps, forming h/2 and h/4 once and sharing the first
RK4 stage k1 = y^p of the full step and the first half step, with the float
operations of three calls of the step map in the same order; per pass of
the benchmark's oracle grid that is 18,376 calls.  The scalar state stays
positive (epsilon > 0, and every stage adds a nonnegative term to y), so
its stages take no abs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .exponents import ExponentVector

STEP_TOL = 1e-10  # integrate_adaptive's per-step error tolerance


class OdeOrder(str, Enum):
    FIRST = "first"
    SECOND_DAMPED = "second-damped"


@dataclass(frozen=True)
class OdeSystem:
    """Spatially homogeneous companion system; every component starts at eps
    (and, at second order, with velocity eps)."""

    order: OdeOrder
    p: ExponentVector
    epsilon: float = 1.0
    watch: int | None = None  # threshold on one component (default: max)

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.watch is not None and not 0 <= self.watch < self.p.k:
            raise ValueError("watch component out of range")


def solve_first_order_exact(p: float, y0: float) -> float:
    """Blow-up time of y' = y^p, y(0) = y0 > 0: T = y0^(1-p) / (p-1), which
    is also the remaining time from any amplitude y0 on the trajectory."""
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    if p <= 1:
        raise ValueError("p must exceed 1")
    return y0 ** (1.0 - p) / (p - 1.0)


@dataclass(frozen=True)
class OdeBlowupResult:
    t_blow: float
    uncertainty: float
    t_final: float
    steps: int

    @property
    def blew_up(self) -> bool:
        return self.t_blow is not None


# A step map advances the state (a float for the scalar map, a list
# otherwise) by one RK4 step of length h, or returns None when the step
# leaves the floats (a stage overflows or the result is not finite).  An
# attempt makes one step of length h and two of length h/2 from the state and
# returns the Richardson pair (error estimate, extrapolated state), or None
# when a step leaves the floats; the caller then shrinks h.
Step = Callable[[float | list, float], float | list | None]
Attempt = Callable[[float | list, float], tuple[float, float | list] | None]


def _scalar_step(p: float) -> Step:
    """RK4 for the single first-order equation y' = |y|^p, on a positive
    float (so the stages need no abs)."""

    def step(y0: float, h: float) -> float | None:
        try:
            k1 = y0 ** p
            k2 = (y0 + 0.5 * h * k1) ** p
            k3 = (y0 + 0.5 * h * k2) ** p
            k4 = (y0 + h * k3) ** p
        except OverflowError:
            return None
        y1 = y0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y1 if math.isfinite(y1) else None

    return step


def _scalar_attempt(p: float) -> Attempt:
    """The step-doubling attempt on a positive float: ``_scalar_step`` at h,
    then at h/2 twice (the first sharing k1), inlined, and the Richardson
    pair of ``_list_attempt`` on floats.  y_half is positive, so it takes
    no abs."""

    def attempt(y: float, h: float) -> tuple[float, float] | None:
        half = 0.5 * h
        quarter = 0.5 * half
        try:
            k1 = y ** p
            k2 = (y + half * k1) ** p
            k3 = (y + half * k2) ** p
            k4 = (y + h * k3) ** p
            y_full = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k2 = (y + quarter * k1) ** p
            k3 = (y + quarter * k2) ** p
            k4 = (y + half * k3) ** p
            y_mid = y + (half / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k1 = y_mid ** p
            k2 = (y_mid + quarter * k1) ** p
            k3 = (y_mid + quarter * k2) ** p
            k4 = (y_mid + half * k3) ** p
            y_half = y_mid + (half / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except OverflowError:
            return None
        # a non-finite y_mid leaves y_half non-finite (every term is >= 0)
        if not (math.isfinite(y_full) and math.isfinite(y_half)):
            return None
        diff = y_half - y_full
        return abs(diff) / (1.0 + y_half) / 15.0, y_half + diff / 15.0

    return attempt


def _list_rhs(sys: OdeSystem) -> Callable[[list], list]:
    """The right side of any system; component l is driven by
    |u_{l-1}|^(p_l), gathered cyclically by ``ExponentVector.sources`` like
    the solver's rows."""
    k = sys.p.k
    gather = list(zip(sys.p.sources, sys.p.p))
    if sys.order is OdeOrder.FIRST:

        def f(y: list) -> list:
            return [abs(y[r]) ** q for r, q in gather]

    else:

        def f(y: list) -> list:
            w = y[k:]
            return w + [-wj + abs(y[r]) ** q for wj, (r, q) in zip(w, gather)]

    return f


def _list_step(sys: OdeSystem) -> Step:
    """RK4 for any system, on a list (``_list_rhs``)."""
    f = _list_rhs(sys)

    def step(y: list, h: float) -> list | None:
        half, sixth = 0.5 * h, h / 6.0
        try:
            k1 = f(y)
            k2 = f([a + half * b for a, b in zip(y, k1)])
            k3 = f([a + half * b for a, b in zip(y, k2)])
            k4 = f([a + h * b for a, b in zip(y, k3)])
        except OverflowError:
            return None
        y1 = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        return y1 if all(map(math.isfinite, y1)) else None

    return step


def _list_attempt(sys: OdeSystem) -> Attempt:
    """The step-doubling attempt on a list: ``_list_step`` at h, then at h/2
    twice, and the Richardson pair: the largest componentwise
    |y_half - y_full| / (1 + |y_half|) / 15 as the error estimate and the
    componentwise y_half + (y_half - y_full) / 15."""
    step = _list_step(sys)

    def attempt(y: list, h: float) -> tuple[float, list] | None:
        half = 0.5 * h
        y_full = step(y, h)
        y_mid = None if y_full is None else step(y, half)
        y_half = None if y_mid is None else step(y_mid, half)
        if y_half is None:
            return None
        err = max(abs(a - b) / (1.0 + abs(a)) for a, b in zip(y_half, y_full)) / 15.0
        return err, [a + (a - b) / 15.0 for a, b in zip(y_half, y_full)]

    return attempt


def integrate_adaptive(
    sys: OdeSystem,
    M: float = 1e8,
    max_steps: int = 2_000_000,
) -> OdeBlowupResult:
    """Integrate to the threshold M with RK4 + step-doubling error control.

    Per step, one full step is compared against two half steps; the
    Richardson error estimate (difference / 15) must pass
    STEP_TOL * (1 + |y|) componentwise, and the extrapolated value is kept.
    On crossing, the step is refined by bisection in the step length; for a
    single first-order equation the analytic tail from the crossing amplitude
    removes the threshold bias entirely.  An M for which 6 M^max(p) leaves
    the floats is refused: near M the RK4 sum k1 + 2k2 + 2k3 + k4 is at
    least that, so every step would overflow.  Running out of max_steps
    before M raises RuntimeError.
    """
    M = float(M)
    if not M >= 1e6:
        raise ValueError(f"threshold must be at least 1e6, got {M!r}")
    try:
        reachable = math.isfinite(6.0 * M ** max(sys.p.p))
    except OverflowError:
        reachable = False
    if not reachable:
        raise ValueError(f"M = {M!r} is out of reach for p = {sys.p.p}: 6 * M ** max(p) overflows")
    k = sys.p.k
    tail_applies = sys.order is OdeOrder.FIRST and k == 1
    if tail_applies:
        p = sys.p.p[0]
        step, attempt, amplitude = _scalar_step(p), _scalar_attempt(p), abs
        y = sys.epsilon
    else:
        step, attempt = _list_step(sys), _list_attempt(sys)
        watch = sys.watch if k > 1 else 0

        def amplitude(y: list) -> float:
            return abs(y[watch]) if watch is not None else max(map(abs, y[:k]))

        y = [sys.epsilon] * (k if sys.order is OdeOrder.FIRST else 2 * k)
    tol = STEP_TOL  # a local, so the stepping loop makes no global lookup
    t = 0.0
    h = 1e-3 * (1.0 + amplitude(y)) ** (1.0 - max(sys.p.p))
    steps = 0
    while steps < max_steps:
        pair = attempt(y, h)
        steps += 1
        if pair is None:
            h *= 0.25
            continue
        err, y_new = pair
        if err > tol:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            continue
        if amplitude(y_new) >= M:
            # bisect the step length for the crossing
            lo, hi = 0.0, h
            y_lo = y
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                y_mid = step(y, mid)
                if y_mid is not None and amplitude(y_mid) < M:
                    lo, y_lo = mid, y_mid
                else:
                    hi = mid
            t_cross = t + hi
            if tail_applies:
                amp = amplitude(y_lo)
                t_blow = t_cross + solve_first_order_exact(sys.p.p[0], max(amp, M * 0.5))
            else:
                t_blow = t_cross
            return OdeBlowupResult(t_blow=t_blow, uncertainty=h, t_final=t_cross, steps=steps)
        t += h
        y = y_new
        if err < 0.1 * tol:
            h *= min(5.0, 0.9 * (tol / max(err, 1e-300)) ** 0.2)
    raise RuntimeError(
        f"integrate_adaptive hit max_steps={steps} before M={M!r} at t={t!r} with h={h!r}"
    )
