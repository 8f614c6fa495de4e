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

The integrator runs on Python floats: the state is a list of at most 2k
numbers, and numpy's per-call overhead on arrays that small made each step
about 20 times slower.  Each system gets one RK4 step map (a scalar one for
y' = |y|^p, a list one otherwise); a step that overflows returns None and
the adaptive loop shrinks the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .exponents import ExponentVector


class OdeOrder(str, Enum):
    FIRST = "first"
    SECOND_DAMPED = "second-damped"


@dataclass(frozen=True)
class OdeSystem:
    """Spatially homogeneous companion system with data eps*(a_l, b_l)."""

    order: OdeOrder
    p: ExponentVector
    epsilon: float = 1.0
    a: tuple[float, ...] | None = None  # initial amplitudes, default all 1
    b: tuple[float, ...] | None = None  # initial velocities (second order only)
    watch: int | None = None            # threshold on one component (default: max)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        k = self.p.k
        object.__setattr__(self, "a", tuple(self.a) if self.a else (1.0,) * k)
        object.__setattr__(self, "b", tuple(self.b) if self.b else (1.0,) * k)
        if len(self.a) != k or len(self.b) != k:
            raise ValueError("amplitude tuples must have one entry per component")
        if self.watch is not None and not 0 <= self.watch < k:
            raise ValueError("watch component out of range")

    def initial_state(self) -> list[float]:
        y0 = [self.epsilon * a for a in self.a]
        if self.order is OdeOrder.FIRST:
            return y0
        return y0 + [self.epsilon * b for b in self.b]


def solve_first_order_exact(p: float, y0: float) -> float:
    """Blow-up time of y' = y^p, y(0) = y0 > 0: T = y0^(1-p) / (p-1), which
    is also the remaining time from any amplitude y0 on the trajectory."""
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    if p <= 1:
        raise ValueError("p must exceed 1")
    return y0 ** (1.0 - p) / (p - 1.0)


class Outcome(str, Enum):
    BLEW_UP = "blew-up"
    NO_BLOWUP_AT_HORIZON = "no-blowup-at-horizon"


@dataclass(frozen=True)
class OdeBlowupResult:
    outcome: Outcome
    t_blow: float | None
    uncertainty: float
    t_final: float
    steps: int
    threshold: float

    @property
    def blew_up(self) -> bool:
        return self.outcome is Outcome.BLEW_UP


# A step map advances the state by one RK4 step of length h, or returns None
# when the step leaves the floats (a stage overflows or the result is not
# finite); the caller then shrinks h.
Step = Callable[[list, float], list | None]


def _scalar_step(p: float) -> Step:
    """RK4 for the single first-order equation y' = |y|^p."""

    def step(y: list, h: float) -> list | None:
        (y0,) = y
        try:
            k1 = abs(y0) ** p
            k2 = abs(y0 + 0.5 * h * k1) ** p
            k3 = abs(y0 + 0.5 * h * k2) ** p
            k4 = abs(y0 + h * k3) ** p
        except OverflowError:
            return None
        y1 = y0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return [y1] if math.isfinite(y1) else None

    return step


def _list_step(sys: OdeSystem) -> Step:
    """RK4 for any system; component l is driven by |u_{l-1}|^(p_l),
    gathered cyclically by ``ExponentVector.sources`` like the solver's rows."""
    k = sys.p.k
    gather = list(zip(sys.p.sources, sys.p.p))
    if sys.order is OdeOrder.FIRST:

        def f(y: list) -> list:
            return [abs(y[r]) ** q for r, q in gather]

    else:

        def f(y: list) -> list:
            w = y[k:]
            return w + [-wj + abs(y[r]) ** q for wj, (r, q) in zip(w, gather)]

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


def integrate_adaptive(
    sys: OdeSystem,
    M: float = 1e8,
    tol: float = 1e-10,
    t_horizon: float = math.inf,
    max_steps: int = 2_000_000,
) -> OdeBlowupResult:
    """Integrate to the threshold M with RK4 + step-doubling error control.

    Per step, one full step is compared against two half steps; the
    Richardson error estimate (difference / 15) must pass
    tol * (1 + |y|) componentwise, and the extrapolated value is kept.
    On crossing, the step is refined by bisection in the step length; for a
    single first-order equation the analytic tail from the crossing amplitude
    removes the threshold bias entirely.  Running out of max_steps before
    t_horizon raises RuntimeError.
    """
    if M < 1e6:
        raise ValueError("threshold must be at least 1e6")
    k = sys.p.k
    tail_applies = sys.order is OdeOrder.FIRST and k == 1
    step = _scalar_step(sys.p.p[0]) if tail_applies else _list_step(sys)
    watch = sys.watch if k > 1 else 0

    def amplitude(y: list) -> float:
        return abs(y[watch]) if watch is not None else max(map(abs, y[:k]))

    y = sys.initial_state()
    t = 0.0
    h = 1e-3 * (1.0 + amplitude(y)) ** (1.0 - max(sys.p.p))
    steps = 0
    while steps < max_steps and t < t_horizon:
        h = min(h, t_horizon - t) if math.isfinite(t_horizon) else h
        y_full = step(y, h)
        y_mid = step(y, 0.5 * h)
        y_half = None if y_mid is None else step(y_mid, 0.5 * h)
        steps += 1
        if y_full is None or y_half is None:
            h *= 0.25
            continue
        err = max(abs(a - b) / (1.0 + abs(a)) for a, b in zip(y_half, y_full)) / 15.0
        if err > tol:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            continue
        y_new = [a + (a - b) / 15.0 for a, b in zip(y_half, y_full)]
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
            return OdeBlowupResult(
                outcome=Outcome.BLEW_UP,
                t_blow=t_blow,
                uncertainty=h,
                t_final=t_cross,
                steps=steps,
                threshold=M,
            )
        t += h
        y = y_new
        if err < 0.1 * tol:
            h *= min(5.0, 0.9 * (tol / max(err, 1e-300)) ** 0.2)
    if t < t_horizon:
        raise RuntimeError(
            f"integrate_adaptive hit max_steps={steps} before the horizon "
            f"at t={t!r} with h={h!r}"
        )
    return OdeBlowupResult(
        outcome=Outcome.NO_BLOWUP_AT_HORIZON,
        t_blow=None,
        uncertainty=h,
        t_final=t,
        steps=steps,
        threshold=M,
    )
