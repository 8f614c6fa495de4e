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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

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

    def initial_state(self) -> np.ndarray:
        y0 = self.epsilon * np.asarray(self.a, dtype=float)
        if self.order is OdeOrder.FIRST:
            return y0
        w0 = self.epsilon * np.asarray(self.b, dtype=float)
        return np.concatenate([y0, w0])

    def rhs(self) -> Callable[[np.ndarray], np.ndarray]:
        powers = np.asarray(self.p.p, dtype=float)
        k = self.p.k
        rows = (np.arange(k) - 1) % k  # the row order of np.roll(u, 1)
        if self.order is OdeOrder.FIRST:

            def f(y: np.ndarray) -> np.ndarray:
                return np.abs(y[rows]) ** powers

            return f

        def f2(y: np.ndarray) -> np.ndarray:
            u, w = y[:k], y[k:]
            du = w
            dw = -w + np.abs(u[rows]) ** powers
            return np.concatenate([du, dw])

        return f2

    def amplitude(self, y: np.ndarray) -> float:
        k = self.p.k
        u = y if self.order is OdeOrder.FIRST else y[:k]
        if self.watch is not None:
            return float(abs(u[self.watch]))
        return float(np.max(np.abs(u)))


def solve_first_order_exact(p: float, y0: float) -> float:
    """Blow-up time of y' = y^p, y(0) = y0 > 0: T = y0^(1-p) / (p-1)."""
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    if p <= 1:
        raise ValueError("p must exceed 1")
    return y0 ** (1.0 - p) / (p - 1.0)


def first_order_tail(p: float, y: float) -> float:
    """Remaining time from amplitude y to infinity for y' = y^p."""
    return y ** (1.0 - p) / (p - 1.0)


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


def _rk4(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    removes the threshold bias entirely.
    """
    if M < 1e6:
        raise ValueError("threshold must be at least 1e6")
    f = sys.rhs()
    y = sys.initial_state()
    t = 0.0
    h = 1e-3 * (1.0 + sys.amplitude(y)) ** (1.0 - float(np.max(sys.p.p)))
    steps = 0
    tail_applies = sys.order is OdeOrder.FIRST and sys.p.k == 1
    while steps < max_steps and t < t_horizon:
        h = min(h, t_horizon - t) if math.isfinite(t_horizon) else h
        with np.errstate(over="ignore", invalid="ignore"):
            y_full = _rk4(f, y, h)
            y_half = _rk4(f, _rk4(f, y, 0.5 * h), 0.5 * h)
        steps += 1
        if not (np.all(np.isfinite(y_full)) and np.all(np.isfinite(y_half))):
            h *= 0.25
            continue
        err = np.max(np.abs(y_half - y_full) / (1.0 + np.abs(y_half))) / 15.0
        if err > tol:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            continue
        y_new = y_half + (y_half - y_full) / 15.0
        if sys.amplitude(y_new) >= M:
            # bisect the step length for the crossing
            lo, hi = 0.0, h
            y_lo = y
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                with np.errstate(over="ignore", invalid="ignore"):
                    y_mid = _rk4(f, y, mid)
                if np.all(np.isfinite(y_mid)) and sys.amplitude(y_mid) < M:
                    lo, y_lo = mid, y_mid
                else:
                    hi = mid
            t_cross = t + hi
            if tail_applies:
                amp = sys.amplitude(y_lo)
                t_blow = t_cross + first_order_tail(sys.p.p[0], max(amp, M * 0.5))
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
    return OdeBlowupResult(
        outcome=Outcome.NO_BLOWUP_AT_HORIZON,
        t_blow=None,
        uncertainty=h,
        t_final=t,
        steps=steps,
        threshold=M,
    )
