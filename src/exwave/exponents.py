"""Exponent algebra and lifespan-regime classification.

The coupled system is described by k nonlinearity powers p_1,...,p_k (all > 1).
Its criticality is encoded by the vector gamma solving

    (P - I_k) gamma = (1,...,1)^T,

where P is the cyclic coupling matrix (p_1 in the top-right corner, p_2,...,p_k
on the subdiagonal).  The scalar Gamma_excess = max(gamma) - d/2 separates the
subcritical regime (polynomial-in-1/eps lifespan bound), the critical regime
(exponential or double-exponential bound) and the region where no blow-up claim
is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
import numpy as np

GAMMA_RESIDUAL_TOL = 1e-12
# the half-width of the critical band |Gamma_excess| <= TOL_CRIT: it only
# absorbs the round-off of the gamma solve, whose residual GAMMA_RESIDUAL_TOL
# holds below 1e-12, so a true excess of 1e-6 stays subcritical
TOL_CRIT = 1e-9


class BoundaryKind(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN = "robin"


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition alpha * du/dn+ + beta * u = 0 on the unit sphere.

    n+ is the outward normal of the exterior domain (it points toward the
    origin).  alpha = 0 gives Dirichlet, beta = 0 gives Neumann, otherwise
    Robin.  The well-posedness theory needs alpha*beta >= 0; any other pair
    is refused at construction.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got ({self.alpha!r}, {self.beta!r})")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValueError("boundary condition (alpha, beta) = (0, 0) is not allowed")
        # the signs, not the product, which underflows for (1e-200, -1e-200)
        if self.alpha < 0.0 < self.beta or self.beta < 0.0 < self.alpha:
            raise ValueError(
                f"alpha = {self.alpha} and beta = {self.beta} have opposite signs, outside "
                "the validity region alpha*beta >= 0 of the well-posedness theory"
            )

    @property
    def kind(self) -> BoundaryKind:
        if self.alpha == 0.0:
            return BoundaryKind.DIRICHLET
        if self.beta == 0.0:
            return BoundaryKind.NEUMANN
        return BoundaryKind.ROBIN

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls(0.0, 1.0)

    @classmethod
    def neumann(cls) -> "BoundaryCondition":
        return cls(1.0, 0.0)

    @classmethod
    def robin(cls, alpha: float, beta: float) -> "BoundaryCondition":
        bc = cls(alpha, beta)
        if bc.kind is not BoundaryKind.ROBIN:
            raise ValueError(f"({alpha}, {beta}) is not a Robin pair")
        return bc


@dataclass(frozen=True)
class ExponentVector:
    """Ordered nonlinearity powers p_1,...,p_k, each strictly greater than 1."""

    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.p) < 1:
            raise ValueError("at least one exponent is required")
        object.__setattr__(self, "p", tuple(float(q) for q in self.p))
        for q in self.p:
            if not math.isfinite(q) or q <= 1.0:
                raise ValueError(f"every exponent must be finite and > 1, got {q}")
        if not math.isfinite(math.prod(self.p)):
            raise ValueError(f"the product of the exponents {self.p} overflows")

    @classmethod
    def of(cls, *p: float) -> "ExponentVector":
        return cls(tuple(p))

    @property
    def k(self) -> int:
        return len(self.p)

    @property
    def product(self) -> float:
        return float(np.prod(self.p))

    @property
    def all_equal(self) -> bool:
        # Exact comparison of the values as given; no arithmetic precedes it.
        return all(q == self.p[0] for q in self.p)

    @property
    def p_min(self) -> float:
        return min(self.p)

    @property
    def sources(self) -> tuple[int, ...]:
        """The cyclic coupling: component l is forced by |u_sources[l]|^p_l,
        with sources[l] = (l - 1) mod k (0-based; component 1 by component k)."""
        k = self.k
        return tuple((l - 1) % k for l in range(k))


def build_matrix_P(p: ExponentVector) -> np.ndarray:
    """Cyclic coupling matrix P[l, sources[l]] = p_l: p_1 in the top-right
    corner, p_2,...,p_k on the subdiagonal, and P = [[p_1]] for k = 1."""
    P = np.zeros((p.k, p.k))
    P[range(p.k), p.sources] = p.p
    return P


@dataclass(frozen=True)
class GammaReport:
    """Solution of (P - I_k) gamma = 1 together with the derived regime data."""

    gamma: tuple[float, ...]
    gamma_max: float
    Gamma_excess: float
    residual: float = field(default=0.0, compare=False)


def compute_gamma(p: ExponentVector, d: int) -> GammaReport:
    """Solve (P - I_k) gamma = (1,...,1)^T by partial-pivot LU.

    prod(p) > 1 guarantees the system is nonsingular.  The solve is
    cross-checked against the residual tolerance 1e-12.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    k = p.k
    A = build_matrix_P(p) - np.eye(k)
    ones = np.ones(k)
    try:
        gamma = np.linalg.solve(A, ones)
    except np.linalg.LinAlgError as exc:  # unreachable for validated p
        raise ValueError("singular gamma system; some exponent <= 1?") from exc
    residual = float(np.max(np.abs(A @ gamma - ones)))
    if residual > GAMMA_RESIDUAL_TOL:
        raise ValueError(
            f"gamma solve for p = {p.p}: residual {residual:.3e} > {GAMMA_RESIDUAL_TOL:.0e}"
        )
    gamma_max = float(np.max(gamma))
    return GammaReport(
        gamma=tuple(float(g) for g in gamma),
        gamma_max=gamma_max,
        Gamma_excess=gamma_max - d / 2.0,
        residual=residual,
    )


def gamma_cyclic_closed_form(p: ExponentVector, index: int) -> float:
    """Closed form of a gamma component by cyclic relabeling:

        gamma_k = (1 + p_k + p_{k-1} p_k + ... + p_2 p_3 ... p_k) / (prod(p) - 1)

    with the general component obtained by rotating the indices so that
    ``index`` plays the role of k.  ``index`` is 1-based.
    """
    k = p.k
    if not 1 <= index <= k:
        raise ValueError(f"index must lie in [1, {k}], got {index}")
    m = index - 1
    total = 1.0
    term = 1.0
    for j in range(k - 1):
        term *= p.p[(m - j) % k]
        total += term
    return total / (p.product - 1.0)


def gamma_max_two_component(p1: float, p2: float) -> float:
    """k = 2 specialization: gamma_max = (max(p1, p2) + 1) / (p1 p2 - 1)."""
    return (max(p1, p2) + 1.0) / (p1 * p2 - 1.0)


class BoundForm(str, Enum):
    POLYNOMIAL = "polynomial"
    POLYNOMIAL_LOG = "polynomial-log"
    EXPONENTIAL = "exponential"
    DOUBLE_EXPONENTIAL = "double-exponential"
    NO_BLOWUP_CLAIM = "no-blowup-claim"
    OPEN_PROBLEM = "open-problem"


@dataclass(frozen=True)
class LifespanBound:
    """Shape of an upper lifespan bound.

    POLYNOMIAL:         T <= C eps^(-exponent)
    POLYNOMIAL_LOG:     T <= C eps^(-exponent) * (log(1/eps))^(log_exponent)
                        (equal powers reproduce C (eps^-1 log eps^-1)^exponent)
    EXPONENTIAL:        T <= exp(C eps^(-exponent))
    DOUBLE_EXPONENTIAL: T <= exp(exp(C eps^(-exponent)))
    NO_BLOWUP_CLAIM:    the theory asserts nothing for these parameters.
    OPEN_PROBLEM:       beta != 0, d = 2, critical, unequal exponents: the
                        bound is not known.

    The constants C are existential and never reported.
    """

    form: BoundForm
    exponent: float | None = None
    notes: str = ""

    def __post_init__(self):
        if self.form in (BoundForm.NO_BLOWUP_CLAIM, BoundForm.OPEN_PROBLEM):
            if self.exponent is not None:
                raise ValueError(f"{self.form.value} carries no exponent")
        elif self.exponent is None:
            raise ValueError(f"{self.form.value} bound requires an exponent")

    @property
    def log_exponent(self) -> float | None:
        return self.exponent if self.form is BoundForm.POLYNOMIAL_LOG else None


def classify_regime(p: ExponentVector, d: int, bc: BoundaryCondition) -> LifespanBound:
    """Map (p, d, boundary condition) to the matching lifespan-bound branch.

    |Gamma_excess| <= TOL_CRIT (1e-9, the gamma solve's round-off band) is
    treated as the critical case.  For d = 1 the thresholds are gamma_max = 1
    (beta != 0) and gamma_max = 1/2 (beta = 0), with no claim at or below
    threshold.
    """
    report = compute_gamma(p, d)
    gmax = report.gamma_max
    neumann = bc.kind is BoundaryKind.NEUMANN
    label = "beta=0" if neumann else "beta!=0"

    if d == 1:
        threshold = 0.5 if neumann else 1.0
        excess = gmax - threshold
        if excess > TOL_CRIT:
            return LifespanBound(
                BoundForm.POLYNOMIAL,
                exponent=1.0 / excess,
                notes=f"d=1, {label}, gamma_max > {threshold}",
            )
        return LifespanBound(
            BoundForm.NO_BLOWUP_CLAIM,
            notes=f"d=1: no claim for gamma_max <= {threshold} ({label})",
        )

    excess = report.Gamma_excess
    # the row of the polynomial-log and double-exponential bounds
    log_row = d == 2 and not neumann
    if excess > TOL_CRIT:
        form, exponent = (
            (BoundForm.POLYNOMIAL_LOG, 1.0 / (gmax - 1.0)) if log_row
            else (BoundForm.POLYNOMIAL, 1.0 / excess)
        )
        return LifespanBound(form, exponent, notes=f"{label}, d={d}, subcritical")
    if abs(excess) <= TOL_CRIT:
        if log_row and not p.all_equal:
            return LifespanBound(
                BoundForm.OPEN_PROBLEM,
                notes="beta!=0, d=2, critical with unequal exponents: the lifespan "
                "bound is an open problem",
            )
        form, exponent = (
            (BoundForm.DOUBLE_EXPONENTIAL, 1.0) if log_row
            else (BoundForm.EXPONENTIAL, (p.p[0] if p.all_equal else p.product) - 1.0)
        )
        equal = "equal" if p.all_equal else "unequal"
        return LifespanBound(form, exponent, notes=f"{label}, d={d}, critical, {equal} exponents")
    return LifespanBound(
        BoundForm.NO_BLOWUP_CLAIM,
        notes=f"gamma_max < d/2 (Gamma_excess = {excess:.6g})",
    )


def fujita_exponent(d: int) -> float:
    return 1.0 + 2.0 / d


def single_equation_table(p: float, d: int) -> LifespanBound:
    """Single-equation (k = 1) lifespan table for the exterior Dirichlet problem.

    d = 2:   1 < p < 2  ->  (eps^-1 log eps^-1)^((p-1)/(2-p))
             p = 2      ->  exp exp(C eps^-1)
    d >= 3:  p < 1+2/d  ->  eps^(-2(p-1)/(2-d(p-1)))
             p = 1+2/d  ->  exp(C eps^(-(p-1)))
    Above the threshold no blow-up claim is made.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if d < 2:
        raise ValueError("the single-equation table covers d >= 2")
    if d == 2:
        if abs(p - 2.0) <= TOL_CRIT:
            return LifespanBound(
                BoundForm.DOUBLE_EXPONENTIAL, exponent=1.0, notes="single eq, d=2, p=2"
            )
        if p < 2.0:
            b = (p - 1.0) / (2.0 - p)
            return LifespanBound(
                BoundForm.POLYNOMIAL_LOG,
                exponent=b,
                notes="single eq, d=2, 1<p<2",
            )
        return LifespanBound(BoundForm.NO_BLOWUP_CLAIM, notes="single eq, d=2, p>2")
    p_fuj = fujita_exponent(d)
    if abs(p - p_fuj) <= TOL_CRIT:
        return LifespanBound(
            BoundForm.EXPONENTIAL, exponent=p - 1.0, notes=f"single eq, d={d}, p=1+2/d"
        )
    if p < p_fuj:
        return LifespanBound(
            BoundForm.POLYNOMIAL,
            exponent=2.0 * (p - 1.0) / (2.0 - d * (p - 1.0)),
            notes=f"single eq, d={d}, subcritical",
        )
    return LifespanBound(
        BoundForm.NO_BLOWUP_CLAIM, notes=f"single eq, d={d}, p>1+2/d"
    )


def gamma_record(p: ExponentVector, d: int) -> dict:
    """JSON-friendly summary used by the CLI."""
    report = compute_gamma(p, d)
    return {
        "p": list(p.p),
        "gamma": list(report.gamma),
        "gamma_max": report.gamma_max,
        "Gamma_excess": report.Gamma_excess,
        "product_p": p.product,
        "equal_exponents": p.all_equal,
        "dimension": d,
    }


def classify_record(p: ExponentVector, d: int, bc: BoundaryCondition) -> dict:
    """JSON-friendly classification record; the open 2D case has no bound."""
    rec = gamma_record(p, d)
    rec["alpha"] = bc.alpha
    rec["beta"] = bc.beta
    rec["bc"] = bc.kind.value
    bound = classify_regime(p, d, bc)
    rec["regime"] = bound.form.value
    rec["bound"] = None if bound.form is BoundForm.OPEN_PROBLEM else {
        "form": bound.form.value,
        "exponent": bound.exponent,
        "log_exponent": bound.log_exponent,
    }
    rec["notes"] = bound.notes
    return rec
