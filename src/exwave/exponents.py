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
DEFAULT_TOL_CRIT = 1e-9


class BoundaryKind(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN = "robin"


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition alpha * du/dn+ + beta * u = 0 on the unit sphere.

    n+ is the outward normal of the exterior domain (it points toward the
    origin).  alpha = 0 gives Dirichlet, beta = 0 gives Neumann, otherwise
    Robin.  The well-posedness theory needs alpha*beta >= 0; solver-facing
    code must call ``require_dissipative``.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValueError("boundary condition (alpha, beta) = (0, 0) is not allowed")

    @property
    def kind(self) -> BoundaryKind:
        if self.alpha == 0.0:
            return BoundaryKind.DIRICHLET
        if self.beta == 0.0:
            return BoundaryKind.NEUMANN
        return BoundaryKind.ROBIN

    @property
    def is_dissipative(self) -> bool:
        return self.alpha * self.beta >= 0.0

    def require_dissipative(self):
        if not self.is_dissipative:
            raise ValueError(
                f"alpha*beta = {self.alpha * self.beta} < 0 is outside the "
                "validity region of the well-posedness theory"
            )

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
    product_p: float
    equal_exponents: bool
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
        raise ArithmeticError(
            f"gamma solve residual {residual:.3e} exceeds {GAMMA_RESIDUAL_TOL:.0e}"
        )
    gamma_max = float(np.max(gamma))
    return GammaReport(
        gamma=tuple(float(g) for g in gamma),
        gamma_max=gamma_max,
        product_p=p.product,
        equal_exponents=p.all_equal,
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


@dataclass(frozen=True)
class LifespanBound:
    """Shape of an upper lifespan bound.

    POLYNOMIAL:         T <= C eps^(-exponent)
    POLYNOMIAL_LOG:     T <= C eps^(-exponent) * (log(1/eps))^(log_exponent)
                        (equal powers reproduce C (eps^-1 log eps^-1)^exponent)
    EXPONENTIAL:        T <= exp(C eps^(-exponent))
    DOUBLE_EXPONENTIAL: T <= exp(exp(C eps^(-exponent)))
    NO_BLOWUP_CLAIM:    the theory asserts nothing for these parameters.

    The constants C are existential and never reported.
    """

    form: BoundForm
    exponent: float | None = None
    log_exponent: float | None = None
    notes: str = ""

    def __post_init__(self):
        if self.form is BoundForm.NO_BLOWUP_CLAIM:
            if self.exponent is not None:
                raise ValueError("no-blowup-claim carries no exponent")
        elif self.exponent is None:
            raise ValueError(f"{self.form.value} bound requires an exponent")


class CriticalUnequalTwoDError(ValueError):
    """beta != 0, d = 2, critical, unequal exponents: open problem, no bound."""


def _critical(excess: float, tol_crit: float) -> bool:
    return abs(excess) <= tol_crit


def classify_regime(
    p: ExponentVector,
    d: int,
    bc: BoundaryCondition,
    tol_crit: float = DEFAULT_TOL_CRIT,
) -> LifespanBound:
    """Map (p, d, boundary condition) to the matching lifespan-bound branch.

    |Gamma_excess| <= tol_crit is treated as the critical case.  For d = 1 the
    thresholds are gamma_max = 1 (beta != 0) and gamma_max = 1/2 (beta = 0),
    with no claim at or below threshold.
    """
    if tol_crit <= 0:
        raise ValueError("tol_crit must be positive")
    report = compute_gamma(p, d)
    gmax = report.gamma_max
    neumann = bc.kind is BoundaryKind.NEUMANN

    if d == 1:
        threshold = 0.5 if neumann else 1.0
        excess = gmax - threshold
        if excess > tol_crit:
            return LifespanBound(
                BoundForm.POLYNOMIAL,
                exponent=1.0 / excess,
                notes=f"d=1, beta{'=0' if neumann else '!=0'}, gamma_max > {threshold}",
            )
        return LifespanBound(
            BoundForm.NO_BLOWUP_CLAIM,
            notes=f"d=1: no claim for gamma_max <= {threshold}"
            f" (beta{'=0' if neumann else '!=0'})",
        )

    excess = report.Gamma_excess
    if excess > tol_crit:
        if d == 2 and not neumann:
            return LifespanBound(
                BoundForm.POLYNOMIAL_LOG,
                exponent=1.0 / (gmax - 1.0),
                log_exponent=1.0 / (gmax - 1.0),
                notes="beta!=0, d=2, subcritical",
            )
        return LifespanBound(
            BoundForm.POLYNOMIAL,
            exponent=1.0 / excess,
            notes=f"beta{'=0' if neumann else '!=0'}, d={d}, subcritical",
        )
    if _critical(excess, tol_crit):
        if d == 2 and not neumann:
            if report.equal_exponents:
                return LifespanBound(
                    BoundForm.DOUBLE_EXPONENTIAL,
                    exponent=1.0,
                    notes="beta!=0, d=2, critical, equal exponents",
                )
            raise CriticalUnequalTwoDError(
                "beta!=0, d=2, critical with unequal exponents: the lifespan "
                "bound is an open problem"
            )
        if report.equal_exponents:
            return LifespanBound(
                BoundForm.EXPONENTIAL,
                exponent=p.p[0] - 1.0,
                notes=f"beta{'=0' if neumann else '!=0'}, d={d}, critical, equal exponents",
            )
        return LifespanBound(
            BoundForm.EXPONENTIAL,
            exponent=p.product - 1.0,
            notes=f"beta{'=0' if neumann else '!=0'}, d={d}, critical, unequal exponents",
        )
    return LifespanBound(
        BoundForm.NO_BLOWUP_CLAIM,
        notes=f"gamma_max < d/2 (Gamma_excess = {excess:.6g})",
    )


def fujita_exponent(d: int) -> float:
    return 1.0 + 2.0 / d


def single_equation_table(
    p: float, d: int, tol_crit: float = DEFAULT_TOL_CRIT
) -> LifespanBound:
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
        if abs(p - 2.0) <= tol_crit:
            return LifespanBound(
                BoundForm.DOUBLE_EXPONENTIAL, exponent=1.0, notes="single eq, d=2, p=2"
            )
        if p < 2.0:
            b = (p - 1.0) / (2.0 - p)
            return LifespanBound(
                BoundForm.POLYNOMIAL_LOG,
                exponent=b,
                log_exponent=b,
                notes="single eq, d=2, 1<p<2",
            )
        return LifespanBound(BoundForm.NO_BLOWUP_CLAIM, notes="single eq, d=2, p>2")
    p_fuj = fujita_exponent(d)
    if abs(p - p_fuj) <= tol_crit:
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


def appendix_bound(omega: float, sigma: float, mu: float, p: float) -> LifespanBound:
    """Bound on sqrt(T) for the shrinking-prefactor integral inequality
    (the closing step of the d = 2 argument).

    sigma > 0:                 sqrt(T) <= C omega^(-1/sigma) (log(1/omega))^(mu/sigma)
    sigma = 0, mu < 1/(p-1):   sqrt(T) <= exp(C omega^(-(p-1)/(1-mu(p-1))))
    sigma = 0, mu = 1/(p-1):   sqrt(T) <= exp exp(C omega^(-(p-1)))
    sigma = 0, mu > 1/(p-1) is outside the admissible range.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if p <= 1:
        raise ValueError("p must exceed 1")
    if sigma > 0:
        return LifespanBound(
            BoundForm.POLYNOMIAL_LOG,
            exponent=1.0 / sigma,
            log_exponent=mu / sigma,
            notes="bound on sqrt(T); sigma>0 branch",
        )
    mu_crit = 1.0 / (p - 1.0)
    if abs(mu - mu_crit) <= 1e-12:
        return LifespanBound(
            BoundForm.DOUBLE_EXPONENTIAL,
            exponent=p - 1.0,
            notes="bound on sqrt(T); sigma=0, mu=1/(p-1)",
        )
    if mu < mu_crit:
        return LifespanBound(
            BoundForm.EXPONENTIAL,
            exponent=(p - 1.0) / (1.0 - mu * (p - 1.0)),
            notes="bound on sqrt(T); sigma=0, mu<1/(p-1)",
        )
    raise ValueError(f"sigma=0 requires mu <= 1/(p-1) = {mu_crit}, got mu = {mu}")


def gamma_record(p: ExponentVector, d: int) -> dict:
    """JSON-friendly summary used by the CLI."""
    report = compute_gamma(p, d)
    return {
        "p": list(p.p),
        "gamma": list(report.gamma),
        "gamma_max": report.gamma_max,
        "Gamma_excess": report.Gamma_excess,
        "product_p": report.product_p,
        "equal_exponents": report.equal_exponents,
        "dimension": d,
    }


def classify_record(
    p: ExponentVector, d: int, bc: BoundaryCondition, tol_crit: float = DEFAULT_TOL_CRIT
) -> dict:
    """JSON-friendly classification record; the open 2D case is surfaced as a
    regime string rather than an exception."""
    rec = gamma_record(p, d)
    rec["alpha"] = bc.alpha
    rec["beta"] = bc.beta
    rec["bc"] = bc.kind.value
    try:
        bound = classify_regime(p, d, bc, tol_crit)
    except CriticalUnequalTwoDError as exc:
        rec["regime"] = "open-problem"
        rec["bound"] = None
        rec["notes"] = str(exc)
        return rec
    rec["regime"] = bound.form.value
    rec["bound"] = {
        "form": bound.form.value,
        "exponent": bound.exponent,
        "log_exponent": bound.log_exponent,
    }
    rec["notes"] = bound.notes
    return rec
