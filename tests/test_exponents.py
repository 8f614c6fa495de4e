import numpy as np
import pytest

from exwave.exponents import (
    BoundaryCondition,
    BoundaryKind,
    BoundForm,
    CriticalUnequalTwoDError,
    ExponentVector,
    appendix_bound,
    build_matrix_P,
    classify_record,
    classify_regime,
    compute_gamma,
    fujita_exponent,
    gamma_cyclic_closed_form,
    gamma_max_two_component,
    single_equation_table,
)


def test_boundary_condition_kinds():
    assert BoundaryCondition(0.0, 1.0).kind is BoundaryKind.DIRICHLET
    assert BoundaryCondition(1.0, 0.0).kind is BoundaryKind.NEUMANN
    assert BoundaryCondition(2.0, 1.0).kind is BoundaryKind.ROBIN
    with pytest.raises(ValueError):
        BoundaryCondition(0.0, 0.0)
    with pytest.raises(ValueError):
        BoundaryCondition(1.0, -1.0).require_dissipative()
    BoundaryCondition(2.0, 3.0).require_dissipative()


def test_exponent_vector_validation():
    with pytest.raises(ValueError):
        ExponentVector(())
    with pytest.raises(ValueError):
        ExponentVector.of(1.0, 2.0)
    with pytest.raises(ValueError):
        ExponentVector.of(0.5)
    p = ExponentVector.of(2, 3)
    assert p.k == 2 and p.product == 6.0 and not p.all_equal
    assert ExponentVector.of(1.4, 1.4).all_equal


def test_matrix_layout():
    assert build_matrix_P(ExponentVector.of(2, 3)).tolist() == [[0, 2], [3, 0]]
    assert build_matrix_P(ExponentVector.of(5)).tolist() == [[5]]
    # component l is forced by component l - 1: p_1 by u_3, p_2 by u_1, p_3 by u_2
    assert build_matrix_P(ExponentVector.of(2, 3, 4)).tolist() == [
        [0, 0, 2],
        [3, 0, 0],
        [0, 4, 0],
    ]
    assert build_matrix_P(ExponentVector.of(2, 2, 2)).tolist() == [
        [0, 0, 2],
        [2, 0, 0],
        [0, 2, 0],
    ]


def test_sources_are_the_cyclic_predecessors():
    assert ExponentVector.of(5).sources == (0,)
    assert ExponentVector.of(2, 3).sources == (1, 0)
    assert ExponentVector.of(2, 3, 4).sources == (2, 0, 1)


def test_gamma_hand_solved_cases():
    # -g1 + 2 g2 = 1, 2 g1 - g2 = 1  ->  g = (1, 1)
    rep = compute_gamma(ExponentVector.of(2, 2), 2)
    assert rep.gamma == pytest.approx((1.0, 1.0), abs=1e-14)
    assert rep.Gamma_excess == pytest.approx(0.0, abs=1e-14)

    rep = compute_gamma(ExponentVector.of(2, 3), 3)
    assert rep.gamma == pytest.approx((0.6, 0.8), abs=1e-14)
    assert rep.gamma_max == pytest.approx(gamma_max_two_component(2, 3), abs=1e-14)

    # equal exponents reduce to 1/(p-1)
    rep = compute_gamma(ExponentVector.of(1.4, 1.4), 3)
    assert rep.gamma == pytest.approx((2.5, 2.5), abs=1e-12)
    assert rep.Gamma_excess == pytest.approx(1.0, abs=1e-12)


def test_gamma_closed_form_examples():
    assert gamma_cyclic_closed_form(ExponentVector.of(2, 2, 2), 3) == pytest.approx(1.0)
    assert gamma_cyclic_closed_form(ExponentVector.of(2, 3), 2) == pytest.approx(0.8)
    q = 3.7
    assert gamma_cyclic_closed_form(ExponentVector.of(q), 1) == pytest.approx(
        1.0 / (q - 1.0)
    )
    with pytest.raises(ValueError):
        gamma_cyclic_closed_form(ExponentVector.of(2, 3), 0)


def test_gamma_solve_vs_closed_form_randomized():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        p = ExponentVector(tuple(rng.uniform(1.0 + 1e-6, 6.0, size=k)))
        rep = compute_gamma(p, int(rng.integers(1, 7)))
        assert rep.residual <= 1e-12
        for idx in range(1, k + 1):
            closed = gamma_cyclic_closed_form(p, idx)
            assert abs(closed - rep.gamma[idx - 1]) <= 1e-12 * max(1.0, abs(closed))
        if k == 2:
            assert abs(
                rep.gamma_max - gamma_max_two_component(p.p[0], p.p[1])
            ) <= 1e-12 * max(1.0, rep.gamma_max)


def test_equal_exponent_reduction():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        q = float(rng.uniform(1.01, 6.0))
        rep = compute_gamma(ExponentVector((q,) * k), 3)
        assert rep.gamma == pytest.approx((1.0 / (q - 1.0),) * k, rel=1e-12)


def test_elementary_inequality_sampled():
    # A y^s - y <= A^(1/(1-s)) for A > 0, y >= 0, s in (0, 1)
    rng = np.random.default_rng(31337)
    A = rng.uniform(1e-3, 1e3, size=400)
    y = rng.uniform(0.0, 1e4, size=400)
    s = rng.uniform(1e-3, 1.0 - 1e-3, size=400)
    lhs = A * y**s - y
    with np.errstate(over="ignore"):  # inf on the right satisfies the bound
        rhs = A ** (1.0 / (1.0 - s))
    assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-12)


def test_classify_branches():
    dirichlet = BoundaryCondition.dirichlet()
    neumann = BoundaryCondition.neumann()

    b = classify_regime(ExponentVector.of(1.4, 1.4), 3, dirichlet)
    assert b.form is BoundForm.POLYNOMIAL and b.exponent == pytest.approx(1.0)

    b = classify_regime(ExponentVector.of(2, 2), 2, BoundaryCondition.robin(1, 1))
    assert b.form is BoundForm.DOUBLE_EXPONENTIAL

    b = classify_regime(ExponentVector.of(5, 5), 1, neumann)
    assert b.form is BoundForm.NO_BLOWUP_CLAIM

    # d = 2, beta != 0, subcritical: log-corrected polynomial
    b = classify_regime(ExponentVector.of(1.5, 1.5), 2, dirichlet)
    assert b.form is BoundForm.POLYNOMIAL_LOG
    assert b.exponent == pytest.approx(1.0) and b.log_exponent == pytest.approx(1.0)

    # critical with unequal exponents, d >= 3: q = prod(p) - 1
    b = classify_regime(ExponentVector.of(1.5, 2.0), 3, dirichlet)
    assert b.form is BoundForm.EXPONENTIAL and b.exponent == pytest.approx(2.0)

    # critical equal exponents, beta = 0, d = 2: q = p1 - 1
    b = classify_regime(ExponentVector.of(2, 2), 2, neumann)
    assert b.form is BoundForm.EXPONENTIAL and b.exponent == pytest.approx(1.0)

    # d = 1 with beta != 0: threshold gamma_max = 1
    b = classify_regime(ExponentVector.of(1.5, 1.5), 1, dirichlet)
    assert b.form is BoundForm.POLYNOMIAL and b.exponent == pytest.approx(1.0)

    # supercritical
    b = classify_regime(ExponentVector.of(4, 4), 3, dirichlet)
    assert b.form is BoundForm.NO_BLOWUP_CLAIM


def test_classify_open_problem_two_d():
    # gamma_max = (3 + 1)/(5 = 5/3 * 3) - 1) = 1 with p1 != p2
    p = ExponentVector.of(5.0 / 3.0, 3.0)
    assert compute_gamma(p, 2).Gamma_excess == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(CriticalUnequalTwoDError):
        classify_regime(p, 2, BoundaryCondition.dirichlet())
    # the CLI-facing record reports it instead of raising
    rec = classify_record(p, 2, BoundaryCondition.dirichlet())
    assert rec["regime"] == "open-problem"


def test_single_equation_table():
    b = single_equation_table(1.5, 3)
    assert b.form is BoundForm.POLYNOMIAL and b.exponent == pytest.approx(2.0)

    p = fujita_exponent(3)
    b = single_equation_table(p, 3)
    assert b.form is BoundForm.EXPONENTIAL and b.exponent == pytest.approx(2.0 / 3.0)

    b = single_equation_table(2.0, 2)
    assert b.form is BoundForm.DOUBLE_EXPONENTIAL

    assert single_equation_table(3.0, 3).form is BoundForm.NO_BLOWUP_CLAIM
    with pytest.raises(ValueError):
        single_equation_table(2.0, 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [1.2, 1.4, 1.9, 2.5])
def test_single_equation_matches_classifier(d, p):
    """k = 1 with Dirichlet data reduces to the single-equation table."""
    table = single_equation_table(p, d)
    try:
        general = classify_regime(ExponentVector.of(p), d, BoundaryCondition.dirichlet())
    except CriticalUnequalTwoDError:  # cannot happen for k = 1
        raise AssertionError("k = 1 cannot be the open case")
    assert table.form == general.form
    if table.exponent is not None:
        assert table.exponent == pytest.approx(general.exponent, abs=1e-12)


def test_subcritical_identity_exact():
    # 1/(1/(p-1) - d/2) == 2(p-1)/(2 - d(p-1)) as evaluated floats
    for d in (3, 4, 5):
        for p in (1.1, 1.3, 1.6):
            gamma = 1.0 / (p - 1.0)
            if gamma <= d / 2.0:
                continue
            lhs = 1.0 / (gamma - d / 2.0)
            rhs = 2.0 * (p - 1.0) / (2.0 - d * (p - 1.0))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_appendix_bound_branches():
    b = appendix_bound(0.3, sigma=2.0, mu=1.0, p=4.0)
    assert b.form is BoundForm.POLYNOMIAL_LOG
    assert b.exponent == pytest.approx(0.5) and b.log_exponent == pytest.approx(0.5)

    b = appendix_bound(0.3, sigma=0.0, mu=1.0, p=2.0)
    assert b.form is BoundForm.DOUBLE_EXPONENTIAL and b.exponent == pytest.approx(1.0)

    b = appendix_bound(0.3, sigma=0.0, mu=0.5, p=2.0)
    assert b.form is BoundForm.EXPONENTIAL and b.exponent == pytest.approx(2.0)

    with pytest.raises(ValueError):
        appendix_bound(0.3, sigma=0.0, mu=1.5, p=2.0)
    with pytest.raises(ValueError):
        appendix_bound(-1.0, sigma=1.0, mu=1.0, p=2.0)


def test_thread_safety_smoke():
    """Pure functions on immutable inputs: concurrent calls agree."""
    from concurrent.futures import ThreadPoolExecutor

    p = ExponentVector.of(1.7, 2.2, 3.1)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: compute_gamma(p, 4).gamma, range(64)))
    assert all(r == results[0] for r in results)
