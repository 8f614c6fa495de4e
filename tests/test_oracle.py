import dataclasses
import json
import math
import re
from sys import float_info

import numpy as np
import pytest

from exwave.exponents import ExponentVector
from exwave.oracle import (
    OdeOrder,
    OdeSystem,
    _list_attempt,
    _list_step,
    _scalar_attempt,
    _scalar_step,
    integrate_adaptive,
    solve_first_order_exact,
)


def test_exact_blow_up_times():
    assert solve_first_order_exact(2.0, 1.0) == 1.0
    assert solve_first_order_exact(2.0, 0.1) == pytest.approx(10.0)
    assert solve_first_order_exact(3.0, 1.0) == 0.5
    with pytest.raises(ValueError):
        solve_first_order_exact(0.9, 1.0)
    with pytest.raises(ValueError):
        solve_first_order_exact(2.0, -1.0)


def test_tail_consistency():
    # T(y0) = t(y) + tail(y) along the trajectory: pick y = 2 y0
    p, y0 = 2.0, 0.5
    T = solve_first_order_exact(p, y0)
    # time to reach y from y0: int_{y0}^{y} dy/y^p
    y = 2 * y0
    t_reach = (y0 ** (1 - p) - y ** (1 - p)) / (p - 1)
    assert t_reach + solve_first_order_exact(p, y) == pytest.approx(T, rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("y0", [1e-3, 3e-2, 1.0])
def test_adaptive_matches_exact(p, y0):
    sys = OdeSystem(OdeOrder.FIRST, ExponentVector.of(p), epsilon=y0)
    res = integrate_adaptive(sys, M=1e8)
    assert res.blew_up
    exact = solve_first_order_exact(p, y0)
    assert res.t_blow == pytest.approx(exact, rel=1e-6)


def test_threshold_insensitivity():
    sys = OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0), epsilon=0.25)
    r_low = integrate_adaptive(sys, M=1e6)
    r_high = integrate_adaptive(sys, M=1e10)
    assert abs(r_low.t_blow - r_high.t_blow) <= max(r_low.uncertainty, r_high.uncertainty)
    with pytest.raises(ValueError):
        integrate_adaptive(sys, M=1e3)


def test_second_order_damped_single():
    """u'' + u' = u^2 with small data: lifespan grows as eps shrinks; the
    log-log slope is recorded as a calibration reference."""
    ts = []
    eps_list = (0.2, 0.1, 0.05, 0.025)
    for eps in eps_list:
        sys = OdeSystem(OdeOrder.SECOND_DAMPED, ExponentVector.of(2.0), epsilon=eps)
        res = integrate_adaptive(sys, M=1e8)
        assert res.blew_up
        ts.append(res.t_blow)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    slope = np.polyfit(np.log(1.0 / np.asarray(eps_list)), np.log(ts), 1)[0]
    assert 0.5 < slope < 2.0  # calibration reference, no theory value asserted


def test_coupled_components_blow_up_together():
    """Both components diverge at the same time: their threshold-crossing
    times agree to a gap that is tiny relative to the lifespan and shrinks
    as the threshold grows."""
    p = ExponentVector.of(2.0, 3.0)

    def gap_at(M):
        times = []
        for watch in (0, 1):
            sys = OdeSystem(OdeOrder.SECOND_DAMPED, p, epsilon=0.5, watch=watch)
            res = integrate_adaptive(sys, M=M)
            assert res.blew_up
            times.append(res.t_blow)
        return abs(times[0] - times[1]), max(times)

    gap_low, t_blow = gap_at(1e6)
    gap_high, _ = gap_at(1e9)
    assert gap_low <= 1e-3 * t_blow
    assert gap_high < gap_low


def test_system_validation():
    with pytest.raises(ValueError):
        OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0), epsilon=-1.0)
    with pytest.raises(ValueError):
        OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0, 2.0), watch=5)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_system_refuses_an_epsilon_that_is_not_finite(eps):
    """Refused up front: a NaN or infinite start would step until max_steps."""
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0), epsilon=eps)


def test_step_limit_raises_instead_of_reporting_no_blowup():
    sys = OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0), epsilon=0.1)
    with pytest.raises(RuntimeError, match=r"max_steps=5 .*t=0\.61.*h="):
        integrate_adaptive(sys, M=1e8, max_steps=5)


@pytest.mark.parametrize(
    "order, p, y0, M",
    [
        (OdeOrder.FIRST, 1.2, 1e-4, 1e300),
        (OdeOrder.FIRST, 2.0, 1.0, 1e300),
        (OdeOrder.FIRST, 3.0, 1.0, 1e150),
        (OdeOrder.SECOND_DAMPED, 2.0, 1.0, math.inf),
        # numpy's power would warn on overflow where Python's raises
        pytest.param(OdeOrder.FIRST, 1.2, 1e-4, np.float64(1e300), id="first-1.2-numpy-1e+300"),
    ],
)
def test_a_threshold_whose_power_overflows_is_refused(order, p, y0, M):
    """Every step near such an M overflows: refused before the first step,
    not after max_steps."""
    sys = OdeSystem(order, ExponentVector.of(p), epsilon=y0)
    message = f"M = {float(M)!r} is out of reach for p = ({p!r},)"
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_adaptive(sys, M=M, max_steps=10)


def test_a_threshold_whose_power_is_finite_is_still_reached():
    sys = OdeSystem(OdeOrder.FIRST, ExponentVector.of(1.2), epsilon=1e-4)
    res = integrate_adaptive(sys, M=1e250)
    assert (res.t_blow, res.steps) == (31.54786868448067, 15755)


@pytest.mark.parametrize("order, p, t_blow", [
    (OdeOrder.FIRST, (3.0,), 0.49999999981845195),
    (OdeOrder.FIRST, (3.0, 3.0), 0.49999999981845195),
    (OdeOrder.SECOND_DAMPED, (3.0, 3.0), 1.5144809007953706),
])
def test_a_threshold_whose_rk4_sum_overflows_is_refused(order, p, t_blow):
    """At M = 0.6 (max float)^(1/3), M^3 is finite but 6 M^3 is not: every
    RK4 sum near M overflowed until h shrank to 0.0.  0.55 times that M is
    still reached."""
    edge = 0.6 * float_info.max ** (1.0 / 3.0)
    assert math.isfinite(edge**3)
    system = OdeSystem(order, ExponentVector.of(*p), epsilon=1.0)
    message = f"M = {edge!r} is out of reach for p = {p!r}: 6 * M ** max(p) overflows"
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_adaptive(system, M=edge, max_steps=20000)
    assert integrate_adaptive(system, M=0.55 * edge, max_steps=20000).t_blow == t_blow


def test_a_nan_threshold_is_refused():
    with pytest.raises(ValueError, match="threshold must be at least 1e6, got nan"):
        integrate_adaptive(OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0)), M=math.nan)


def test_results_are_python_floats():
    """On the scalar path and on the list path."""
    scalar = integrate_adaptive(OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0), epsilon=1.0))
    listed = integrate_adaptive(
        OdeSystem(OdeOrder.SECOND_DAMPED, ExponentVector.of(2.0, 3.0), epsilon=0.1)
    )
    for res in (scalar, listed):
        for value in (res.t_blow, res.t_final, res.uncertainty):
            assert type(value) is float
        row = dataclasses.asdict(res)
        assert json.loads(json.dumps(row)) == row


def test_step_maps_return_none_on_overflow():
    assert _scalar_step(2.0)(1e200, 1e-3) is None
    assert _scalar_step(2.0)(1e150, 1e10) is None  # stage overflows to inf
    second = _list_step(OdeSystem(OdeOrder.SECOND_DAMPED, ExponentVector.of(2.0)))
    assert second([1e200, 1.0], 1e-3) is None
    coupled = _list_step(OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0, 3.0)))
    assert coupled([1.0, 1e200], 1e-3) is None
    assert second([1.0, 1.0], 1e-3) is not None
    # the list attempt's first stage overflows
    attempt = _list_attempt(OdeSystem(OdeOrder.FIRST, ExponentVector.of(2.0, 2.0)))
    assert attempt([1e200, 1.0], 1e-3) is None


def test_list_step_drives_each_component_by_its_predecessor():
    """y'_l = |y_{l-1}|^(p_l) cyclically: from y = (1, 0, 0) only component 1
    starts to move (at rate 1); component 2 follows at order h^3."""
    h = 1e-3
    p = ExponentVector.of(2.0, 2.0, 2.0)
    first = _list_step(OdeSystem(OdeOrder.FIRST, p))([1.0, 0.0, 0.0], h)
    assert first[0] == 1.0
    assert first[1] == pytest.approx(h, rel=1e-6)
    assert 0.0 < first[2] < h**2
    second = _list_step(OdeSystem(OdeOrder.SECOND_DAMPED, p))([1.0, 0.0, 0.0] + [0.0] * 3, h)
    assert second[1] == pytest.approx(0.5 * h**2, rel=1e-3)
    assert second[4] == pytest.approx(h, rel=1e-3)
    assert abs(second[2]) < h**3 and abs(second[5]) < h**2


def test_list_step_matches_scalar_step_on_one_equation():
    """On y' = |y|^p the float-state step and attempt give the bits of the
    list-state ones on the 1-element list."""
    p = 1.4
    scalar, scalar_attempt = _scalar_step(p), _scalar_attempt(p)
    system = OdeSystem(OdeOrder.FIRST, ExponentVector.of(p))
    listed, listed_attempt = _list_step(system), _list_attempt(system)
    y_s, y_l = 0.3, [0.3]
    errors = []
    for h in (1e-3, 0.05, 0.4, 1.0):
        err_s, new_s = scalar_attempt(y_s, h)
        err_l, new_l = listed_attempt(y_l, h)
        assert err_s == err_l and [new_s] == new_l
        y_s, y_l = scalar(y_s, h), listed(y_l, h)
        assert type(y_s) is float and [y_s] == y_l
        errors.append(err_s)
    assert max(errors) > 0.0


def _separate_step(y, h, p):
    """One RK4 step of y' = |y|^p with its own first stage."""
    try:
        k1 = abs(y) ** p
        k2 = abs(y + 0.5 * h * k1) ** p
        k3 = abs(y + 0.5 * h * k2) ** p
        k4 = abs(y + h * k3) ** p
    except OverflowError:
        return None
    y1 = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y1 if math.isfinite(y1) else None


@pytest.mark.parametrize("p", [1.4, 2.0, 3.0])
def test_shared_first_stage_gives_the_bits_of_separate_steps(p):
    """The scalar attempt shares the first stage k1 = y^p between the full
    step and the first half step and inlines all three; its Richardson pair
    holds the bits of three separate single steps and the written-out
    extrapolation, overflow (None) included.  The scalar step map, which the
    crossing bisection calls, gives a separate step's bits too."""
    attempt, step = _scalar_attempt(p), _scalar_step(p)
    overflowed = set()
    for y in (1e-9, 0.3, 1.0, 7.5, 1e40, 1e100, 1e160, 1e200):
        for h in (1e-12, 1e-3, 0.05, 0.7, 3.0, 1e10):
            full = _separate_step(y, h, p)
            mid = _separate_step(y, 0.5 * h, p)
            half = None if mid is None else _separate_step(mid, 0.5 * h, p)
            if full is None or half is None:
                alone = None
            else:
                err = abs(half - full) / (1.0 + abs(half)) / 15.0
                alone = (err.hex(), (half + (half - full) / 15.0).hex())
            pair = attempt(y, h)
            assert (None if pair is None else (pair[0].hex(), pair[1].hex())) == alone
            by_step = step(y, h)
            assert (None if by_step is None else by_step.hex()) == (
                None if full is None else full.hex()
            )
            overflowed.add(pair is None)
    assert overflowed == {False, True}


# (outcome, t_blow, t_final, steps) from the numpy-array integrator this one
# replaced.  Python's ``**`` (libm pow) and numpy's SIMD float64 pow differ in
# the last bit for a few percent of arguments, so the times are pinned to a
# relative tolerance rather than bit for bit; outcomes and step counts match.
PINNED_REL = 1e-13
F, S = OdeOrder.FIRST, OdeOrder.SECOND_DAMPED
PINNED = [
    # (order, p, eps, watch, M), (outcome, t_blow, t_final, steps)
    ((F, (1.5,), 1e-3, None, 1e8), ("blew-up", 63.245553663433796, 63.2453536634338, 739)),
    ((F, (1.5,), 3e-2, None, 1e8), ("blew-up", 11.547005388060933, 11.546805388060934, 687)),
    ((F, (1.5,), 1.0, None, 1e8), ("blew-up", 2.0000000000853353, 1.999800000085335, 599)),
    ((F, (2.0,), 1e-3, None, 1e8), ("blew-up", 1000.0000035122863, 1000.0000035022863, 925)),
    ((F, (2.0,), 3e-2, None, 1e8), ("blew-up", 33.333333337428776, 33.333333327428775, 857)),
    ((F, (2.0,), 1.0, None, 1e8), ("blew-up", 1.0000000000072358, 0.9999999900072358, 744)),
    ((F, (3.0,), 1e-3, None, 1e8), ("blew-up", 499999.97862886364, 499999.97862886364, 1284)),
    ((F, (3.0,), 3e-2, None, 1e8), ("blew-up", 555.5555533876753, 555.5555533876753, 1176)),
    ((F, (3.0,), 1.0, None, 1e8), ("blew-up", 0.49999999981845233, 0.4999999998184523, 1035)),
    ((S, (2.0,), 0.2, None, 1e8), ("blew-up", 6.811839539437431, 6.811839539437431, 878)),
    ((S, (2.0,), 0.1, None, 1e8), ("blew-up", 10.410920491503363, 10.410920491503363, 913)),
    ((S, (2.0,), 0.05, None, 1e8), ("blew-up", 16.624166364169138, 16.624166364169138, 953)),
    ((S, (2.0,), 0.025, None, 1e8), ("blew-up", 27.91391240851166, 27.91391240851166, 997)),
    ((S, (2.0, 3.0), 0.5, 0, 1e6), ("blew-up", 3.2968775541605444, 3.2968775541605444, 881)),
    ((S, (2.0, 3.0), 0.5, 1, 1e6), ("blew-up", 3.2965906122554864, 3.2965906122554864, 678)),
]


@pytest.mark.parametrize("case, expected", PINNED)
def test_pinned_against_array_integrator(case, expected):
    order, p, eps, watch, M = case
    outcome, t_blow, t_final, steps = expected
    res = integrate_adaptive(OdeSystem(order, ExponentVector(p), epsilon=eps, watch=watch), M=M)
    assert res.blew_up is (outcome == "blew-up")
    assert res.steps == steps
    assert res.t_blow == pytest.approx(t_blow, rel=PINNED_REL, abs=0)
    assert res.t_final == pytest.approx(t_final, rel=PINNED_REL, abs=0)
