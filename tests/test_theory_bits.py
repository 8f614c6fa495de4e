"""The theory side's outputs, pinned bit for bit.

``tests/data/theory_bits.json`` holds every float of a fixed set of
sup-ratio batches, chain checks and oracle runs as ``float.hex``, and the
stdout of the README's ``exwave verify-lemma`` call.  The test recomputes
them and compares with ``==``, so a faster form of this code must give the
same bits.  To record the file again (only for a change meant to move the
numbers, which must say so):

    PYTHONPATH=src python tests/test_theory_bits.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from exwave import cli, oracle, quadrature, testfn
from exwave.exponents import BoundaryCondition, ExponentVector
from exwave.solver import SolutionHistory

DATA = Path(__file__).parent / "data" / "theory_bits.json"

BCS = (
    BoundaryCondition.dirichlet(), BoundaryCondition.neumann(), BoundaryCondition.robin(1.0, 1.0)
)
R_LIST = (4.0, 5.3, 11.3)
# 5, 2 and the floor for min(p) = 1.4, 2 / 0.3999999999999999 = 5.000000000000001
LAMS = (5.0, 2.0, 2.0 / (1.4 - 1.0))
README_VERIFY_LEMMA = (
    "verify-lemma --R 4,8,16,32 --p 1.4,1.4 --dim 2,3 --bc dirichlet,neumann,robin"
)


def _hex(x) -> str:
    return float(x).hex()


def _sweeps(rows) -> list:
    return [
        {
            "lam": _hex(row.lam),
            "d": row.d,
            "bc": [_hex(row.bc.alpha), _hex(row.bc.beta)],
            "bands": [_hex(b) for b in row.bands()],
            "by_R": [
                {
                    "R": _hex(res.R),
                    "ratios": [_hex(x) for x in res.ratios],
                    "n_samples": res.n_samples,
                    "violations": list(res.violations),
                }
                for res in row.by_R
            ],
        }
        for row in rows
    ]


def _sup_ratio_cases() -> dict:
    out = {}
    for grid in ((64, 64), (97, 33)):
        rows = testfn.sup_ratio_rows(
            R_LIST, LAMS, (2, 3), BCS, grid, testfn.DEFAULT_RHS_R_POWERS
        )
        out[f"{grid[0]}x{grid[1]}"] = _sweeps(rows)
    out["mutation-R^-3"] = _sweeps(testfn.sup_ratio_rows(
        R_LIST, (5.0,), (3,), BCS[:1], (64, 64), (-3.0, -4.0, -2.0, -2.0)
    ))
    out["violations-phi^200"] = _sweeps(testfn.sup_ratio_rows(
        R_LIST, (5.0, 2.0), (2, 3), BCS, (64, 64), testfn.DEFAULT_RHS_R_POWERS,
        rhs_phi_powers=(200.0,) * 4,
    ))
    return out


def _histories() -> dict:
    """Three (k = 2) histories on r in [1, 5], t in [0, 10]: a travelling
    bump that is exact zeros (some of them -0.0) off its support, dense
    signed rows with two distinct components, and the bump with a NaN and
    an inf inside the cutoff's support."""
    r = np.linspace(1.0, 5.0, 301)
    times = np.linspace(0.0, 10.0, 91)
    x = (r[None, :] - 1.5 - 0.3 * times[:, None]) / 0.6
    bump = np.where(np.abs(x) < 1.0, np.cos(0.5 * np.pi * x) ** 2, 0.0) * (1.0 + times[:, None])
    sparse = np.repeat(bump[:, None, :], 2, axis=1)
    sparse[:, :, ::3] = np.where(sparse[:, :, ::3] == 0.0, -0.0, sparse[:, :, ::3])
    rng = np.random.default_rng(38)
    dense = rng.standard_normal((times.size, 2, r.size))
    dense[:, :, 7::11] = -0.0
    broken = sparse.copy()
    broken[20, 0, 40] = np.nan
    broken[30, 1, 60] = np.inf
    return {
        name: SolutionHistory(times=times, r=r, u=u, horizon=10.0)
        for name, u in (("sparse", sparse), ("dense", dense), ("nan-inf", broken))
    }


def _chain_cases() -> dict:
    out = {}
    for name, history in _histories().items():
        for p in (ExponentVector.of(1.4, 1.4), ExponentVector.of(1.4, 2.0)):
            for d, bc in ((3, BCS[0]), (2, BCS[2])):
                # inf * 0.0 in the nan-inf history's trapezoids warns
                with np.errstate(invalid="ignore"):
                    rep = quadrature.chain_check(
                        history, p, d, bc, (2.0, 3.0), epsilon=0.3, C0=[1.7, 2.9]
                    )
                out[f"{name} p={p.p} d={d} bc={bc.kind.value}"] = [
                    [[_hex(lk.lhs), _hex(lk.rhs)] for lk in row.links] for row in rep.rows
                ]
    return out


def _result(res) -> list:
    return [_hex(res.t_blow), _hex(res.t_final), _hex(res.uncertainty), res.steps]


def _oracle_cases() -> dict:
    first, second = oracle.OdeOrder.FIRST, oracle.OdeOrder.SECOND_DAMPED
    cases = {}
    for p in (1.05, 1.5, 2.0, 3.0):
        for eps in (0.05, 0.7):
            cases[f"scalar p={p} eps={eps}"] = (first, (p,), eps, {})
    for order in (first, second):
        for p in ((1.5, 2.0), (2.0, 2.0)):
            cases[f"{order.value} p={p}"] = (order, p, 0.4, {})
        cases[f"{order.value} watch=1"] = (order, (1.5, 3.0), 0.4, {"watch": 1})
    # M^3 is about max float / 6: one of the 13,328 attempts overflows and is
    # retried at h/4
    cases["scalar overflow retry"] = (first, (3.0,), 1.0, {"M": 3.1e102})
    cases["list overflow retry"] = (first, (3.0, 3.0), 1.0, {"M": 3.1e102})
    out = {}
    for name, (order, p, eps, kw) in cases.items():
        watch = kw.pop("watch", None)
        system = oracle.OdeSystem(order, ExponentVector.of(*p), epsilon=eps, watch=watch)
        out[name] = _result(oracle.integrate_adaptive(system, **kw))
    return out


def _verify_lemma_stdout() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(README_VERIFY_LEMMA.split())
    return f"exit {rc}\n{buf.getvalue()}"


def theory_bits() -> dict:
    return {
        "sup_ratio_rows": _sup_ratio_cases(),
        "chain_check": _chain_cases(),
        "integrate_adaptive": _oracle_cases(),
        "verify_lemma_readme": _verify_lemma_stdout(),
    }


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_sup_ratio_rows_keep_their_bits():
    assert _sup_ratio_cases() == RECORDED["sup_ratio_rows"]


def test_violation_case_reports_violations():
    rows = RECORDED["sup_ratio_rows"]["violations-phi^200"]
    assert any(res["violations"] for row in rows for res in row["by_R"])


def test_chain_check_links_keep_their_bits():
    assert _chain_cases() == RECORDED["chain_check"]


def test_oracle_results_keep_their_bits():
    assert _oracle_cases() == RECORDED["integrate_adaptive"]


def test_readme_verify_lemma_output_keeps_its_bits():
    assert _verify_lemma_stdout() == RECORDED["verify_lemma_readme"]


if __name__ == "__main__":
    DATA.write_text(json.dumps(theory_bits(), indent=1) + "\n")
    sys.stdout.write(f"wrote {DATA}\n")
