"""The benchmark workloads and their output checks.

Two workloads run: ``sweep_subcritical`` and ``lemma_diagnostics``, the
latter being the ``lemma_batch`` and ``diagnostics`` parts in one pass.  Each
workload or part builds its inputs from a seed (seed 0 is the verbatim
acceptance case), runs one pass through exwave's public API and returns the
outputs as plain Python data.  ``check`` turns one pass's outputs into one
verdict per op (True = correct); ``counts`` gives the exact work counts of a
pass.  Checks and counts run outside the timed region.

Ops: one epsilon run (sweep_subcritical), one sup-ratio sweep (lemma_batch),
one chain_check or one oracle integration (diagnostics).  An op fails if it
raises or if its output check fails; a failed pass-level check (exit code,
fit slope, constant spread, band, mutation growth, ladder slope) fails every
op it depends on.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from exwave import cli, harness, oracle, quadrature, testfn
from exwave.exponents import BoundaryCondition, ExponentVector
from exwave.solver import SolutionHistory

REL_TOL = 1e-9           # against the seed-0 reference
ORACLE_REL_TOL = 1e-6    # against solve_first_order_exact
ORACLE_SLOPE_TOL = 1e-3  # oracle ladder slope against p - 1
SLOPE_RANGE = (0.6, 1.4)
C_SPREAD_LIMIT = 2.0
BAND_LIMIT = 4.0
MUTATION_GROWTH_MIN = 2.0

DIRICHLET = BoundaryCondition.dirichlet()
NEUMANN = BoundaryCondition.neumann()
ROBIN = BoundaryCondition.robin(1.0, 1.0)

# the deterministic report files; manifest.json holds wall-clock data
REPORT_FILES = ("sweep.csv", "records.json", "sweep_loglog.dat")


def _close(a, b, tol: float = REL_TOL) -> bool:
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _factors(seed: int, n: int, lo: float, hi: float) -> list[float]:
    """n jitter factors in [lo, hi]; all exactly 1 for seed 0."""
    if seed == 0:
        return [1.0] * n
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for _ in range(n)]


def _config_epsilons(path: Path) -> list[float]:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read(path)
    return [float(tok) for tok in cfg.get("sweep", "epsilons").split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# sweep_subcritical
# ---------------------------------------------------------------------------


class SweepSubcritical:
    """`exwave sweep configs/subcritical_d3.ini --out <tmp>` in process."""

    name = "sweep_subcritical"

    def __init__(self, root: Path, seed: int, scratch: Path, reference: dict):
        config = root / "configs" / "subcritical_d3.ini"
        self.outdir = scratch / "sweep"
        self.argv = ["sweep", str(config), "--out", str(self.outdir)]
        eps = _config_epsilons(config)
        self.ops = len(eps)
        if seed != 0:
            (f,) = _factors(seed, 1, 0.95, 1.05)
            eps = [e * f for e in eps]
            self.argv += ["--eps-list", ",".join(repr(e) for e in eps)]

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def outputs(self, rc) -> dict:
        records = json.loads((self.outdir / "records.json").read_text())
        fit = json.loads((self.outdir / "manifest.json").read_text())["fit"] or {}
        return {
            "rc": rc,
            "epsilons": [r["config"]["data"]["epsilon"] for r in records],
            "verdicts": [r["verdict"] for r in records],
            "t_blow": [r["t_blow"] for r in records],
            "slope": fit.get("slope"),
            "records": records,
            "report_bytes": sum((self.outdir / f).stat().st_size for f in REPORT_FILES),
        }

    @staticmethod
    def check(out: dict, ref: dict | None) -> list[bool]:
        ok = [
            v == "blew-up" and t is not None and (ref is None or _close(t, rt))
            for v, t, rt in zip(out["verdicts"], out["t_blow"], (ref or out)["t_blow"])
        ]
        if ref is not None and len(ok) != len(ref["t_blow"]):
            ok = [False] * len(ok)
        slope = out["slope"]
        pass_ok = out["rc"] == 0 and slope is not None and all(ok)
        if pass_ok:
            c = [e * t for e, t in zip(out["epsilons"], out["t_blow"])]
            pass_ok = (
                SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]
                and max(c) / min(c) <= C_SPREAD_LIMIT
                and (ref is None or _close(slope, ref["slope"]))
            )
        return ok if pass_ok else [False] * len(ok)

    @staticmethod
    def reference(out: dict) -> dict:
        return {"t_blow": out["t_blow"], "slope": out["slope"]}

    @staticmethod
    def counts(out: dict) -> dict:
        """Grid-point-steps and their light-cone share, from the run configs
        and final times: a step updates k (n+1) nodes, of which those with
        r <= support_outer + t + 2 dr can be nonzero."""
        total = inside = largest = 0
        for rec in out["records"]:
            cfg = rec["config"]
            n, k = cfg["n"], len(cfg["p"])
            dr = (cfg["r_max"] - 1.0) / n
            dt = cfg["cfl"] * dr
            steps = round(rec["t_final"] / dt)
            t = dt * np.arange(1, steps + 1)
            outer = cfg["data"]["center"] + cfg["data"]["width"]
            nodes = np.floor((outer + t + 2.0 * dr - 1.0) / dr) + 1.0
            total += steps * k * (n + 1)
            inside += k * int(np.minimum(nodes, n + 1).sum())
            # upper bound on the stored history, the largest array of a run
            largest = max(largest, (cfg["history_snapshots"] + 2) * k * (n + 1) * 8)
        return {
            "solver.grid_point_steps": total,
            "solver.lightcone_share": inside / total if total else 0.0,
            "harness.report.bytes": out["report_bytes"],
            "largest_array_bytes": largest,
        }


# ---------------------------------------------------------------------------
# lemma_batch
# ---------------------------------------------------------------------------


class LemmaBatch:
    """Acceptance-04 sup-ratio batch plus the two R^-3 mutation sweeps."""

    name = "lemma_batch"
    R_BASE = (4.0, 8.0, 16.0, 32.0)
    GRID = (512, 512)
    MUTATION = (-3.0, -4.0, -2.0, -2.0)

    def __init__(self, root: Path, seed: int, scratch: Path, reference: dict):
        self.R_list = [R * f for R, f in zip(self.R_BASE, _factors(seed, 4, 0.9, 1.1))]
        self.lams = [2.0 / (pmin - 1.0) for pmin in (1.4, 2.0)]  # 5 and 2
        self.ops = len(self.R_list) * len(self.lams) * 2 * 3 + 2

    def run_pass(self):
        rep = harness.verify_cutoff_estimates(
            R_list=self.R_list,
            lam_list=self.lams,
            d_list=[2, 3],
            bc_list=[DIRICHLET, NEUMANN, ROBIN],
            grid=self.GRID,
            band_limit=BAND_LIMIT,
        )
        mutation = [
            testfn.cutoff_estimate_sup_ratios(
                R, self.lams[0], 3, DIRICHLET, rhs_r_powers=self.MUTATION, grid=self.GRID
            )
            for R in (self.R_list[0], self.R_list[-1])
        ]
        return rep, mutation

    @staticmethod
    def outputs(result) -> dict:
        rep, mutation = result
        sweeps = [res for row in rep.rows for res in row.by_R] + mutation
        return {
            "ratios": [list(res.ratios) for res in sweeps],
            "violations": [len(res.violations) for res in sweeps],
            "bands": [list(row.bands()) for row in rep.rows],
            "row_size": len(rep.rows[0].by_R),
            "samples": sum(res.n_samples for res in sweeps),
        }

    @staticmethod
    def check(out: dict, ref: dict | None) -> list[bool]:
        ratios = out["ratios"]
        ok = [
            nv == 0
            and all(math.isfinite(x) and x > 0 for x in rs)
            and (ref is None or all(_close(a, b) for a, b in zip(rs, ref["ratios"][i])))
            for i, (rs, nv) in enumerate(zip(ratios, out["violations"]))
        ]
        if ref is not None and len(ratios) != len(ref["ratios"]):
            ok = [False] * len(ok)
        size = out["row_size"]
        for i, bands in enumerate(out["bands"]):
            if not all(b <= BAND_LIMIT for b in bands):
                ok[i * size:(i + 1) * size] = [False] * size
        r4, r32 = ratios[-2][0], ratios[-1][0]
        if not r32 / r4 >= MUTATION_GROWTH_MIN:
            ok[-2:] = [False, False]
        return ok

    @staticmethod
    def reference(out: dict) -> dict:
        return {
            "ratios": out["ratios"],
            "bands": out["bands"],
            "mutation_growth": out["ratios"][-1][0] / out["ratios"][-2][0],
        }

    @classmethod
    def counts(cls, out: dict) -> dict:
        return {
            "testfn.samples": out["samples"],
            # meshgrid and derivative arrays over the full (t, r) sample grid
            "largest_array_bytes": cls.GRID[0] * cls.GRID[1] * 8,
        }


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _bump(x: np.ndarray, width: float) -> np.ndarray:
    """B(x) = phi((x/width)^2): the solver's data profile, written out here
    so the generated histories do not depend on the code under test."""
    s = 2.0 * (x / width) ** 2 - 1.0
    out = np.where(s <= 0.0, 1.0, 0.0)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    f0 = np.exp(-1.0 / si)
    f1 = np.exp(-1.0 / (1.0 - si))
    out[inside] = f1 / (f0 + f1)
    return out


class Diagnostics:
    """chain_check on five generated histories plus the acceptance-07 oracle
    grid."""

    name = "diagnostics"
    P = ExponentVector.of(1.4, 1.4)
    R_LIST = (4.0, 8.0, 16.0)
    # the subcritical run geometry: n = 4000, r_max = 182.55, cfl 0.9,
    # snapshots every 17 steps up to the seed-0 blow-up time of each epsilon
    N, R_MAX, CFL, STRIDE, HORIZON = 4000, 182.55, 0.9, 17, 180.0
    CENTER, WIDTH = 1.3, 0.25
    ORACLE_P = (1.5, 2.0, 3.0)
    ORACLE_Y0 = (1e-3, 3e-2, 1.0)
    ORACLE_EPS = (0.4, 0.2, 0.1, 0.05)

    def __init__(self, root: Path, seed: int, scratch: Path, reference: dict):
        sweep_ref = reference["sweep_subcritical"]
        y0s = [(p, y) for p in self.ORACLE_P for y in self.ORACLE_Y0]
        y0s += [(p, e) for p in self.ORACLE_P for e in self.ORACLE_EPS]
        self.amplitude, *jitter = _factors(seed, 1 + len(y0s), 0.9, 1.1)
        self.oracle_cases = [(p, y * f) for (p, y), f in zip(y0s, jitter)]
        self.epsilons = _config_epsilons(root / "configs" / "subcritical_d3.ini")
        self.ops = len(self.epsilons) + len(self.oracle_cases)
        dr = (self.R_MAX - 1.0) / self.N
        r = 1.0 + dr * np.arange(self.N + 1)
        omega = 4.0 * math.pi
        # C0 = omega int 2 B Psi r^2 dr, the data constant with u0 = u1 = eps B
        self.c0 = float(omega * np.trapezoid(
            2.0 * _bump(r - self.CENTER, self.WIDTH) * (1.0 - 1.0 / r) * r**2, r
        ))
        self.histories = []
        for eps, t_blow in zip(self.epsilons, sweep_ref["t_blow"]):
            times = self.STRIDE * self.CFL * dr * np.arange(
                math.floor(t_blow / (self.STRIDE * self.CFL * dr)) + 1
            )
            u = self.amplitude * eps * (1.0 + times[:, None]) * _bump(
                r[None, :] - self.CENTER - times[:, None], self.WIDTH
            )
            self.histories.append(SolutionHistory(
                times=times, r=r, u=np.repeat(u[:, None, :], self.P.k, axis=1),
                horizon=self.HORIZON,
            ))

    def run_pass(self):
        chains = [
            quadrature.chain_check(
                h, self.P, 3, DIRICHLET, self.R_LIST, epsilon=eps, C0=[self.c0] * self.P.k
            )
            for h, eps in zip(self.histories, self.epsilons)
        ]
        runs = [
            oracle.integrate_adaptive(
                oracle.OdeSystem(oracle.OdeOrder.FIRST, ExponentVector.of(p), epsilon=y0),
                M=1e8,
            )
            for p, y0 in self.oracle_cases
        ]
        ladder = len(self.ORACLE_P) * len(self.ORACLE_Y0)
        fits = []
        for i, p in enumerate(self.ORACLE_P):
            cases = range(ladder + i * len(self.ORACLE_EPS), ladder + (i + 1) * len(self.ORACLE_EPS))
            pts = [(self.oracle_cases[j][1], runs[j].t_blow) for j in cases]
            fits.append(harness.fit_scaling(pts, harness.FitModel.POWER, b_theory=p - 1.0))
        return chains, runs, fits

    def outputs(self, result) -> dict:
        chains, runs, fits = result
        return {
            "amplitude": self.amplitude,
            "c0_eps": [self.c0 * eps for eps in self.epsilons],
            "links": [
                [[[lk.lhs, lk.rhs] for lk in row.links] for row in rep.rows]
                for rep in chains
            ],
            "windows": [[row.in_theory_window for row in rep.rows] for rep in chains],
            "oracle": [
                [p, y0, res.t_blow if res.blew_up else None, res.steps]
                for (p, y0), res in zip(self.oracle_cases, runs)
            ],
            "slopes": [[p, fit.slope] for p, fit in zip(self.ORACLE_P, fits)],
            "points": sum(
                len(self.R_LIST) * 2 * self.P.k * h.u.shape[0] * h.u.shape[2]
                for h in self.histories
            ),
            "largest_array_bytes": max(h.u.nbytes for h in self.histories),
        }

    @classmethod
    def check(cls, out: dict, ref: dict | None) -> list[bool]:
        """Chain links obey the amplitude law of the generated data: with
        u = a u_ref, rhs = a rhs_ref and lhs - C0 eps = a^p (lhs_ref - C0 eps)."""
        a = out["amplitude"]
        p = cls.P.p
        ok = []
        for h, (links, windows) in enumerate(zip(out["links"], out["windows"])):
            good = windows == ref["windows"][h]
            c0e = out["c0_eps"][h]
            for R_links, R_ref in zip(links, ref["links"][h]):
                good = good and len(R_links) == len(R_ref)
                for j, ((lhs, rhs), (lhs0, rhs0)) in enumerate(zip(R_links, R_ref)):
                    good = good and rhs > 0 and _close(rhs, a * rhs0) and _close(
                        lhs, c0e + a ** p[j] * (lhs0 - c0e)
                    )
            ok.append(bool(good))
        for pv, y0, t_blow, _ in out["oracle"]:
            exact = oracle.solve_first_order_exact(pv, y0)
            ok.append(t_blow is not None and _close(t_blow, exact, ORACLE_REL_TOL))
        ladder = len(cls.ORACLE_P) * len(cls.ORACLE_Y0)
        n_eps = len(cls.ORACLE_EPS)
        for i, (pv, slope) in enumerate(out["slopes"]):
            if not abs(slope - (pv - 1.0)) <= ORACLE_SLOPE_TOL:
                start = len(out["links"]) + ladder + i * n_eps
                ok[start:start + n_eps] = [False] * n_eps
        return ok

    @staticmethod
    def reference(out: dict) -> dict:
        return {
            "links": out["links"],
            "windows": out["windows"],
            "link_ratios": [
                [[lhs / rhs for lhs, rhs in R_links] for R_links in links]
                for links in out["links"]
            ],
        }

    @staticmethod
    def counts(out: dict) -> dict:
        return {
            "quadrature.points": out["points"],
            "oracle.steps": sum(steps for *_, steps in out["oracle"]),
            "largest_array_bytes": out["largest_array_bytes"],
        }


# ---------------------------------------------------------------------------
# lemma_diagnostics
# ---------------------------------------------------------------------------


class LemmaDiagnostics:
    """lemma_batch then diagnostics in one pass: every layer the solver does
    not use.  The two run as one workload so that each benchmark run can be
    long enough to average over the shared host's slow and fast spells; the
    pass time of each part is kept in ``part_s``."""

    name = "lemma_diagnostics"
    PARTS = (LemmaBatch, Diagnostics)

    def __init__(self, root: Path, seed: int, scratch: Path, reference: dict):
        self.parts = [cls(root, seed, scratch, reference) for cls in self.PARTS]
        self.ops = sum(part.ops for part in self.parts)
        self.part_s: list[list[float]] = []

    def run_pass(self):
        results, times = [], []
        for part in self.parts:
            t0 = time.perf_counter()
            results.append(part.run_pass())
            times.append(time.perf_counter() - t0)
        self.part_s.append(times)
        return results

    def outputs(self, results) -> list:
        return [part.outputs(res) for part, res in zip(self.parts, results)]

    def check(self, outs: list, refs: list) -> list[bool]:
        return [
            ok for part, out, ref in zip(self.parts, outs, refs) for ok in part.check(out, ref)
        ]

    def counts(self, outs: list) -> dict:
        merged: dict = {}
        for part, out in zip(self.parts, outs):
            for key, value in part.counts(out).items():
                merged[key] = max(merged.get(key, 0), value) if key == "largest_array_bytes" else value
        return merged


# the parts whose seed-0 outputs reference_seed0.json records, in the order
# they are recorded (diagnostics reads the sweep's t_blow)
PARTS = {cls.name: cls for cls in (SweepSubcritical, LemmaBatch, Diagnostics)}
WORKLOADS = {cls.name: cls for cls in (SweepSubcritical, LemmaDiagnostics)}


def reference_for(name: str, reference: dict, seed: int):
    """The reference a pass is compared with: the recorded seed-0 outputs for
    seed 0; for other seeds only the diagnostics (whose links are checked
    through the amplitude law) use it.  A combined workload gets one
    reference per part."""
    if name == LemmaDiagnostics.name:
        return [reference_for(cls.name, reference, seed) for cls in LemmaDiagnostics.PARTS]
    if name == "diagnostics":
        return reference[name]
    return reference[name] if seed == 0 else None


def self_test(reference: dict) -> list[str]:
    """Feed the checks outputs built from the reference, once as recorded and
    once perturbed; return the cases the checks got wrong."""
    errors = []
    sweep_ref = reference["sweep_subcritical"]
    base = {
        "rc": 0,
        "epsilons": [0.8, 0.5657, 0.4, 0.2828, 0.2],
        "verdicts": ["blew-up"] * len(sweep_ref["t_blow"]),
        "t_blow": list(sweep_ref["t_blow"]),
        "slope": sweep_ref["slope"],
    }
    if not all(SweepSubcritical.check(base, sweep_ref)):
        errors.append("sweep: the recorded outputs do not pass")
    bumped = dict(base, t_blow=list(base["t_blow"]))
    bumped["t_blow"][2] *= 1.0 + 1e-6
    if all(SweepSubcritical.check(bumped, sweep_ref)):
        errors.append("sweep: a t_blow perturbed by 1e-6 passes")

    lemma_ref = reference["lemma_batch"]
    base = {
        "ratios": lemma_ref["ratios"],
        "violations": [0] * len(lemma_ref["ratios"]),
        "bands": [list(b) for b in lemma_ref["bands"]],
        "row_size": len(LemmaBatch.R_BASE),
    }
    if not all(LemmaBatch.check(base, lemma_ref)):
        errors.append("lemma: the recorded outputs do not pass")
    wide = dict(base, bands=[list(b) for b in base["bands"]])
    wide["bands"][0][1] = BAND_LIMIT * 1.01
    if all(LemmaBatch.check(wide, lemma_ref)):
        errors.append("lemma: a band above 4 passes")
    return errors
