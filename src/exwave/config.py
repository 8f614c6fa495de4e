"""Config-file ingestion for simulations and sweeps.

Plain INI text with nested sections, e.g.::

    [system]
    p = 1.4, 1.4
    dim = 3

    [bc]
    alpha = 0.0
    beta = 1.0

    [grid]
    n = 4000
    r_max = auto      ; or a number
    margin = 1.0      ; used by auto only

    [time]
    t_end = 120.0
    cfl = 0.9

    [data]
    center = 2.0
    width = 0.5
    epsilon = 0.5

    [thresholds]
    blowup = 1e8

    [history]
    snapshots = 256   ; simulate only

    [sweep]
    epsilons = 0.8, 0.566, 0.4, 0.283, 0.2
    workers = 1

CLI flags override individual keys.  ``[history] snapshots`` applies to
``simulate``: a sweep stores no histories, so its records.json shows
``history_snapshots`` 0.

Grid rule: ``r_max = auto`` sizes the domain from unit-speed propagation,
``r_max = 1 + (center + width - 1) + t_end + margin``
(``SolverConfig.with_auto_domain``); a number is used as given and
``margin`` is ignored.  A sweep runs every epsilon on this grid and horizon,
so the margin or explicit ``r_max`` of the file holds for every run.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .exponents import BoundaryCondition, ExponentVector
from .harness import SweepSpec
from .solver import InitialData, RadialGrid, SolverConfig


def parse_floats(text: str) -> tuple[float, ...]:
    """Comma- (or semicolon-) separated floats; empty items are skipped."""
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def load_ini(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    return parser


def solver_config_from_ini(
    path: str | Path, overrides: dict | None = None
) -> SolverConfig:
    """Build a SolverConfig from an INI file plus optional flag overrides
    (keys: dim, alpha, beta, epsilon)."""
    return _solver_config(load_ini(path), overrides or {})


def _solver_config(cfg: configparser.ConfigParser, overrides: dict) -> SolverConfig:
    # a flag given as 0 is a value to validate, not "not given"
    p = ExponentVector(parse_floats(cfg.get("system", "p")))
    d = overrides.get("dim")
    if d is None:
        d = cfg.getint("system", "dim")

    alpha = overrides.get("alpha")
    beta = overrides.get("beta")
    if alpha is None:
        alpha = cfg.getfloat("bc", "alpha", fallback=0.0)
    if beta is None:
        beta = cfg.getfloat("bc", "beta", fallback=1.0)
    bc = BoundaryCondition(float(alpha), float(beta))

    data = InitialData(
        center=cfg.getfloat("data", "center", fallback=2.0),
        width=cfg.getfloat("data", "width", fallback=0.5),
        epsilon=float(
            overrides.get("epsilon")
            if overrides.get("epsilon") is not None
            else cfg.getfloat("data", "epsilon", fallback=1.0)
        ),
    )

    fields = dict(
        p=p,
        d=int(d),
        bc=bc,
        T_end=cfg.getfloat("time", "t_end"),
        data=data,
        cfl=cfg.getfloat("time", "cfl", fallback=0.9),
        blowup_threshold=cfg.getfloat("thresholds", "blowup", fallback=1e8),
        history_snapshots=cfg.getint("history", "snapshots", fallback=256),
    )
    n = cfg.getint("grid", "n")
    r_max = cfg.get("grid", "r_max", fallback="auto").strip().lower()
    if r_max == "auto":
        margin = cfg.getfloat("grid", "margin", fallback=1.0)
        return SolverConfig.with_auto_domain(n=n, margin=margin, **fields)
    return SolverConfig(grid=RadialGrid(r_max=float(r_max), n=n), **fields)


SWEEP_KEYS = ("epsilons", "workers")


def sweep_spec_from_ini(path: str | Path, overrides: dict | None = None) -> SweepSpec:
    """SweepSpec from the [sweep] section on top of the solver config.

    Every run of the sweep uses the file's grid and ``[time] t_end``, so a
    [sweep] key other than SWEEP_KEYS is rejected, not ignored."""
    overrides = overrides or {}
    cfg = load_ini(path)
    base = _solver_config(cfg, overrides)
    if cfg.has_section("sweep"):
        for key in cfg.options("sweep"):
            if key not in SWEEP_KEYS:
                raise ValueError(
                    f"{path}: unknown [sweep] key {key!r} (allowed: "
                    f"{', '.join(SWEEP_KEYS)}); every run of a sweep uses the "
                    "[grid] and the [time] t_end of the file"
                )
    epsilons = overrides.get("eps_list")
    if epsilons is None:
        epsilons = parse_floats(cfg.get("sweep", "epsilons"))
    workers = overrides.get("threads")
    if workers is None:
        workers = cfg.getint("sweep", "workers", fallback=1)
    return SweepSpec(base=base, epsilons=epsilons, workers=int(workers))
