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

Overrides are ``{(section, key): value}``; ``load_ini`` writes each value
that is not None into the parser (adding a section the file lacks) before
it checks the keys, so an override is read, cast and validated exactly as
the file's own value would be, and 0 is a value, not "not given".  The CLI
flags are such overrides.  A section or key outside ``INI_KEYS`` is
rejected, not ignored, so a typo such as ``cfl_`` fails the load, and a
read of a key without a default that the file lacks (``[time] t_end``, or
``[sweep] epsilons`` of a sweep) raises ``MissingKeyError``, a
``ValueError`` that names the section and key.
``[history] snapshots`` applies to ``simulate``: a sweep stores no
histories, so its records.json shows ``history_snapshots`` 0.

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


# the allowed keys of every section; both loaders read through load_ini
INI_KEYS = {
    "system": ("p", "dim"),
    "bc": ("alpha", "beta"),
    "grid": ("n", "r_max", "margin"),
    "time": ("t_end", "cfl"),
    "data": ("center", "width", "epsilon"),
    "thresholds": ("blowup",),
    "history": ("snapshots",),
    "sweep": ("epsilons", "workers"),
}

# stale sweep keys once set a per-run grid or horizon
_SWEEP_NOTE = "; every run of a sweep uses the [grid] and the [time] t_end of the file"


class MissingKeyError(configparser.NoOptionError, ValueError):
    """A section or key that a loader reads without a default is absent.

    As a ``NoOptionError`` it still lets a read with a fallback take the
    fallback; as a ``ValueError`` it is refused input, like a bad value."""

    def __str__(self) -> str:
        return f"missing [{self.section}] key {self.option!r}"


class _Parser(configparser.ConfigParser):
    """A parser whose reads report an absent section or key by name."""

    def get(self, section, option, **kwargs):
        try:
            return super().get(section, option, **kwargs)
        except (configparser.NoSectionError, configparser.NoOptionError):
            raise MissingKeyError(option, section) from None


def load_ini(path: str | Path, overrides: dict | None = None) -> configparser.ConfigParser:
    parser = _Parser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    for (section, key), value in (overrides or {}).items():
        if value is not None:
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, str(value))
    for section in parser.sections():
        if section not in INI_KEYS:
            raise ValueError(
                f"{path}: unknown section [{section}] (allowed: {', '.join(INI_KEYS)})"
            )
        allowed = INI_KEYS[section]
        for key in parser.options(section):
            if key not in allowed:
                note = _SWEEP_NOTE if section == "sweep" else ""
                raise ValueError(
                    f"{path}: unknown [{section}] key {key!r} "
                    f"(allowed: {', '.join(allowed)}){note}"
                )
    return parser


def solver_config_from_ini(
    path: str | Path, overrides: dict | None = None
) -> SolverConfig:
    """Build a SolverConfig from an INI file plus optional
    ``{(section, key): value}`` overrides."""
    return _solver_config(load_ini(path, overrides))


def _solver_config(cfg: configparser.ConfigParser) -> SolverConfig:
    fields = dict(
        p=ExponentVector(parse_floats(cfg.get("system", "p"))),
        d=cfg.getint("system", "dim"),
        bc=BoundaryCondition(
            cfg.getfloat("bc", "alpha", fallback=0.0), cfg.getfloat("bc", "beta", fallback=1.0)
        ),
        T_end=cfg.getfloat("time", "t_end"),
        data=InitialData(
            center=cfg.getfloat("data", "center", fallback=2.0),
            width=cfg.getfloat("data", "width", fallback=0.5),
            epsilon=cfg.getfloat("data", "epsilon", fallback=1.0),
        ),
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


def sweep_spec_from_ini(path: str | Path, overrides: dict | None = None) -> SweepSpec:
    """SweepSpec from the [sweep] section on top of the solver config.

    Every run of the sweep uses the file's grid and ``[time] t_end``."""
    cfg = load_ini(path, overrides)
    return SweepSpec(
        base=_solver_config(cfg),
        epsilons=parse_floats(cfg.get("sweep", "epsilons")),
        workers=cfg.getint("sweep", "workers", fallback=1),
    )
