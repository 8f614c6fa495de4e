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

    [time]
    t_end = 120.0
    cfl = 0.9

    [data]
    center = 2.0
    width = 0.5
    epsilon = 0.5

    [history]
    snapshots = 256   ; simulate --dump-history only

    [sweep]
    epsilons = 0.8, 0.566, 0.4, 0.283, 0.2

Overrides are ``{(section, key): value}``; ``load_ini`` writes each value
that is not None, as text, over the file's (adding a section the file
lacks) before it checks the keys, so an override is read, cast and
validated exactly as the file's own value, and 0 is a value, not "not
given".  The CLI flags are such overrides.  ``INI_KEYS`` holds each
section's keys and each key's reader; any other section or key is
rejected, so a typo such as ``cfl_`` fails the load.  Defaults come from
the dataclasses: a key the file does not set takes the default of the field
it fills (``[bc]`` that of ``BoundaryCondition.dirichlet()``), and a missing
key without one (``[time] t_end``, or ``[sweep] epsilons`` of a sweep)
raises a ``ValueError`` naming the section and key.
``[history] snapshots`` counts only for ``simulate --dump-history``: without
that flag, and in every sweep, no history is stored, so run.json and
records.json show ``history_snapshots`` 0.  The blow-up
threshold is no key: every run uses ``solver.BLOWUP_THRESHOLD``, 1e8, and
records.json keeps the 1e6 and 1e10 crossings beside it.

Grid rule: ``r_max = auto`` sizes the domain from unit-speed propagation
plus a margin of 1, ``r_max = 1 + (center + width - 1) + t_end + 1``
(``SolverConfig.with_auto_domain``); a number is used as given.  A sweep
steps every epsilon in one ladder on this grid and horizon, so the file's
``r_max`` holds for every run.
"""

from __future__ import annotations

import configparser
from dataclasses import replace
from pathlib import Path

from .exponents import BoundaryCondition, ExponentVector
from .harness import SweepSpec
from .solver import InitialData, RadialGrid, SolverConfig


def parse_floats(text: str) -> tuple[float, ...]:
    """Comma- (or semicolon-) separated floats; empty items are skipped."""
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


# the allowed keys of every section, each with its reader; both loaders read
# through load_ini
INI_KEYS = {
    "system": {"p": parse_floats, "dim": int},
    "bc": {"alpha": float, "beta": float},
    "grid": {"n": int, "r_max": str},
    "time": {"t_end": float, "cfl": float},
    "data": {"center": float, "width": float, "epsilon": float},
    "history": {"snapshots": int},
    "sweep": {"epsilons": parse_floats},
}

# the hint for any other [sweep] key: a sweep takes only its epsilons
_SWEEP_NOTE = "; a sweep steps every epsilon in one ladder on the file's [grid] and [time] t_end"


def load_ini(path: str | Path, overrides: dict | None = None) -> dict[str, dict[str, str]]:
    """The file's values as written (no ``%`` interpolation),
    ``{section: {key: text}}``, with the overrides merged in.  A file that
    configparser cannot read (no section header, a key given twice) raises
    ValueError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        found = parser.read(path)
    except configparser.Error as exc:  # names the file, on up to three lines
        raise ValueError(" ".join(str(exc).split())) from None
    if not found:
        raise FileNotFoundError(f"config file not found: {path}")
    ini = {section: dict(parser[section]) for section in parser.sections()}
    for (section, key), value in (overrides or {}).items():
        if value is not None:
            ini.setdefault(section, {})[key] = str(value)
    for section, values in ini.items():
        if section not in INI_KEYS:
            raise ValueError(
                f"{path}: unknown section [{section}] (allowed: {', '.join(INI_KEYS)})"
            )
        allowed = INI_KEYS[section]
        for key in values:
            if key not in allowed:
                note = _SWEEP_NOTE if section == "sweep" else ""
                raise ValueError(
                    f"{path}: unknown [{section}] key {key!r} "
                    f"(allowed: {', '.join(allowed)}){note}"
                )
    return ini


def _required(ini: dict, section: str, key: str):
    """The value of a key the file must set, read by its reader."""
    if key not in ini.get(section, {}):
        raise ValueError(f"missing [{section}] key {key!r}")
    return INI_KEYS[section][key](ini[section][key])


def _given(ini: dict, section: str, *keys: str, **fields: str) -> dict:
    """``{field: value}`` for each key the file sets, read by its reader: a
    key fills the field of its own name, ``field=key`` a field named
    otherwise.  Every other field keeps its dataclass default."""
    values = ini.get(section, {})
    fields.update(zip(keys, keys))
    return {f: INI_KEYS[section][key](values[key]) for f, key in fields.items() if key in values}


def solver_config_from_ini(path: str | Path, overrides: dict | None = None) -> SolverConfig:
    """Build a SolverConfig from an INI file plus optional
    ``{(section, key): value}`` overrides."""
    return _solver_config(load_ini(path, overrides))


def _solver_config(ini: dict) -> SolverConfig:
    fields = dict(
        p=ExponentVector(_required(ini, "system", "p")),
        d=_required(ini, "system", "dim"),
        bc=replace(BoundaryCondition.dirichlet(), **_given(ini, "bc", "alpha", "beta")),
        T_end=_required(ini, "time", "t_end"),
        data=InitialData(**_given(ini, "data", "center", "width", "epsilon")),
        **_given(ini, "time", "cfl"),
        **_given(ini, "history", history_snapshots="snapshots"),
    )
    n = _required(ini, "grid", "n")
    r_max = _given(ini, "grid", "r_max").get("r_max", "auto")
    if r_max.lower() == "auto":
        return SolverConfig.with_auto_domain(n=n, **fields)
    return SolverConfig(grid=RadialGrid(r_max=float(r_max), n=n), **fields)


def sweep_spec_from_ini(path: str | Path, overrides: dict | None = None) -> SweepSpec:
    """SweepSpec from the [sweep] section on top of the solver config.

    Every run of the sweep uses the file's grid and ``[time] t_end``."""
    ini = load_ini(path, overrides)
    return SweepSpec(base=_solver_config(ini), epsilons=_required(ini, "sweep", "epsilons"))
