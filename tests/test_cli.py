import configparser
import functools
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

import exwave
from exwave import cli, harness, solver
from exwave.cli import build_parser, main
from exwave import config
from exwave.config import solver_config_from_ini, sweep_spec_from_ini
from exwave.exponents import BoundaryCondition, ExponentVector
from exwave.harness import SweepSpec, record_to_dict
from exwave.solver import InitialData, SolverConfig, run

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

CONFIG_TEXT = """
[system]
p = 1.4, 1.4
dim = 3

[bc]
alpha = 0.0
beta = 1.0

[grid]
n = 400
r_max = auto

[time]
t_end = 30.0
cfl = 0.9

[data]
center = 2.0
width = 0.5
epsilon = 0.8

[history]
snapshots = 0

[sweep]
epsilons = 0.8, 0.6
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    return path


def test_config_loading(config_file):
    cfg = solver_config_from_ini(config_file)
    assert cfg.p.p == (1.4, 1.4)
    assert cfg.d == 3 and cfg.bc.kind.value == "dirichlet"
    assert cfg.grid.n == 400
    assert cfg.grid.r_max == pytest.approx(1.0 + 1.5 + 30.0 + 1.0)
    assert cfg.data.epsilon == 0.8
    spec = sweep_spec_from_ini(config_file)
    assert spec.epsilons == (0.8, 0.6)


def test_the_config_docstring_example_loads_and_sets_every_key(tmp_path):
    """The INI example of the ``config`` module docstring loads as a sweep
    and sets exactly the keys of ``INI_KEYS``, so the docstring cannot drift
    from the loader."""
    lines = config.__doc__.split("::\n", 1)[1].splitlines()
    example = itertools.takewhile(lambda line: not line or line.startswith("    "), lines)
    path = tmp_path / "example.ini"
    path.write_text(textwrap.dedent("\n".join(example)))
    sweep_spec_from_ini(path)
    given = {(section, key) for section, values in config.load_ini(path).items() for key in values}
    assert given == {(section, key) for section, keys in config.INI_KEYS.items() for key in keys}
    assert len(given) == 13


# a value for each INI key other than the sweep's, unlike CONFIG_TEXT's
OTHER_VALUES = {
    ("system", "p"): "1.5, 1.5",
    ("system", "dim"): "2",
    ("bc", "alpha"): "1.0",
    ("bc", "beta"): "2.0",
    ("grid", "n"): "500",
    ("grid", "r_max"): "40.0",
    ("time", "t_end"): "20.0",
    ("time", "cfl"): "0.5",
    ("data", "center"): "2.5",
    ("data", "width"): "0.4",
    ("data", "epsilon"): "0.5",
    ("history", "snapshots"): "8",
}


def test_every_solver_config_field_is_filled_by_an_ini_key(config_file):
    """A ``SolverConfig`` field that no INI key fills is a knob only library
    callers can set: changing each key in turn must between them change
    every field."""
    keys = {(section, key) for section, readers in config.INI_KEYS.items() for key in readers}
    assert set(OTHER_VALUES) == keys - {("sweep", "epsilons")}
    base = solver_config_from_ini(config_file)
    names = {f.name for f in fields(SolverConfig)}
    filled = set()
    for key, value in OTHER_VALUES.items():
        changed = solver_config_from_ini(config_file, {key: value})
        filled |= {name for name in names if getattr(changed, name) != getattr(base, name)}
    assert filled == names


@pytest.mark.parametrize(
    "key, value",
    [("horizon", "bound-aware"), ("t_fixed", "500.0"), ("factor", "4.0"), ("workers", "2")],
    ids=["horizon", "t_fixed", "factor", "workers"],
)
def test_stale_sweep_key_is_rejected(tmp_path, key, value):
    path = tmp_path / "stale.ini"
    path.write_text(CONFIG_TEXT.replace("[sweep]", f"[sweep]\n{key} = {value}"))
    with pytest.raises(ValueError, match=rf"'{key}'.*\[time\] t_end"):
        sweep_spec_from_ini(path)


@pytest.mark.parametrize("loader", [solver_config_from_ini, sweep_spec_from_ini])
@pytest.mark.parametrize(
    "old, new, section, key",
    [
        ("cfl = 0.9", "cfl_ = 0.9", "time", "cfl_"),
        ("n = 400", "n = 400\nnn = 800", "grid", "nn"),
        ("r_max = auto", "r_max = auto\nmargin = 1.0", "grid", "margin"),
        ("[history]", "[histroy]", "histroy", None),
        ("[history]", "[thresholds]\nblowup = 1e8\n\n[history]", "thresholds", None),
    ],
    ids=["time-typo", "grid-typo", "grid-margin", "unknown-section", "thresholds"],
)
def test_unknown_ini_key_or_section_is_rejected(tmp_path, loader, old, new, section, key):
    path = tmp_path / "typo.ini"
    path.write_text(CONFIG_TEXT.replace(old, new))
    found = rf"\[{section}\] key '{key}'" if key else rf"section \[{section}\]"
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + found):
        loader(path)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_loads(path):
    base = sweep_spec_from_ini(path).base
    assert base.domain_of_dependence_ok()
    assert base.data.width / base.grid.dr >= 5  # cells across the bump half-width


def test_config_overrides(config_file):
    cfg = solver_config_from_ini(
        config_file,
        {("system", "dim"): 2, ("bc", "alpha"): 1.0, ("bc", "beta"): 0.0,
         ("data", "epsilon"): 0.3},
    )
    assert cfg.d == 2 and cfg.bc.kind.value == "neumann"
    assert cfg.data.epsilon == 0.3
    spec = sweep_spec_from_ini(config_file, {("sweep", "epsilons"): "0.5, 0.25"})
    assert spec.epsilons == (0.5, 0.25)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({("system", "dim"): 0}, "d must be >= 1"),
        ({("sweep", "workers"): 0}, r"unknown \[sweep\] key 'workers'"),
        ({("grid", "margin"): 0}, r"unknown \[grid\] key 'margin'"),
    ],
    ids=["dim", "workers", "margin"],
)
def test_zero_override_is_validated_not_ignored(config_file, overrides, message):
    """A 0 override is checked as the file's own value would be; a retired
    key is refused, not ignored."""
    with pytest.raises(ValueError, match=message):
        sweep_spec_from_ini(config_file, overrides)


LOADERS = {"simulate": solver_config_from_ini, "sweep": sweep_spec_from_ini}


def _flag_loaded(command, config_file, *flag_args):
    """The config ``command`` runs with these flags: parsed by the CLI's own
    parser, then loaded with the INI overrides the flags name."""
    args = build_parser().parse_args([command, str(config_file), *flag_args])
    return LOADERS[command](config_file, cli._ini_overrides(args))


FLAG_CASES = [
    ("simulate", "--dim", "2", "system", "dim"),
    ("simulate", "--alpha", "1.0", "bc", "alpha"),
    ("simulate", "--beta", "2.5", "bc", "beta"),
    ("simulate", "--eps", "0.3", "data", "epsilon"),
    ("sweep", "--dim", "2", "system", "dim"),
    ("sweep", "--alpha", "1.0", "bc", "alpha"),
    ("sweep", "--beta", "2.5", "bc", "beta"),
    ("sweep", "--eps-list", "0.5,0.25", "sweep", "epsilons"),
]


@pytest.mark.parametrize(
    "command, flag, value, section, key",
    FLAG_CASES,
    ids=[f"{command}{flag}" for command, flag, *_ in FLAG_CASES],
)
def test_each_flag_sets_the_ini_key_it_names(
    tmp_path, config_file, command, flag, value, section, key
):
    ini = configparser.ConfigParser()
    ini.read_string(CONFIG_TEXT)
    ini.set(section, key, value)
    edited = tmp_path / "edited.ini"
    with open(edited, "w") as fh:
        ini.write(fh)
    from_flag = _flag_loaded(command, config_file, flag, value)
    assert from_flag == LOADERS[command](edited)
    assert from_flag != LOADERS[command](config_file)


def test_an_ini_with_only_the_required_keys_loads_to_the_dataclass_defaults(tmp_path):
    """Every key the file leaves out takes the default of the field it fills."""
    path = tmp_path / "required.ini"
    path.write_text(
        "[system]\np = 1.4, 1.4\ndim = 3\n[grid]\nn = 400\n[time]\nt_end = 30.0\n"
        "[sweep]\nepsilons = 0.8, 0.6\n"
    )
    base = SolverConfig.with_auto_domain(
        p=ExponentVector.of(1.4, 1.4), d=3, bc=BoundaryCondition.dirichlet(), n=400,
        T_end=30.0, data=InitialData(),
    )
    assert solver_config_from_ini(path) == base
    assert sweep_spec_from_ini(path) == SweepSpec(base=base, epsilons=(0.8, 0.6))


def test_eps_list_adds_the_sweep_section_a_file_lacks(tmp_path):
    path = tmp_path / "no_sweep.ini"
    path.write_text(CONFIG_TEXT.split("[sweep]")[0])
    spec = _flag_loaded("sweep", path, "--eps-list", "0.5,0.25")
    assert spec.epsilons == (0.5, 0.25)


def test_an_empty_eps_list_is_refused_not_ignored(config_file):
    with pytest.raises(ValueError, match="epsilon list must not be empty"):
        _flag_loaded("sweep", config_file, "--eps-list", "")


# the bump peaks at epsilon, so data at or above the blow-up threshold is
# refused before it is stepped
EPS_AT_THRESHOLD = (
    "simulate run.ini --eps 1e9 --out out",
    "sweep run.ini --eps-list 1e9,0.5 --out out",
    "simulate eps_1e8.ini --out out",
)


# epsilon rows that `exwave fit` refuses under either law instead of dropping
# them or failing inside the solve
BAD_FIT_EPSILONS = {"neg_eps": "-0.1", "zero_eps": "0", "nan_eps": "nan", "inf_eps": "inf"}
FIT_EPS_REFUSALS = tuple(
    f"fit {name}.csv{model}" for name in BAD_FIT_EPSILONS for model in ("", " --model power-log")
)
# the start of the reason of each refusal that names one
REASONS = {
    **dict.fromkeys(EPS_AT_THRESHOLD, "epsilon "),
    **dict.fromkeys(FIT_EPS_REFUSALS, "every epsilon must be finite and positive"),
    "simulate huge_t_end.ini --out out": "T_end = 1e+308 spans more steps of dt",
    "verify-lemma --grid 3": "the sample grid (3, 3) holds no sample",
    "simulate huge_n.ini --out out": "n must be at most 1.797693e+308",
    "gamma --p 1e200,3e200 --dim 3": "the product of the exponents (1e+200, 3e+200) overflows",
    "classify --p 1e200,1e200 --dim 3 --json": "the product of the exponents (1e+200, 1e+200)",
    "sweep run.ini --out points.csv": "--out points.csv exists and is not a directory",
    "simulate run.ini --out points.csv": "--out points.csv exists and is not a directory",
    "sweep run.ini --out points.csv/sub": "--out points.csv/sub lies under points.csv, which",
    "simulate run.ini --out points.csv/sub/run": (
        "--out points.csv/sub/run lies under points.csv, which exists and is not a directory"
    ),
    "report points.csv": "[Errno 20] Not a directory",
    "fit empty": "[Errno 21] Is a directory",
}


def _no_step(*args):
    raise AssertionError("refused input reached the solver's step")


@pytest.mark.parametrize(
    "argv",
    [
        "verify-lemma --dim 2,x",
        "verify-lemma --R 4,abc",
        "verify-lemma --R 1,4",
        "verify-lemma --lam x",
        "gamma --p 1.4,x --dim 3",
        "gamma --p 0.5 --dim 3",
        "classify --p 1.4,1.4 --dim 3 --alpha 0 --beta 0",
        "classify --p 1.4,1.4 --dim 0",
        "simulate run.ini --eps -1 --out out",
        "simulate run.ini --dim 0 --out out",
        "sweep run.ini --eps-list 0.5,0.6 --out out",
        "sweep run.ini --eps-list 0.5,x --out out",
        "sweep missing.ini --out out",
        "report empty",
        "verify-lemma --grid 0",
        "verify-lemma --grid 1",
        "simulate cut.ini --out out",
        "sweep cut.ini --out out",
        "sweep no_sweep.ini --out out",
        "report malformed",
        "sweep run.ini --eps-list 0.8,nan --out out",
        "simulate run.ini --eps inf --out out",
        "simulate nan_blowup.ini --out out",
        "verify-lemma --lam 0",
        "verify-lemma --lam -1",
        "verify-lemma --lam nan",
        "verify-lemma --R 4,nan",
        "verify-lemma --R 4,inf",
        "sweep inf_rmax.ini --out out",
        "sweep nan_rmax.ini --out out",
        "sweep nan_margin.ini --out out",
        "classify --p 1.4,1.4 --dim 3 --alpha nan",
        "simulate run.ini --alpha inf --out out",
        "simulate neg_snapshots.ini --dump-history --out out",
        "simulate percent.ini --out out",
        "sweep twice_n.ini --out out",
        "simulate headless.ini --out out",
        "simulate stiff_robin.ini --out out",
        "classify --p 1.4,1.4 --dim 3 --alpha -1 --beta 1",
        "gamma --p 1.000000001,1.000000001 --dim 3",
        "fit no_epsilon.csv",
        "fit points.csv --b-theory nan",
        "fit points.csv --b-theory inf",
        "verify-lemma --R 1e300 --grid 8",
        "verify-lemma --lam= --grid 8",
        "verify-lemma --p= --grid 8",
        "verify-lemma --dim 0 --bc neumann --grid 8 --R 4,8",
        "verify-lemma --dim -3 --bc neumann --grid 8 --R 4,8",
        "verify-lemma --lam 1e300",
        *EPS_AT_THRESHOLD,
        *FIT_EPS_REFUSALS,
        "simulate huge_t_end.ini --out out",
        "verify-lemma --grid 3",
        "simulate huge_n.ini --out out",
        "gamma --p 1e200,3e200 --dim 3",
        "classify --p 1e200,1e200 --dim 3 --json",
        "sweep run.ini --out points.csv",
        "simulate run.ini --out points.csv",
        "sweep run.ini --out points.csv/sub",
        "simulate run.ini --out points.csv/sub/run",
        "report points.csv",
        "fit empty",
    ],
)
def test_cli_refuses_bad_input_with_exit_2(config_file, monkeypatch, capsys, argv):
    """Refused input leaves by one path: a one-line ``<command>: <reason>``
    on stderr, exit 2, nothing on stdout, and no file or directory is
    written.  ``cut.ini`` ends before ``[time]``, ``no_sweep.ini`` has no
    ``[sweep]`` section, ``nan_blowup.ini`` sets the retired ``[thresholds]
    blowup = nan``, ``inf_rmax.ini``, ``nan_rmax.ini`` and ``nan_margin.ini`` set
    ``[grid] r_max = inf``, ``r_max = nan`` and the retired ``margin = nan``,
    ``neg_snapshots.ini`` sets ``[history] snapshots = -5``,
    ``percent.ini`` sets ``epsilon = 0.4%``, ``twice_n.ini`` gives ``n`` twice
    in ``[grid]``, ``headless.ini`` has no section header,
    ``malformed/records.json`` holds a record without the fields the report
    tables read, ``stiff_robin.ini`` sets ``alpha = 0.01``, whose Robin
    stability limit at this dr is cfl 0.467 < 0.9, ``no_epsilon.csv`` has a
    ``t_blow`` but no ``epsilon`` column, ``points.csv`` holds
    five blow-up points, ``eps_1e8.ini`` sets ``epsilon = 1e8``,
    ``huge_t_end.ini`` sets ``r_max = 10`` and ``t_end = 1e308`` (too many
    steps to count), ``huge_n.ini`` sets ``n`` to 1 followed by 400 zeros
    (more cells than a float holds), and each ``<name>.csv`` of ``BAD_FIT_EPSILONS`` adds one
    row with that epsilon to ``points.csv``.  ``points.csv`` is a file where
    ``--out`` and ``report`` need a directory, and ``empty`` a directory
    where ``fit`` needs a file.  No refused input steps the solver, and each
    refusal in ``REASONS`` is made for its reason."""
    root = config_file.parent
    monkeypatch.chdir(root)
    (root / "empty").mkdir()
    (root / "cut.ini").write_text(CONFIG_TEXT.split("[time]")[0])
    (root / "no_sweep.ini").write_text(CONFIG_TEXT.split("[sweep]")[0])
    (root / "nan_blowup.ini").write_text(
        CONFIG_TEXT.replace("[history]", "[thresholds]\nblowup = nan\n\n[history]")
    )
    (root / "inf_rmax.ini").write_text(CONFIG_TEXT.replace("r_max = auto", "r_max = inf"))
    (root / "nan_rmax.ini").write_text(CONFIG_TEXT.replace("r_max = auto", "r_max = nan"))
    (root / "nan_margin.ini").write_text(CONFIG_TEXT.replace("n = 400", "n = 400\nmargin = nan"))
    (root / "neg_snapshots.ini").write_text(CONFIG_TEXT.replace("snapshots = 0", "snapshots = -5"))
    (root / "percent.ini").write_text(CONFIG_TEXT.replace("epsilon = 0.8", "epsilon = 0.4%"))
    (root / "twice_n.ini").write_text(CONFIG_TEXT.replace("n = 400", "n = 400\nn = 800"))
    (root / "headless.ini").write_text(CONFIG_TEXT.replace("[system]\n", ""))
    (root / "malformed").mkdir()
    (root / "malformed" / "records.json").write_text('[{"x": 1}]')
    (root / "stiff_robin.ini").write_text(CONFIG_TEXT.replace("alpha = 0.0", "alpha = 0.01"))
    (root / "no_epsilon.csv").write_text("eps,t_blow\n0.8,5.0\n")
    (root / "points.csv").write_text(FIT_CSV)
    (root / "eps_1e8.ini").write_text(CONFIG_TEXT.replace("epsilon = 0.8", "epsilon = 1e8"))
    (root / "huge_t_end.ini").write_text(
        CONFIG_TEXT.replace("r_max = auto", "r_max = 10").replace("t_end = 30.0", "t_end = 1e308")
    )
    (root / "huge_n.ini").write_text(CONFIG_TEXT.replace("n = 400", "n = 1" + "0" * 400))
    for name, eps in BAD_FIT_EPSILONS.items():
        (root / f"{name}.csv").write_text(f"{FIT_CSV}{eps},40,60,blew-up\n")
    inputs = sorted(root.rglob("*"))
    monkeypatch.setattr(solver._Kernel, "advance", _no_step)
    reason = REASONS.get(argv, "")
    argv = argv.split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]}: {reason}") and captured.err.count("\n") == 1
    assert sorted(root.rglob("*")) == inputs


FIT_CSV = (
    "epsilon,t_blow,horizon,verdict\n"
    "0.8,5.0,60,blew-up\n0.6,7.0,60,blew-up\n0.45,9.5,60,blew-up\n"
    "0.34,13.0,60,blew-up\n0.25,18.0,60,blew-up\n"
)

# per subcommand: the arguments of a small valid call, and every numeric and
# list flag; --grid never gets a large value
FUZZ_CALLS = {
    "gamma": (["--p", "1.4,1.4", "--dim", "3"], ["--p", "--dim"]),
    "classify": (["--p", "1.4,1.4", "--dim", "3"], ["--p", "--dim", "--alpha", "--beta"]),
    "verify-lemma": (
        ["--R", "4,8", "--dim", "3", "--grid", "8"],
        ["--R", "--lam", "--p", "--dim", "--bc", "--grid"],
    ),
    "simulate": (["run.ini"], ["--dim", "--alpha", "--beta", "--eps"]),
    "sweep": (["run.ini"], ["--dim", "--alpha", "--beta", "--eps-list"]),
    "fit": (["points.csv"], ["--b-theory"]),
}
FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "", "abc"]


def _ini_fuzz_calls(root):
    """``simulate`` calls (``sweep`` for the ``[sweep]`` key) on CONFIG_TEXT
    with one of its keys, all numeric, set to each of FUZZ_VALUES and 1e308,
    once under ``r_max = auto`` and once under ``r_max = 33.5``.  33.5 is what
    auto gives CONFIG_TEXT: it meets the domain-of-dependence rule, whose
    warning is an error in Tier-1, and ``t_end = 1e308`` then meets a fixed
    ``dr``."""
    parser = configparser.ConfigParser()
    parser.read_string(CONFIG_TEXT)
    calls = []
    for r_max in ("auto", "33.5"):
        text = CONFIG_TEXT.replace("r_max = auto", f"r_max = {r_max}")
        for section in parser.sections():
            for key in parser[section]:
                for value in [*FUZZ_VALUES, "1e308"]:
                    path = root / f"fuzz{len(calls)}.ini"
                    path.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text))
                    calls.append(["sweep" if section == "sweep" else "simulate", path.name])
    return calls


def test_cli_never_ends_in_a_traceback(config_file, monkeypatch, capsys):
    """Every flag above, given each of FUZZ_VALUES, runs, fails a check or
    is refused: ``main`` returns 0, 1 or 2 (argparse's refusal leaves
    through SystemExit(2)), and no other exception escapes it.  So do every
    INI key of ``_ini_fuzz_calls``, an R whose R^4 overflows and an epsilon
    at the blow-up threshold."""
    root = config_file.parent
    monkeypatch.chdir(root)
    (root / "points.csv").write_text(FIT_CSV)
    calls = [
        [command, *base, f"{flag}={value}"]
        for command, (base, flags) in FUZZ_CALLS.items()
        for flag in flags
        for value in FUZZ_VALUES
    ]
    calls += _ini_fuzz_calls(root)
    calls.append(["verify-lemma", "--R=1e300", "--grid", "8"])
    calls.append(["simulate", "run.ini", "--eps=1e8"])
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2), argv
    capsys.readouterr()


def test_refused_input_exits_2_without_a_traceback_from_the_console_entry():
    """``python -m exwave.cli`` leaves through ``sys.exit(main())``, as the
    console script does; a flag the parser does not know (the retired
    ``sweep --threads``, ``classify --tol`` and ``verify-lemma --band``)
    leaves with argparse's usage message."""
    src = Path(exwave.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "exwave.cli", "verify-lemma", "--R", "4,abc"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "verify-lemma: could not convert string to float: 'abc'\n"
    for argv in (
        "sweep run.ini --threads 2",
        "classify --p 1.4,1.4 --dim 3 --tol 1e-9",
        "verify-lemma --band 4",
    ):
        argv = argv.split()
        proc = subprocess.run(
            [sys.executable, "-m", "exwave.cli", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: exwave ")
        retired = " ".join(argv[-2:])
        assert proc.stderr.endswith(f": error: unrecognized arguments: {retired}\n")


def test_cli_import_does_not_load_scipy():
    """Neither the CLI nor the shell measure of its quadrature module loads
    scipy, and importing the CLI loads no process pool (no exwave module
    imports one; ``test_module_boundaries`` checks the source)."""
    src = Path(exwave.__file__).resolve().parents[1]
    code = (
        "import sys, exwave.cli; assert 'scipy' not in sys.modules; "
        "assert 'concurrent.futures.process' not in sys.modules; "
        "from exwave.exponents import BoundaryCondition; "
        "from exwave.quadrature import measure_QRstar_psi; "
        "measure_QRstar_psi(4.0, 3, BoundaryCondition.dirichlet()); "
        "assert 'scipy' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_gamma_json(capsys):
    assert main(["gamma", "--p", "2,3", "--dim", "3", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["gamma"] == pytest.approx([0.6, 0.8])


def test_cli_classify_table(capsys):
    assert main(["classify", "--p", "1.4,1.4", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "polynomial" in out and "regime" in out


def test_cli_classify_open_problem(capsys):
    code = main(
        ["classify", "--p", "1.6666666666666667,3", "--dim", "2", "--beta", "1", "--json"]
    )
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["regime"] == "open-problem"


CLASSIFY_RECORDS = json.loads(
    (Path(__file__).resolve().parent / "data" / "classify_records.json").read_text()
)


@pytest.mark.parametrize("regime", sorted(CLASSIFY_RECORDS))
def test_cli_classify_json_is_pinned_for_every_regime(regime, capsys):
    """``classify --json`` prints, byte for byte, the record pinned in
    ``data/classify_records.json`` for one (p, d, alpha, beta) per regime;
    the open problem's ``bound`` is null."""
    case = CLASSIFY_RECORDS[regime]
    assert main(["classify", *case["argv"].split(), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == case["stdout"]
    assert json.loads(out)["regime"] == regime


def test_cli_verify_lemma(capsys):
    code = main(
        ["verify-lemma", "--R", "4,8", "--p", "2,2", "--dim", "3",
         "--bc", "neumann", "--grid", "96"]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_lemma_rejects_an_unknown_bc(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", "--bc", "dirichlet,nuemann"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'nuemann'" in err and "dirichlet, neumann, robin" in err


@pytest.mark.parametrize(
    "argv, mutated, code, lines",
    [
        (
            "--p 1.4,1.4 --lam 2 --grid 8 --R 4,8 --dim 3 --bc dirichlet", False, 0,
            ["warning: lambda = 2 is below the admissibility floor 5 for p = (1.4, 1.4)",
             "PASS"],
        ),
        (  # acceptance 04's mutation: R^-3 instead of R^-2 on estimate (i)
            "--lam 2 --grid 8 --R 4,32 --dim 3 --bc dirichlet", True, 1,
            ["FAIL", "  lam=2 d=3 bc=dirichlet: estimate (i) band 8.00 exceeds 4"],
        ),
    ],
    ids=["warning", "failure"],
)
def test_cli_verify_lemma_prints_its_warnings_and_failures(
    argv, mutated, code, lines, monkeypatch, capsys
):
    if mutated:
        mutation = functools.partial(
            harness.verify_cutoff_estimates, rhs_r_powers=(-3.0, -4.0, -2.0, -2.0)
        )
        monkeypatch.setattr(cli, "verify_cutoff_estimates", mutation)
    assert main(["verify-lemma", *argv.split()]) == code
    assert capsys.readouterr().out.splitlines()[-len(lines):] == lines


def test_cli_simulate_and_outputs(config_file, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["simulate", str(config_file), "--eps", "0.8", "--out", str(out)])
    assert code == 0
    rec = json.loads((out / "run.json").read_text())
    assert rec["verdict"] == "blew-up"
    assert rec["t_blow"] > 0


def test_cli_simulate_dump_history(tmp_path, capsys):
    config_file = tmp_path / "hist.ini"
    config_file.write_text(CONFIG_TEXT.replace("snapshots = 0", "snapshots = 8"))
    out = tmp_path / "artifacts"
    code = main(["simulate", str(config_file), "--out", str(out), "--dump-history"])
    assert code == 0
    rec = run(solver_config_from_ini(config_file))
    summary = json.dumps(record_to_dict(rec), indent=2, sort_keys=True)
    assert (out / "run.json").read_text() == summary
    assert capsys.readouterr().out == summary + "\n"
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "t,r,u_1,u_2"
    n_snapshots, n_nodes = len(rec.history.times), 401
    assert n_snapshots > 1 and len(rec.history.r) == n_nodes
    assert len(lines) == 1 + n_snapshots * n_nodes


def test_cli_simulate_stores_no_snapshots_without_dump_history(tmp_path, monkeypatch, capsys):
    config_file = tmp_path / "hist.ini"
    config_file.write_text(CONFIG_TEXT.replace("snapshots = 0", "snapshots = 8"))
    records = []

    def run_and_keep(config):
        records.append(run(config))
        return records[-1]

    monkeypatch.setattr(cli, "run", run_and_keep)
    out = tmp_path / "artifacts"
    assert main(["simulate", str(config_file), "--out", str(out)]) == 0
    assert [rec.history for rec in records] == [None]
    summary = json.loads((out / "run.json").read_text())
    assert summary["config"]["history_snapshots"] == 0
    assert json.loads(capsys.readouterr().out) == summary
    assert sorted(p.name for p in out.iterdir()) == ["run.json"]


def test_cli_simulate_refuses_dump_history_without_snapshots(tmp_path, capsys):
    config_file = SHIPPED_CONFIGS[0].parent / "critical_d2_neumann.ini"
    assert solver_config_from_ini(config_file).history_snapshots == 0
    out = tmp_path / "artifacts"
    code = main(["simulate", str(config_file), "--out", str(out), "--dump-history"])
    assert code == 2
    captured = capsys.readouterr()
    assert "[history] snapshots" in captured.err and captured.out == ""
    assert not out.exists()


def test_cli_simulate_refuses_dump_history_without_out(tmp_path, monkeypatch, capsys):
    config_file = tmp_path / "hist.ini"
    config_file.write_text(CONFIG_TEXT.replace("snapshots = 0", "snapshots = 8"))
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", str(config_file), "--dump-history"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hist.ini"]


def test_cli_sweep_fit_report_pipeline(config_file, tmp_path, capsys):
    out = tmp_path / "sweepdir"
    code = main(
        ["sweep", str(config_file), "--eps-list", "0.8,0.6,0.45,0.34", "--out", str(out)]
    )
    assert code == 0
    assert (out / "sweep.csv").exists() and (out / "manifest.json").exists()
    fit_line = re.search(r"b = (\S+) ± (\S+) ", capsys.readouterr().out)
    manifest_fit = json.loads((out / "manifest.json").read_text())["fit"]
    assert float(fit_line[2]) == pytest.approx(manifest_fit["slope_stderr"], rel=0.05)

    code = main(["fit", str(out / "sweep.csv"), "--b-theory", "1.0"])
    assert code == 0
    fit = json.loads(capsys.readouterr().out)
    assert 0.3 < fit["slope"] < 1.5
    assert fit["slope_stderr"] == pytest.approx(manifest_fit["slope_stderr"], rel=1e-12)

    code = main(["report", str(out)])
    assert code == 0
    assert (out / "sweep_loglog.dat").exists()


@pytest.mark.parametrize(
    "eps_list, model",
    [("1.2,0.9,0.7,0.5", None), ("1.2,0.9,0.7,0.5,0.4", "power-log")],
    ids=["three-below-one", "four-below-one"],
)
def test_cli_sweep_power_log_fits_only_eps_below_one(tmp_path, capsys, eps_list, model):
    """A beta != 0, d = 2 sweep is fitted against the power-log law on its
    points with eps < 1, and only when at least 4 of them blew up."""
    path = tmp_path / "d2.ini"
    path.write_text(
        CONFIG_TEXT.replace("dim = 3", "dim = 2").replace("t_end = 30.0", "t_end = 60.0")
    )
    out = tmp_path / "sweepdir"
    assert main(["sweep", str(path), "--eps-list", eps_list, "--out", str(out)]) == 0
    names = ("sweep.csv", "records.json", "sweep_loglog.dat", "manifest.json")
    assert all((out / name).exists() for name in names)
    records = json.loads((out / "records.json").read_text())
    assert [rec["verdict"] for rec in records] == ["blew-up"] * len(records)
    fit = json.loads((out / "manifest.json").read_text())["fit"]
    assert (fit["model"] if fit else None) == model
    if model is not None:
        assert "(log(1/eps)/eps)^b" in capsys.readouterr().out
    rows = (out / "sweep_loglog.dat").read_text().splitlines()[1:]
    assert rows[0].split()[2] == "nan"  # eps = 1.2: no power-log abscissa
    assert all(row.split()[2] != "nan" for row in rows[1:])


def test_cli_fit_keeps_the_sweep_fit_points(tmp_path, capsys):
    """``exwave fit --model power-log`` on the sweep.csv of a beta != 0, d = 2
    sweep with a row at eps >= 1 fits the points the sweep fitted."""
    path = tmp_path / "d2.ini"
    path.write_text(
        CONFIG_TEXT.replace("dim = 3", "dim = 2").replace("t_end = 30.0", "t_end = 60.0")
    )
    out = tmp_path / "sweepdir"
    eps_list = "1.2,0.9,0.7,0.5,0.4"
    assert main(["sweep", str(path), "--eps-list", eps_list, "--out", str(out)]) == 0
    manifest_fit = json.loads((out / "manifest.json").read_text())["fit"]
    capsys.readouterr()
    assert main(["fit", str(out / "sweep.csv"), "--model", "power-log"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["slope"] == pytest.approx(manifest_fit["slope"], rel=1e-12, abs=0)
    assert fit["slope_stderr"] == pytest.approx(manifest_fit["slope_stderr"], rel=1e-12, abs=0)


def test_cli_fit_with_too_few_points_exits_2(tmp_path, capsys):
    """Three rows with a t_blow below eps = 1 (one above, one survived) are
    too few for the power-log law: a one-line reason, no traceback."""
    path = tmp_path / "sweep.csv"
    path.write_text(
        "epsilon,t_blow,horizon,verdict\n"
        "1.2,5.0,60,blew-up\n0.9,7.0,60,blew-up\n0.7,9.0,60,blew-up\n"
        "0.5,14.0,60,blew-up\n0.4,,60,survived-horizon\n"
    )
    assert main(["fit", str(path), "--model", "power-log"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fit: need at least 4 blow-up points to fit\n"


def test_cli_report_reproduces_sweep_tables(config_file, tmp_path):
    out = tmp_path / "sweepdir"
    assert main(["sweep", str(config_file), "--eps-list", "0.8,0.6", "--out", str(out)]) == 0
    tables = ("sweep.csv", "sweep_loglog.dat")
    written = {name: (out / name).read_bytes() for name in tables}
    for name in tables:
        (out / name).unlink()
    assert main(["report", str(out)]) == 0
    for name in tables:
        assert (out / name).read_bytes() == written[name], name
    # the theory column survives the round trip
    assert written["sweep_loglog.dat"].splitlines()[1].split()[2] != b"nan"


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """The report directory of a two-epsilon sweep, both runs blown up."""
    out = tmp_path_factory.mktemp("swept") / "sweepdir"
    config = out.parent / "run.ini"
    config.write_text(CONFIG_TEXT)
    assert main(["sweep", str(config), "--eps-list", "0.8,0.6", "--out", str(out)]) == 0
    return out


UNDRAWABLE = [
    ("epsilon", 0.0), ("epsilon", -0.5), ("epsilon", math.inf),
    ("t_blow", 0.0), ("t_blow", -1.0), ("t_blow", math.nan),
]


@pytest.mark.parametrize("field, value", UNDRAWABLE, ids=[f"{f}={v}" for f, v in UNDRAWABLE])
def test_report_refuses_a_record_it_cannot_draw(swept, tmp_path, capsys, field, value):
    """A record whose epsilon, or whose blow-up's t_blow, is not finite and
    positive has no point on the log-log axes: ``report`` names the record
    and the field, exits 2 and leaves the tables the sweep wrote."""
    out = tmp_path / "sweepdir"
    shutil.copytree(swept, out)
    records = json.loads((out / "records.json").read_text())
    assert [rec["verdict"] for rec in records] == ["blew-up", "blew-up"]
    if field == "epsilon":
        records[1]["config"]["data"]["epsilon"] = value
    else:
        records[1]["t_blow"] = value
    (out / "records.json").write_text(json.dumps(records))
    tables = {name: (out / name).read_bytes() for name in ("sweep.csv", "sweep_loglog.dat")}
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"report: records[1]: {field} must be finite and positive, got {value!r}\n"
    )
    assert {name: (out / name).read_bytes() for name in tables} == tables


@pytest.mark.parametrize(
    "grid_lines, r_max",
    [("r_max = auto", 33.5), ("r_max = 50.0", 50.0)],
    ids=["auto", "explicit-r_max"],
)
def test_sweep_uses_the_simulate_grid(tmp_path, capsys, grid_lines, r_max):
    path = tmp_path / "grid.ini"
    path.write_text(CONFIG_TEXT.replace("r_max = auto", grid_lines))
    assert main(["simulate", str(path), "--out", str(tmp_path / "one")]) == 0
    assert main(["sweep", str(path), "--out", str(tmp_path / "many")]) == 0
    single = json.loads((tmp_path / "one" / "run.json").read_text())
    records = json.loads((tmp_path / "many" / "records.json").read_text())
    assert single["config"]["r_max"] == r_max
    assert [rec["config"]["r_max"] for rec in records] == [r_max] * len(records)
