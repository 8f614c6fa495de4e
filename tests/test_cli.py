import configparser
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import exwave
from exwave import cli
from exwave.cli import build_parser, main
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
margin = 1.0

[time]
t_end = 30.0
cfl = 0.9

[data]
center = 2.0
width = 0.5
epsilon = 0.8

[thresholds]
blowup = 1e8

[history]
snapshots = 0

[sweep]
epsilons = 0.8, 0.6
workers = 1
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


@pytest.mark.parametrize(
    "key, value", [("horizon", "bound-aware"), ("t_fixed", "500.0"), ("factor", "4.0")],
    ids=["horizon", "t_fixed", "factor"],
)
def test_stale_sweep_key_is_rejected(tmp_path, key, value):
    path = tmp_path / "stale.ini"
    path.write_text(CONFIG_TEXT.replace("workers = 1", f"workers = 1\n{key} = {value}"))
    with pytest.raises(ValueError, match=rf"'{key}'.*\[time\] t_end"):
        sweep_spec_from_ini(path)


@pytest.mark.parametrize("loader", [solver_config_from_ini, sweep_spec_from_ini])
@pytest.mark.parametrize(
    "old, new, section, key",
    [
        ("cfl = 0.9", "cfl_ = 0.9", "time", "cfl_"),
        ("n = 400", "n = 400\nnn = 800", "grid", "nn"),
        ("[thresholds]", "[threshold]", "threshold", None),
    ],
    ids=["time-typo", "grid-typo", "unknown-section"],
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
    spec = sweep_spec_from_ini(
        config_file, {("sweep", "epsilons"): "0.5, 0.25", ("sweep", "workers"): 2}
    )
    assert spec.epsilons == (0.5, 0.25) and spec.workers == 2


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({("system", "dim"): 0}, "d must be >= 1"),
        ({("sweep", "workers"): 0}, "workers must be >= 1"),
    ],
    ids=["dim", "threads"],
)
def test_zero_override_is_validated_not_ignored(config_file, overrides, message):
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
    ("sweep", "--threads", "2", "sweep", "workers"),
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
    assert spec.epsilons == (0.5, 0.25) and spec.workers == 1


def test_an_empty_eps_list_is_refused_not_ignored(config_file):
    with pytest.raises(ValueError, match="epsilon list must not be empty"):
        _flag_loaded("sweep", config_file, "--eps-list", "")


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
        "classify --p 1.4,1.4 --dim 3 --tol 0",
        "simulate run.ini --eps -1 --out out",
        "simulate run.ini --dim 0 --out out",
        "sweep run.ini --eps-list 0.5,0.6 --out out",
        "sweep run.ini --eps-list 0.5,x --out out",
        "sweep run.ini --threads 0 --out out",
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
        "verify-lemma --band nan",
        "verify-lemma --band -1",
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
    ],
)
def test_cli_refuses_bad_input_with_exit_2(config_file, monkeypatch, capsys, argv):
    """Refused input leaves by one path: a one-line ``<command>: <reason>``
    on stderr, exit 2, nothing on stdout, and no file or directory is
    written.  ``cut.ini`` ends before ``[time]``, ``no_sweep.ini`` has no
    ``[sweep]`` section, ``nan_blowup.ini`` sets ``[thresholds] blowup =
    nan``, ``inf_rmax.ini``, ``nan_rmax.ini`` and ``nan_margin.ini`` set
    ``[grid] r_max = inf``, ``r_max = nan`` and ``margin = nan``,
    ``neg_snapshots.ini`` sets ``[history] snapshots = -5``,
    ``percent.ini`` sets ``epsilon = 0.4%``, ``twice_n.ini`` gives ``n`` twice
    in ``[grid]``, ``headless.ini`` has no section header, and
    ``malformed/records.json`` holds a record without the fields the report
    tables read."""
    root = config_file.parent
    monkeypatch.chdir(root)
    (root / "empty").mkdir()
    (root / "cut.ini").write_text(CONFIG_TEXT.split("[time]")[0])
    (root / "no_sweep.ini").write_text(CONFIG_TEXT.split("[sweep]")[0])
    (root / "nan_blowup.ini").write_text(CONFIG_TEXT.replace("blowup = 1e8", "blowup = nan"))
    (root / "inf_rmax.ini").write_text(CONFIG_TEXT.replace("r_max = auto", "r_max = inf"))
    (root / "nan_rmax.ini").write_text(CONFIG_TEXT.replace("r_max = auto", "r_max = nan"))
    (root / "nan_margin.ini").write_text(CONFIG_TEXT.replace("margin = 1.0", "margin = nan"))
    (root / "neg_snapshots.ini").write_text(CONFIG_TEXT.replace("snapshots = 0", "snapshots = -5"))
    (root / "percent.ini").write_text(CONFIG_TEXT.replace("epsilon = 0.8", "epsilon = 0.4%"))
    (root / "twice_n.ini").write_text(CONFIG_TEXT.replace("n = 400", "n = 400\nn = 800"))
    (root / "headless.ini").write_text(CONFIG_TEXT.replace("[system]\n", ""))
    (root / "malformed").mkdir()
    (root / "malformed" / "records.json").write_text('[{"x": 1}]')
    inputs = sorted(root.rglob("*"))
    argv = argv.split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]}: ") and captured.err.count("\n") == 1
    assert sorted(root.rglob("*")) == inputs


def test_refused_input_exits_2_without_a_traceback_from_the_console_entry():
    """``python -m exwave.cli`` leaves through ``sys.exit(main())``, as the
    console script does."""
    src = Path(exwave.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "exwave.cli", "verify-lemma", "--R", "4,abc"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "verify-lemma: could not convert string to float: 'abc'\n"


def test_cli_import_does_not_load_scipy():
    """Neither the CLI nor the shell measure of its quadrature module loads
    scipy, and importing the CLI loads no process pool (a parallel sweep
    imports it when it starts one)."""
    src = Path(exwave.__file__).resolve().parents[1]
    code = (
        "import sys, exwave.cli; assert 'scipy' not in sys.modules; "
        "assert 'concurrent.futures.process' not in sys.modules; "
        "from exwave.exponents import BoundaryCondition; "
        "from exwave.quadrature import measure_QRstar_psi; "
        "measure_QRstar_psi(4.0, 3, BoundaryCondition.dirichlet(), 16.0); "
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


@pytest.mark.parametrize(
    "grid_lines, r_max",
    [("r_max = auto\nmargin = 3.0", 35.5), ("r_max = 50.0\nmargin = 1.0", 50.0)],
    ids=["margin", "explicit-r_max"],
)
def test_sweep_uses_the_simulate_grid(tmp_path, capsys, grid_lines, r_max):
    path = tmp_path / "grid.ini"
    path.write_text(CONFIG_TEXT.replace("r_max = auto\nmargin = 1.0", grid_lines))
    assert main(["simulate", str(path), "--out", str(tmp_path / "one")]) == 0
    assert main(["sweep", str(path), "--out", str(tmp_path / "many")]) == 0
    single = json.loads((tmp_path / "one" / "run.json").read_text())
    records = json.loads((tmp_path / "many" / "records.json").read_text())
    assert single["config"]["r_max"] == r_max
    assert [rec["config"]["r_max"] for rec in records] == [r_max] * len(records)
