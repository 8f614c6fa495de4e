import json
import re

import pytest

from exwave.cli import main
from exwave.config import solver_config_from_ini, sweep_spec_from_ini

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
horizon = fixed
t_fixed = 30.0
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
    assert spec.horizon.mode.value == "fixed"


def test_config_overrides(config_file):
    cfg = solver_config_from_ini(
        config_file, {"dim": 2, "alpha": 1.0, "beta": 0.0, "epsilon": 0.3}
    )
    assert cfg.d == 2 and cfg.bc.kind.value == "neumann"
    assert cfg.data.epsilon == 0.3
    spec = sweep_spec_from_ini(config_file, {"eps_list": (0.5, 0.25), "threads": 2})
    assert spec.epsilons == (0.5, 0.25) and spec.workers == 2


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


def test_cli_verify_lemma(capsys):
    code = main(
        ["verify-lemma", "--R", "4,8", "--p", "2,2", "--dim", "3",
         "--bc", "neumann", "--grid", "96"]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_simulate_and_outputs(config_file, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["simulate", str(config_file), "--eps", "0.8", "--out", str(out)])
    assert code == 0
    rec = json.loads((out / "run.json").read_text())
    assert rec["verdict"] == "blew-up"
    assert rec["t_blow"] > 0


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
