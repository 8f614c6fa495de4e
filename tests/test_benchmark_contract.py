"""The names and checks the benchmark in perfbench/ relies on.

The tracer reports per-layer metrics only for the functions it finds, so a
renamed or deleted layer would silently drop metrics instead of failing.
perfbench/ is put on the import path as it stands, without copying it.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_traced_name_resolves(perfbench):
    tracer, _ = perfbench
    missing = []
    for name in tracer.TRACED:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"exwave.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []


def test_workload_checks_accept_the_reference(perfbench):
    _, workloads = perfbench
    reference = json.loads((PERFBENCH / "reference_seed0.json").read_text())
    assert workloads.self_test(reference) == []
