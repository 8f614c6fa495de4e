"""Every leaf of the lifespan table, pinned.

``tests/data/lifespan_table.json`` holds the ``classify_record`` of each
(p, d, boundary condition) below: every branch of ``classify_regime`` for
d = 1, ..., 4 under Dirichlet and Robin (beta != 0) and Neumann (beta = 0),
with exactly critical k = 1 and k = 2 cases.  The test recomputes them and
compares with ``==``.  To record the file again (only for a change meant to
move the table, which must say so):

    PYTHONPATH=src python tests/test_lifespan_table.py
"""

import json
import sys
from pathlib import Path

from exwave.exponents import BoundaryCondition, ExponentVector, classify_record

DATA = Path(__file__).parent / "data" / "lifespan_table.json"

BCS = (
    BoundaryCondition.dirichlet(), BoundaryCondition.neumann(), BoundaryCondition.robin(1.0, 2.0)
)
EXPONENTS = (
    (1.2,),  # subcritical for every d
    (1.2, 1.2),
    (1.3, 2.0, 5.0),
    (1.5, 2.5),  # subcritical for d = 2, 3 and 4
    (2.0,),  # gamma_max = 1: critical for d = 2, and d = 1 with beta != 0
    (2.0, 2.0),
    (5.0 / 3.0, 3.0),  # gamma_max = 1, unequal exponents
    (5.0 / 3.0,),  # gamma_max = 3/2: critical for d = 3
    (5.0 / 3.0, 5.0 / 3.0),
    (11.0 / 9.0, 3.0),
    (1.5,),  # gamma_max = 2: critical for d = 4
    (1.5, 1.5),
    (1.25, 2.0),
    (3.0,),  # gamma_max = 1/2: critical for d = 1 with beta = 0
    (2.75, 4.0),
    (4.0, 5.0),  # below every threshold
)


def table() -> dict:
    return {
        f"p={p} d={d} alpha={bc.alpha} beta={bc.beta}": classify_record(
            ExponentVector.of(*p), d, bc
        )
        for p in EXPONENTS
        for d in (1, 2, 3, 4)
        for bc in BCS
    }


RECORDED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_every_leaf_of_the_lifespan_table_keeps_its_record():
    assert table() == RECORDED


def _leaf(rec: dict) -> tuple[str, str]:
    """(regime, notes), with the excess printed below d/2 left out."""
    notes = rec["notes"].partition(" (Gamma_excess")[0]
    return rec["regime"], notes


def test_the_pinned_table_reaches_every_leaf():
    """Each branch of ``classify_regime`` under each beta label it prints."""
    labels = ("beta=0", "beta!=0")
    rows = [(d, label) for d in (2, 3, 4) for label in labels if (d, label) != (2, "beta!=0")]
    leaves = {
        ("polynomial", "d=1, beta=0, gamma_max > 0.5"),
        ("polynomial", "d=1, beta!=0, gamma_max > 1.0"),
        ("no-blowup-claim", "d=1: no claim for gamma_max <= 0.5 (beta=0)"),
        ("no-blowup-claim", "d=1: no claim for gamma_max <= 1.0 (beta!=0)"),
        ("polynomial-log", "beta!=0, d=2, subcritical"),
        ("double-exponential", "beta!=0, d=2, critical, equal exponents"),
        ("open-problem", "beta!=0, d=2, critical with unequal exponents: the lifespan "
         "bound is an open problem"),
        ("no-blowup-claim", "gamma_max < d/2"),
    }
    for d, label in rows:
        leaves.add(("polynomial", f"{label}, d={d}, subcritical"))
        for exponents in ("equal", "unequal"):
            leaves.add(("exponential", f"{label}, d={d}, critical, {exponents} exponents"))
    assert {_leaf(rec) for rec in RECORDED.values()} == leaves


if __name__ == "__main__":
    lines = (f"{json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
             for key, rec in table().items())
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    sys.stdout.write(f"wrote {DATA}\n")
