"""Record the seed-0 reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs each workload part once at seed 0 and writes perfbench/reference_seed0.json.
Re-record only when a change is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.HERE))
    run._import_package()
    import workloads

    reference: dict = {}
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for name, cls in workloads.PARTS.items():
            inst = cls(run.ROOT, 0, scratch, reference)
            out = inst.outputs(inst.run_pass())
            reference[name] = inst.reference(out)
            print(f"{name}: recorded")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = run.HERE / "reference_seed0.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
