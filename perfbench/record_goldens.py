"""Record the sweep digests that later runs are checked against.

Run from the repository root at the commit whose outputs are the
reference::

    python3 perfbench/record_goldens.py

For each sweep workload it runs ops 0..GOLDEN_OPS-1 at the default seed
and writes ``perfbench/goldens/<workload>.json``, keyed by op seed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

GOLDEN_OPS = 8


def main() -> int:
    cli = worker.import_package()
    scratch = HERE.parent / ".perfbench-out" / "goldens"
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for wl in workloads.all_workloads().values():
        if not isinstance(wl, workloads.SweepWorkload):
            continue
        recorded = {}
        for k in range(GOLDEN_OPS):
            op_seed = spec.DEFAULT_SEED + k
            op_dir = scratch / f"{wl.name}-{k}"
            op_dir.mkdir(parents=True, exist_ok=True)
            rc, _ = worker.run_op(cli, wl.argv(op_dir, op_seed))
            if rc != 0:
                print(f"error: {wl.name} op {k} exited with {rc}", file=sys.stderr)
                return 1
            report = json.loads((op_dir / "report.json").read_text())
            recorded[str(op_seed)] = checks.digest(report)
        path = checks.GOLDEN_DIR / f"{wl.name}.json"
        lines = [f"{json.dumps(seed)}: {json.dumps(d, sort_keys=True)}"
                 for seed, d in recorded.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path} ({len(recorded)} ops)")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
