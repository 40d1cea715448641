"""Record the default-seed output hashes of every op in bench/references.json.

    python3 bench/record.py

Run it from the root of a checkout whose outputs are known to be right:
from then on the runner fails every default-seed op whose output hash
differs from the recorded one.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

import run


def source_commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    if not run.use_checkout_sources():
        return 2
    refs = {"seed": run.DEFAULT_SEED, "source_commit": source_commit(), "workloads": {}}
    for name in sorted(run.workloads.WORKLOADS):
        workdir = run.OUT / "work" / f"record-{name}-{os.getpid()}"
        try:
            ops = run.workloads.WORKLOADS[name](
                run.fresh_import(), random.Random(run.DEFAULT_SEED), str(workdir))
            runner = run.Runner(ops, None)
            runner.run_pass(run.Clock(*run.IN_PROCESS))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        refs["workloads"][name] = runner.digests
        print(f"{name}: {len(runner.digests)} ops recorded")
    run.write_json(run.REFERENCES, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
