"""The --json output of every benchmark command, byte for byte.

Replays the commands that ``bench/workloads.py`` builds for the ``sets``,
``derived`` and ``exactness`` workloads at seeds 1, 5 and 13, in process
through ``cli.main(["--json", ...])``, and compares the sha256 of each
command's exit status, stdout and stderr with ``tests/data/bench_outputs.json``.
A change that keeps the outputs keeps every digest.  Regenerate the table
only for an intended output change, and give the reason each time:

    PYTHONPATH=src python tests/test_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from invsys.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "bench_outputs.json"
RUNS = [(workload, seed) for workload in ("sets", "derived", "exactness")
        for seed in (1, 5, 13)]


def replay(workload: str, seed: int, workdir: Path) -> dict[str, str]:
    """Command -> sha256 of (exit, stdout, stderr), each command run in
    workdir after its case's files are written there."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    digests, here = {}, os.getcwd()
    os.chdir(workdir)
    try:
        for case in workloads.build(workload, seed):
            for name, text in case.files.items():
                (workdir / name).write_text(text)
            for command in case.commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = main(["--json", *command.argv])
                key = f"{workload} seed {seed} #{len(digests)}: {' '.join(command.argv)}"
                blob = json.dumps([status, out.getvalue(), err.getvalue()])
                digests[key] = hashlib.sha256(blob.encode()).hexdigest()
    finally:
        os.chdir(here)
    return digests


@pytest.mark.parametrize("workload, seed", RUNS)
def test_bench_outputs_are_byte_identical(workload, seed, tmp_path):
    table = json.loads(TABLE.read_text())
    expected = {k: v for k, v in table.items() if k.startswith(f"{workload} seed {seed} #")}
    assert replay(workload, seed, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for workload, seed in RUNS:
            table.update(replay(workload, seed, Path(tmp)))
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} commands written to {TABLE}")
