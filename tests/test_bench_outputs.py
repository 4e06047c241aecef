"""Every operation the benchmark can draw still gives its recorded output.

``bench/expected.json`` holds the digest of each output that the
``refine``, ``operators`` and ``files`` workloads check on every run; this
runs the whole catalogue once, as ``bench/record.py`` does, and compares.
Inputs and outputs are written under ``bench/_work``.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_benchmark_output_matches_its_recorded_digest(monkeypatch):
    monkeypatch.chdir(ROOT)  # the CLI operations name their files relative to it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    run.load_library(ROOT)
    from workloads import catalogue

    expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    digests = {}
    for workload in ("refine", "operators", "files"):
        workdir = run.work_dir(ROOT, workload)
        workdir.mkdir(parents=True, exist_ok=True)
        for op in catalogue(workload, workdir):
            digests[op.key] = op.outcome(op.run())[0]
    changed = sorted(key for key in digests.keys() & expected.keys()
                     if digests[key] != expected[key])
    assert not changed, "changed outputs: " + ", ".join(changed)
    assert digests.keys() == expected.keys()
