"""Record the output digest of every pool op into ``bench/reference.json``.

    python3 bench/record_reference.py [workload ...]

Run once at the commit whose outputs are the reference; it takes a few
minutes.  Later commits are checked against what it wrote.  Naming
workloads re-records only those and keeps the other entries.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from worker import ROOT, provenance  # noqa: E402  (pins the thread variables)
import workloads  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def main(names):
    warnings.simplefilter("ignore")
    doc = {"ops": {}}
    if os.path.exists(PATH):
        with open(PATH) as handle:
            doc = json.load(handle)
    ops = doc["ops"]
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work_root)
    os.chdir(scratch)
    try:
        for workload in names or workloads.WORKLOADS:
            for key in [k for k in ops if k.startswith(workload + "/")]:
                del ops[key]
            for op in workloads.all_ops(workload):
                out = op.run()
                ops[op.key] = {"status": out.status, "digest": out.digest}
                print(op.key, out.status, out.detail, flush=True)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    doc["provenance"] = provenance()
    doc["ops"] = dict(sorted(ops.items()))
    with open(PATH, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
