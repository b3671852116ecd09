"""noisycycles benchmark.

    python3 bench/run.py --workload {ensemble,reduction,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  One single-threaded workload
process runs closed-loop ops (each starts when the previous one returns)
in whole rounds for about ``--seconds`` seconds, checks every op's outputs
against the digests in ``bench/reference.json`` and, for ``ensemble``,
that an ensemble member equals its solo path.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.

Times are in reference seconds (see ``hostspeed.py``): wall seconds
scaled by the host's speed, sampled with a fixed kernel around and during
each op, relative to the host the baseline was recorded on.  The host's
speed drifts by up to 2x within seconds, which reference seconds take out;
a change to the program moves them as it moves wall time.  The wall-clock
figures are printed on a line of their own.

An op is ok when it returns (exit status 0 for CLI commands) and its
outputs match the reference.  An op that errors the way it did when the
reference was recorded is not ok but has not failed; an op whose outputs
differ from the reference has failed and makes the run incorrect.  Ops
that are not ok count as infinite latency.

End-to-end metrics:

setup_s           median over three fresh interpreters of importing
                  noisycycles, generating the inputs and the warm-up
path_steps_per_s  path-steps simulated by ok ops / time spent in ops
op_p50_s          median op latency
op_tail_s         75th-percentile op latency.  A run holds 4 to 40 ops, so
                  the highest percentile with ten samples beyond it would
                  move with the op count or not exist; p75 keeps one meaning
                  and, on cli, stays below the README command that fails
ok_ratio          ok ops / attempted ops
peak_rss_mib      peak resident set of the workload process
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from worker import ROOT, THREAD_VARS

WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("ensemble", "reduction", "cli")
SETUP_SAMPLES = 3
TAIL_PERCENTILE = 75
TIME_LIMIT_S = 170.0


def percentile(values, q):
    """Linear-interpolated percentile that keeps +inf entries ordered last."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if lo == hi or xs[lo] == xs[hi]:
        return xs[lo]
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


class Worker:
    """One workload process; killed when ``deadline`` passes or when the
    ``with`` block it belongs to is left early."""

    def __init__(self, argv, env, deadline):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, *argv], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
        )
        self._timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def wait_ready(self):
        """Seconds from spawn to the READY line, or None if it never came."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.started
        return None

    def read_speed(self):
        """(host speed, seconds spent sampling it) from the SPEED line after
        READY, or None."""
        for line in self.proc.stdout:
            if line.startswith("SPEED "):
                return tuple(float(x) for x in line.split()[1:3])
        return None

    def finish(self):
        """Wait for exit; returns (exit code, remaining stdout lines)."""
        lines = self.proc.stdout.read().splitlines()
        return self.proc.wait(), lines


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def latencies(records, key="ref_latency"):
    """Per-op latency; ops that are not ok count as +inf."""
    return [r[key] if r["status"] == "ok" and r["matches"] else math.inf
            for r in records]


def end_to_end(report, setup_times, key="ref_latency"):
    """End-to-end metrics in reference seconds, or with ``key="latency"``
    and wall set-up times, in wall seconds."""
    records = report["records"]
    lat = latencies(records, key)
    ok = [r for r, t in zip(records, lat) if t < math.inf]
    return {
        "setup_s": statistics.median(setup_times),
        "path_steps_per_s": sum(r["path_steps"] for r in ok) / sum(r[key] for r in records),
        "op_p50_s": percentile(lat, 50),
        "op_tail_s": percentile(lat, TAIL_PERCENTILE),
        "ok_ratio": len(ok) / len(records),
        "peak_rss_mib": report["peak_rss_mib"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so its workload process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "noisycycles", "__init__.py")):
        return _fail(f"no noisycycles sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = _env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # (wall, reference) set-up seconds of each workload process; traced runs
    # report no set-up time, so they start no probes
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        with Worker([*common, "--seconds", "0", "--setup-only"], env, deadline) as probe:
            ready = probe.wait_ready()
            speed = probe.read_speed()
            code, _ = probe.finish()
        if ready is None or speed is None or code != 0:
            return _fail(f"set-up failed (exit {code})")
        setups.append((ready - speed[1], (ready - speed[1]) * speed[0]))

    with Worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                env, deadline) as worker:
        ready = worker.wait_ready()
        speed = (1.0, 0.0) if args.trace else worker.read_speed()
        code, lines = worker.finish()
    if ready is None or speed is None or code != 0 or not lines:
        return _fail(f"workload process failed (exit {code})")
    setups.append((ready - speed[1], (ready - speed[1]) * speed[0]))
    report = json.loads(lines[-1])

    records = report["records"]
    failed = sum(not r["matches"] for r in records)
    correct = failed == 0 and all(report["checks"].values())

    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, passed in report["checks"].items():
        print(f"check {'PASS' if passed else 'FAIL'}: {name}")
    for r in records:
        if r["status"] != "ok" or not r["matches"]:
            verdict = "matches reference" if r["matches"] else "FAILED: differs from reference"
            print(f"not ok: {args.workload} {r['key']} {r['status']} ({verdict}) {r['detail']}")
    lat = latencies(records)
    tail = percentile(lat, TAIL_PERCENTILE)
    print(f"ops {len(records)} in {report['window_s']:.3f} s; op_tail_s is "
          f"p{TAIL_PERCENTILE}, {sum(t > tail for t in lat)} ops beyond it")

    if args.trace:
        values = report["per_layer"]
        if report["per_layer_from_warmup"]:
            print("per-layer times taken from the warm-up: "
                  + ", ".join(report["per_layer_from_warmup"]))
        print(f"spans {report['spans']}")
    else:
        values = end_to_end(report, [ref for _, ref in setups])
        wall = end_to_end(report, [w for w, _ in setups], key="latency")
        print("wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
