"""Workload process: set up, warm up, run ops for a fixed time, check them.

Started by ``run.py`` with the BLAS/OpenMP thread variables pinned to 1
and ``src`` on ``PYTHONPATH``.  It prints ``READY`` once set-up is done
and a JSON report as its last line.  Untraced, it samples the host's speed
(``hostspeed``) from before ``import noisycycles`` to ``READY`` and prints
``SPEED rate inside`` after ``READY``: the mean speed relative to the
reference host and the seconds the sampling took.  With ``--setup-only``
it exits there, which is how ``run.py`` samples set-up time more than once.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the batch-width scan advances this many path-steps at every width
SCAN_PATH_STEPS = 20_000
SCAN_WIDTHS = (1, 20, 100, 1000)
SCAN_MIN_SECONDS = 0.3


def _emit(line):
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def measure(plan, seconds, reference, speed=None):
    """Run whole rounds of ``plan`` until the next would overrun ``seconds``.

    With a :class:`hostspeed.HostSpeed`, which samples the host's speed
    throughout, each op's latency leaves the sampling out and is also given
    in reference seconds; without one (traced runs) both are wall seconds.
    """
    records = []
    if speed is not None:
        speed.start()
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for op in next(plan):
            gc.collect()  # no op pays for collecting the garbage of the previous one
            t0 = time.perf_counter()
            out = op.run()
            t1 = time.perf_counter()
            if any(r["outcome"].members for r in records):
                out.members = []  # one ensemble is enough for the solo check
            ref = reference.get(op.key)
            matches = ref is not None and ref == {"status": out.status, "digest": out.digest}
            records.append({"op": op.name, "key": op.key, "span": (t0, t1),
                            "outcome": out, "matches": matches})
        now = time.perf_counter()
        if (now - start) + (now - r0) > seconds:
            break
    if speed is not None:
        speed.stop()
    for r in records:
        t0, t1 = r.pop("span")
        if speed is None:
            r["latency"] = r["ref_latency"] = t1 - t0
        else:
            r["latency"] = t1 - t0 - speed.sampling_s(t0, t1)
            r["ref_latency"] = r["latency"] * speed.rate(t0, t1)
    return records, now - start


def batch_width_scan():
    """Microseconds per path-step of the RK15 Hopf ensemble at each width,
    at a fixed path-step count; the median over repeats of at least
    ``SCAN_MIN_SECONDS``."""
    import noisycycles as nc
    import workloads

    system = nc.hopf_system(workloads.hopf_params())
    out = {}
    for width in SCAN_WIDTHS:
        config = workloads.ensemble_config(7, n_steps=SCAN_PATH_STEPS // width)
        times = []
        while sum(times) < SCAN_MIN_SECONDS or len(times) < 3:
            t0 = time.perf_counter()
            nc.integrate_ensemble(system, config, n_paths=width)
            times.append(time.perf_counter() - t0)
            if len(times) == 1 and times[0] > SCAN_MIN_SECONDS:
                break
        times.sort()
        out[f"sde.us_per_path_step.p{width}"] = times[len(times) // 2] / SCAN_PATH_STEPS * 1e6
    return out


def provenance():
    import numpy
    import scipy

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as handle:
                    ref = handle.read().strip()
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    speed = None
    if not args.trace:  # sample the host's speed from here to READY
        import hostspeed

        speed = hostspeed.HostSpeed()
        speed.start()
    import noisycycles

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(noisycycles.__file__).startswith(src + os.sep):
        raise SystemExit(f"noisycycles imported from {noisycycles.__file__}, not {src}")
    import spans
    import workloads

    warnings.simplefilter("ignore")
    with open(os.path.join(os.path.dirname(__file__), "reference.json")) as handle:
        reference = json.load(handle)["ops"]
    plan = workloads.rounds(args.workload, args.seed)  # input generation

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work_root)
    os.chdir(scratch)
    try:
        recorder = spans.Recorder()
        if args.trace:
            recorder.install()
        workloads.warm_up()
        warm_spans, _ = recorder.take()
        if speed is not None:
            speed.stop()
        _emit("READY")
        if speed is not None:
            rate = speed.rate(speed.samples[0][0], speed.samples[-1][0])
            _emit(f"SPEED {rate!r} {sum(dt for _, dt in speed.samples)!r}")
            speed.samples.clear()
        if args.setup_only:
            return 0

        records, window = measure(plan, args.seconds, reference, speed)
        op_spans, overhead = recorder.take()
        recorder.uninstall()

        report = {"records": [], "window_s": window, "provenance": provenance(),
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "checks": {}}
        if args.workload == "ensemble":
            # outside the timed section: member k == solo run seeded path_seed(s, k)
            first = next((r for r in records if r["outcome"].members), None)
            if first is None:
                report["checks"]["member == solo (no successful ensemble op)"] = False
            else:
                seed = int(first["key"].split("/")[1])
                k = random.Random(args.seed).randrange(workloads.ENS_PATHS)
                report["checks"][f"ensemble {seed} member {k} == solo path_seed({seed}, {k})"] = (
                    workloads.member_matches_solo(seed, first["outcome"].members, k)
                )
        for r in records:
            out = r.pop("outcome")
            r.update(status=out.status, path_steps=out.path_steps, detail=out.detail)
            report["records"].append(r)

        if args.trace:
            n_ops = len(records)
            layers = spans.layer_metrics(op_spans, n_ops)
            fallback = spans.layer_metrics(warm_spans, 1)
            # a time a workload never spends is taken from the traced warm-up,
            # which touches every layer once
            from_warmup = [k for k, v in layers.items()
                           if v == 0.0 and (k.endswith("_s") or "us_per_path_step" in k)]
            for k in from_warmup:
                layers[k] = fallback[k]
            layers.update(batch_width_scan())
            layers["trace.overhead_s"] = overhead / n_ops
            report["per_layer"] = layers
            report["per_layer_from_warmup"] = from_warmup
            report["spans"] = len(op_spans)
        _emit(json.dumps(report, default=float))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
