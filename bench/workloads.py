"""The three benchmark workloads, their seed pools and the output digests.

Every operation is a pure function of a pool seed, so its outputs can be
compared with a digest recorded once (``reference.json``).  A run's
``--seed`` only chooses which pool entries run and in which order.

Workloads:

ensemble
    One op is a criterion-10-shaped pipeline: a 20-member RK15 Hopf
    ensemble (dt 2e-3, 25 000 steps, ``record_every`` 5, NSR 0.1), the
    mean ``sample_acv`` over 2 periods, then ``fit(FitTarget.ACV)``.  The
    sde step kernel at batch width 20 does most of the work, the shape
    that dominates ``noisycycles validate``.
reduction
    One round runs four oscillators (van der Pol mu 0.5 and 1 at grid
    1024, mu 2 at grid 2048, the Hopf cycle) through find_limit_cycle,
    build_frame, reduce, simulate_reduced (P=8, 20 periods, dt 1e-3),
    reconstruct, kde, kurtosis and sample_acv; the Hopf op also takes
    the Wiener-Khintchine transform of the ACV template.  The sde step
    kernel is never called here.
cli
    One pass runs the README command lines except ``validate`` in process
    through ``noisycycles.cli.run``, with the pass seed in place of the
    README's seeds.  Later commands read what earlier ones wrote.  One
    round is a pass for each pool seed, in a seed-dependent order: how
    long ``fit`` takes depends strongly on the data (in reference seconds
    about 1.7 for pool seed 5, 0.1-0.3 for the others), so every run
    passes over the same seeds and holds the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import noisycycles as nc
from noisycycles import cli

WORKLOADS = ("ensemble", "reduction", "cli")

TAU = 2.0 * math.pi

# pool seeds; a run draws its ops from these in a seed-dependent order
ENSEMBLE_POOL = tuple(range(3000, 3024))
REDUCTION_POOL = tuple(range(500, 506))
CLI_POOL = tuple(range(2, 6))

ENS_PATHS, ENS_DT, ENS_STEPS, ENS_THIN, ENS_MAX_LAG = 20, 2e-3, 25_000, 5, 2.0

RED_PATHS, RED_PERIODS, RED_DT, RED_THIN, RED_SIGMA = 8, 20, 1e-3, 10, 0.1

# (name, mu or None for the Hopf cycle, guess, grid size)
OSCILLATORS = (
    ("vdp-mu0.5", 0.5, (2.0, 0.0), 1024),
    ("vdp-mu1", 1.0, (2.0, 0.0), 1024),
    ("vdp-mu2", 2.0, (2.0, 0.0), 2048),
    ("hopf", None, (0.3, 0.0), 1024),
)

# README command lines except validate; {seed} stands for the pass seed.
# (name, argv, files the command writes)
CLI_PASS = (
    ("simulate-hopf-exact",
     "simulate --model hopf-exact --nsr 0.1 --periods 20 --seed {seed} --output run.csv",
     ("run.csv",)),
    ("simulate-hopf-linear",
     "simulate --model hopf-linear --nsr 0.1 --periods 20 --seed {seed} --paths 8 --output lin.csv",
     tuple(f"lin_{k:03d}.csv" for k in range(8))),
    ("decompose-vdp",
     "decompose --system van-der-pol --mu 1.0 --output vdp_frame.csv",
     ("vdp_frame.csv",)),
    ("simulate-reduced-vdp",
     "simulate --model reduced --system van-der-pol --mu 1.0 --sigma 0.1 --periods 50 --seed {seed} --output vdp_red.csv",
     ("vdp_red.csv",)),
    ("analyze-acv",
     "analyze --what acv --input run.csv --column x --max-lag 5 --output acv.csv",
     ("acv.csv",)),
    ("analyze-psd", "analyze --what psd --input run.csv --column x --segments 4", ()),
    ("analyze-kurtosis", "analyze --what kurtosis --input run.csv --column x", ()),
    ("formula-acv",
     "formula --template acv --nsr 0.1 --umax 5 --output template.csv",
     ("template.csv",)),
    ("fit-acv", "fit --target acv --input acv.csv --output fit.json", ("fit.json",)),
)

# small commands that touch every layer once; run untimed before measuring
WARMUP_PASS = (
    "simulate --model hopf-exact --nsr 0.1 --periods 2 --seed 1 --output w_run.csv",
    "simulate --model hopf-linear --nsr 0.1 --periods 2 --seed 1 --paths 2 --output w_lin.csv",
    "decompose --system van-der-pol --mu 1.0 --transient 20 --output w_frame.csv",
    "analyze --what acv --input w_run.csv --column x --max-lag 0.5 --output w_acv.csv",
    "analyze --what psd --input w_run.csv --column x --segments 2 --output w_psd.csv",
    "analyze --what kde --input w_run.csv --column x --output w_kde.csv",
    "analyze --what kurtosis --input w_run.csv --column x --output w_kurt.csv",
    "formula --template acv --nsr 0.1 --umax 2 --output w_template.csv",
    "fit --target acv --input w_template.csv --output w_fit.json",
)


@dataclass
class Op:
    """One closed-loop operation; ``run`` returns an :class:`Outcome`."""

    name: str
    key: str
    run: Callable[[], "Outcome"]


@dataclass
class Outcome:
    """What an op produced: a status ("ok", "exit N" or "raised T"), the
    digest of its outputs, the path-steps it simulated and, for ensemble
    ops, the members kept for the member == solo check."""

    status: str
    digest: str
    path_steps: int = 0
    detail: str = ""
    members: list = field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        elif isinstance(part, bytes):
            h.update(len(part).to_bytes(8, "little") + part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _raised(exc: Exception) -> Outcome:
    text = f"{type(exc).__name__}: {exc}"
    return Outcome(status=f"raised {type(exc).__name__}", digest=_digest(text), detail=text)


def hopf_params(nsr=0.1) -> nc.HopfParams:
    return nc.HopfParams(
        alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=nc.sigma_for_nsr(nsr, TAU, 1.0)
    )


# ---------------------------------------------------------------------------
# ensemble


def ensemble_config(seed, n_steps=ENS_STEPS) -> nc.IntegratorConfig:
    return nc.IntegratorConfig(
        dt=ENS_DT, n_steps=n_steps, seed=seed, initial_state=(1.0, 0.0)
    )


def ensemble_op(seed) -> Outcome:
    ens = nc.integrate_ensemble(
        nc.hopf_system(hopf_params()), ensemble_config(seed),
        n_paths=ENS_PATHS, record_every=ENS_THIN,
    )
    acvs = [nc.sample_acv(tr.values[:-1, 0], ENS_DT * ENS_THIN, ENS_MAX_LAG) for tr in ens]
    mean = np.mean([a.values for a in acvs], axis=0)
    result = nc.fit(nc.FitProblem(
        target=nc.FitTarget.ACV, curve=nc.AcvEstimate(lags=acvs[0].lags, values=mean)
    ))
    values = [tr.values for tr in ens]
    return Outcome(
        status="ok",
        digest=_digest(*values, mean, json.dumps(result.to_dict(), sort_keys=True)),
        path_steps=ENS_PATHS * ENS_STEPS,
        members=values,
    )


def member_matches_solo(seed, members, k) -> bool:
    """Member k of the ensemble seeded ``seed`` against a solo path."""
    config = ensemble_config(nc.path_seed(seed, k))
    solo = nc.integrate_path(nc.hopf_system(hopf_params()), config, record_every=ENS_THIN)
    return solo.values.tobytes() == members[k].tobytes()


# ---------------------------------------------------------------------------
# reduction


def _oscillator(mu):
    if mu is None:
        p = hopf_params()
        quiet = nc.HopfParams(alpha=p.alpha, alpha0=p.alpha0, lambda_=p.lambda_, r=p.r, sigma=0.0)
        return nc.hopf_system(quiet), p.sigma
    return nc.van_der_pol(mu), RED_SIGMA


def reduction_op(mu, guess, grid_size, seed) -> Outcome:
    system, sigma = _oscillator(mu)
    cycle = nc.find_limit_cycle(system, guess, grid_size=grid_size)
    frame = nc.build_frame(cycle)
    model = nc.reduce(cycle, frame, sigma)
    n_steps = int(RED_PERIODS * cycle.period / RED_DT) // RED_THIN * RED_THIN
    config = nc.IntegratorConfig(dt=RED_DT, n_steps=n_steps, seed=seed)
    taus, z0s = nc.simulate_reduced(model, cycle, config, record_every=RED_THIN, n_paths=RED_PATHS)
    xs = [
        nc.reconstruct(cycle, frame, taus[k], z0s[k], dt=RED_DT * RED_THIN).values[:, 0]
        for k in range(RED_PATHS)
    ]
    pooled = np.concatenate(xs)
    density = nc.kde(pooled)
    b2 = nc.kurtosis(pooled)
    acvs = [nc.sample_acv(x, RED_DT * RED_THIN, 2.0 * cycle.period).values for x in xs]
    parts = [cycle.L, frame.U, model.J0, taus, z0s, density.density, b2, *acvs]
    if mu is None:
        # criterion 9: transform of the ACV template against the PSD template
        p = hopf_params()
        omegas = np.linspace(0.0, 4.0 * p.alpha, 401)
        transformed = nc.wk_transform(lambda u: nc.acv_formula(p, u), omegas)
        direct = nc.psd_formula(p, omegas)
        parts += [transformed.values, np.abs(transformed.values - direct).max() / direct.max()]
    return Outcome(status="ok", digest=_digest(*parts), path_steps=n_steps * RED_PATHS)


# ---------------------------------------------------------------------------
# cli


def run_cli(argv):
    """``cli.run`` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _path_steps(argv, first_output: bytes) -> int:
    """Path-steps of a successful simulate command, read off the time
    column of its first output (the README commands use dt 1e-3)."""
    if argv[0] != "simulate":
        return 0
    flags = dict(zip(argv[1::2], argv[2::2]))
    t_last = float(first_output.rstrip().rsplit(b"\n", 1)[-1].split(b",", 1)[0])
    return int(round(t_last / 1e-3)) * int(flags.get("--paths", 1))


def cli_op(template, outputs, seed) -> Outcome:
    argv = template.format(seed=seed).split()
    for name in outputs:
        if os.path.exists(name):
            os.remove(name)
    code, out, err = run_cli(argv)
    if code != 0:
        return Outcome(status=f"exit {code}", digest=_digest(code, out, err), detail=err.strip())
    files = []
    for name in outputs:
        with open(name, "rb") as handle:
            files.append(handle.read())
    return Outcome(
        status="ok",
        digest=_digest(code, out, err, *files),
        path_steps=_path_steps(argv, files[0]) if files else 0,
    )


# ---------------------------------------------------------------------------
# plans


def _guarded(fn, *args):
    def run():
        try:
            return fn(*args)
        except Exception as exc:  # op boundary: record and go on
            return _raised(exc)
    return run


def _ensemble_ops(s):
    return [Op("ensemble", f"ensemble/{s}", _guarded(ensemble_op, s))]


def _reduction_ops(seeds):
    """One op per oscillator; ``seeds`` maps oscillator name to pool seed."""
    return [
        Op(name, f"reduction/{name}/{seeds[name]}",
           _guarded(reduction_op, mu, guess, grid, seeds[name]))
        for name, mu, guess, grid in OSCILLATORS
    ]


def _cli_ops(s):
    return [
        Op(name, f"cli/{s}/{name}", _guarded(cli_op, template, outputs, s))
        for name, template, outputs in CLI_PASS
    ]


def rounds(workload, seed):
    """Endless rounds of ops for ``workload``; the same seed, the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reduction":
        orders = {name: rng.sample(REDUCTION_POOL, len(REDUCTION_POOL)) for name, *_ in OSCILLATORS}
        while True:
            for i in range(len(REDUCTION_POOL)):
                yield _reduction_ops({name: order[i] for name, order in orders.items()})
    if workload == "cli":
        order = rng.sample(CLI_POOL, len(CLI_POOL))
        while True:
            yield [op for s in order for op in _cli_ops(s)]
    order = rng.sample(ENSEMBLE_POOL, len(ENSEMBLE_POOL))
    while True:
        for s in order:
            yield _ensemble_ops(s)


def all_ops(workload):
    """Every op of the pool once; used to record the reference digests."""
    if workload == "reduction":
        return [op for s in REDUCTION_POOL for op in _reduction_ops(dict.fromkeys(
            (name for name, *_ in OSCILLATORS), s))]
    make, pool = {"ensemble": (_ensemble_ops, ENSEMBLE_POOL), "cli": (_cli_ops, CLI_POOL)}[workload]
    return [op for s in pool for op in make(s)]


def warm_up():
    """Touch every layer once with small inputs (in the current directory)."""
    for line in WARMUP_PASS:
        code, _, err = run_cli(line.split())
        if code != 0:
            raise RuntimeError(f"warm-up command failed ({code}): {line}: {err.strip()}")
    ens = nc.integrate_ensemble(
        nc.hopf_system(hopf_params()), ensemble_config(1, n_steps=200),
        n_paths=ENS_PATHS, record_every=ENS_THIN,
    )
    acv = nc.sample_acv(ens[0].values[:, 0], ENS_DT * ENS_THIN, 0.1)
    nc.wk_transform(acv, np.linspace(0.0, 4.0 * TAU, 41))
    cycle = nc.find_limit_cycle(nc.van_der_pol(1.0), (2.0, 0.0), transient_time=20.0)
    frame = nc.build_frame(cycle)
    model = nc.reduce(cycle, frame, RED_SIGMA)
    config = nc.IntegratorConfig(dt=RED_DT, n_steps=200, seed=1)
    taus, z0s = nc.simulate_reduced(model, cycle, config, n_paths=2)
    nc.reconstruct(cycle, frame, taus[0], z0s[0], dt=RED_DT)
