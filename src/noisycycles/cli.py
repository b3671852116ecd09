"""Command line front end: CSV in, CSV/JSON out.

Subcommands
-----------
simulate
    Integrate one of the oscillator models (full SDE, linear phase and
    deviation model, its leading-order variant, or the reduced model of a
    decomposed cycle) and write trajectory tables.
analyze
    Estimate an autocovariance, averaged periodogram, smoothed density, or
    kurtosis from a column of a CSV file.
decompose
    Detect a limit cycle of a preset (or plugged-in) ODE and export the
    cycle together with its comoving frame.
formula
    Evaluate a closed-form autocovariance or spectral-density template on
    a grid.
fit
    Least-squares fit of a template to a curve file; writes JSON.
validate
    Run the acceptance suite and print a pass/fail table.

Exit status is 0 on success, 1 on usage errors (bad flags, malformed
input files), 2 on numerical failures (divergence, no convergence).

A JSON config file (``--config``) supplies defaults for any long flag of
the subcommand; values given on the command line win.  A library
parameter whose flag is given nowhere keeps the library's default.  The
default seed may also be set through the ``NOISYCYCLES_SEED`` environment
variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

__all__ = ["build_parser", "run", "main"]

SEED_ENV_VAR = "NOISYCYCLES_SEED"


class _Parser(argparse.ArgumentParser):
    # the contract reserves status 2 for numerical failures, so usage
    # errors (argparse's default 2) are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_hopf_flags(p):
    p.add_argument("--r", type=float, default=1.0, help="cycle radius (default %(default)g)")
    p.add_argument("--alpha", type=float, default=math.tau,
                   help="angular frequency on the cycle (default 2 pi)")
    p.add_argument("--alpha0", type=float, help="rotation rate off the cycle (default alpha)")
    p.add_argument("--lambda", dest="lambda_", type=float, default=math.tau,
                   help="radial relaxation rate (default 2 pi)")
    p.add_argument("--sigma", type=float, help="noise amplitude")
    p.add_argument("--nsr", type=float, help="noise-to-signal ratio; alternative to --sigma")


def build_parser() -> _Parser:
    top = _Parser(prog="noisycycles", description=__doc__.splitlines()[0])
    top.add_argument("--config", help="JSON file supplying defaults for any long flag")
    sub = top.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    p = sub.add_parser("simulate", help="integrate an oscillator model", parents=[])
    p.add_argument(
        "--model",
        choices=["hopf-exact", "hopf-linear", "hopf-leading", "reduced"],
    )
    _add_hopf_flags(p)
    p.add_argument("--system", choices=["hopf", "van-der-pol"], default="hopf",
                   help="preset ODE for --model reduced (default %(default)s)")
    p.add_argument("--mu", type=float, help="van der Pol stiffness")
    p.add_argument("--dt", type=float, default=1e-3, help="integrator step (default %(default)g)")
    p.add_argument("--steps", type=int, help="number of steps")
    p.add_argument("--periods", type=float, help="horizon in cycle periods; alternative to --steps")
    p.add_argument("--paths", type=int, default=1,
                   help="ensemble size; output k is member k, whatever the size "
                        "(default %(default)s)")
    p.add_argument("--seed", type=int,
                   help=f"RNG seed; member k draws from path_seed(seed, k), one-path runs "
                        f"included (default ${SEED_ENV_VAR} or 0)")
    p.add_argument("--record-every", dest="record_every", type=int,
                   help="thin the output to every k-th step (default: about 100 rows per period)")
    p.add_argument("--initial", help="comma separated initial state")
    p.add_argument("--grid-size", dest="grid_size", type=int, help="cycle grid for --model reduced")
    p.add_argument("--substeps", type=int, help="frame substeps for --model reduced")
    p.add_argument("--scheme", choices=["strong-rk15", "euler-maruyama"],
                   help="integration scheme for hopf-exact")
    p.add_argument("--output", help="trajectory CSV; multi-path runs get _NNN suffixes")

    p = sub.add_parser("decompose", help="detect a limit cycle and build its frame")
    p.add_argument("--system", choices=["hopf", "van-der-pol"])
    p.add_argument("--plugin", help="module.path:object naming an SdeSystem (or factory)")
    _add_hopf_flags(p)
    p.add_argument("--mu", type=float, help="van der Pol stiffness")
    p.add_argument("--guess", help="comma separated starting point (presets have defaults)")
    p.add_argument("--grid-size", dest="grid_size", type=int, help="samples along the cycle")
    p.add_argument("--substeps", type=int, help="frame integration substeps per grid cell")
    p.add_argument("--transient", type=float, help="settle time before cycle detection")
    p.add_argument("--output", help="combined cycle and frame CSV")

    p = sub.add_parser("analyze", help="estimate statistics from a CSV column")
    p.add_argument("--what", choices=["acv", "psd", "kde", "kurtosis"])
    p.add_argument("--input", help="CSV file with the series")
    p.add_argument("--column", help="column name (default: first non-time column)")
    p.add_argument("--dt", type=float, help="sample spacing override (else from the t column)")
    p.add_argument("--max-lag", dest="max_lag", type=float, help="largest lag for --what acv")
    p.add_argument("--segments", type=int, default=1,
                   help="split the series into k segments and average periodograms "
                        "(default %(default)s)")
    p.add_argument("--grid-size", dest="grid_size", type=int, help="kde grid size")
    p.add_argument("--bandwidth", type=float, help="kde bandwidth (default: Silverman)")
    p.add_argument("--output", help="estimate CSV (default: stdout)")

    p = sub.add_parser("formula", help="evaluate a closed-form template")
    p.add_argument("--template", choices=["acv", "psd"])
    _add_hopf_flags(p)
    p.add_argument("--umax", type=float, help="largest lag (acv; default 5 periods)")
    p.add_argument("--du", type=float, help="lag spacing (default umax/500)")
    p.add_argument("--wmax", type=float, help="largest frequency (psd; default 4 alpha)")
    p.add_argument("--dw", type=float, help="frequency spacing (default wmax/500)")
    p.add_argument("--output", help="curve CSV (default: stdout)")

    p = sub.add_parser("fit", help="fit a template to a curve file")
    p.add_argument("--target", choices=["acv", "psd"])
    p.add_argument("--input", help="curve CSV (x in the first column, y in the second)")
    p.add_argument("--xcol", help="x column name (default: first column)")
    p.add_argument("--ycol", help="y column name (default: second column)")
    p.add_argument("--initial", help="starting point r,alpha,lambda,sigma (default: automatic)")
    p.add_argument("--output", help="FitResult JSON (default: stdout)")

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--nino", help="monthly Nino 3.4 anomaly CSV for the data-dependent check")

    return top


def _config_defaults(path, parser, options):
    """Make the config file's values the defaults of subcommand
    ``options["subcommand"]``, converted and checked as the flag's own
    ``type`` and ``choices`` would."""
    from .csvio import load_json_config
    from .exceptions import ConfigError

    try:
        doc = load_json_config(path)
    except ConfigError as exc:
        parser.error(str(exc))
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subs.choices[options["subcommand"]]
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest == "lambda":
            dest = "lambda_"
        if dest not in options:
            parser.error(f"{path}: unknown config key {key!r} for this subcommand")
        # "config" and "subcommand" are known keys but no flag of the subcommand
        if value is None or dest not in actions:
            continue
        action = actions[dest]
        # a flag without a type reads the text, as argparse does
        convert = action.type or str
        try:
            value = convert(str(value))
        except ValueError:
            parser.error(f"{path}: invalid {convert.__name__} value {value!r} "
                         f"for config key {key!r}")
        if action.choices is not None and value not in action.choices:
            parser.error(f"{path}: config key {key!r} must be one of "
                         f"{', '.join(map(repr, action.choices))}, got {value!r}")
        defaults[dest] = value
    sub.set_defaults(**defaults)


def _floats(text, flag, parser):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        parser.error(f"{flag} expects comma separated numbers, got {text!r}")


def _positive(parser, **values):
    """Usage error for the first flag that is not a positive, finite number."""
    for name, value in values.items():
        if not (value > 0.0 and math.isfinite(value)):
            parser.error(f"--{name} must be positive and finite, got {value:g}")


def _require(options, parser, *names):
    for name in names:
        if options.get(name) is None:
            parser.error(f"--{name.rstrip('_').replace('_', '-')} is required here")


def _given(options, **flags):
    """Keyword arguments for the library parameters whose flags were given,
    from ``parameter=flag`` pairs; a flag the subcommand lacks is not given."""
    return {name: options[flag] for name, flag in flags.items()
            if options.get(flag) is not None}


def _seed(options, parser):
    if options["seed"] is not None:
        return options["seed"]
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(text)
    except ValueError:
        parser.error(f"{SEED_ENV_VAR} must be an integer, got {text!r}")


def _hopf_params(options, parser):
    """Build model parameters from flags; --sigma and --nsr conflict."""
    from .hopf import HopfParams, sigma_for_nsr

    r, alpha, lam = options["r"], options["alpha"], options["lambda_"]
    alpha0 = alpha if options["alpha0"] is None else options["alpha0"]
    sigma, nsr = options["sigma"], options["nsr"]
    if sigma is not None and nsr is not None:
        parser.error("--sigma and --nsr are mutually exclusive")
    if nsr is not None:
        sigma = sigma_for_nsr(nsr, lam, r)
    return HopfParams(
        alpha=alpha, alpha0=alpha0, lambda_=lam, r=r, sigma=0.0 if sigma is None else sigma
    )


def _emit_curve(options, xlabel, ylabel, x, y):
    from .csvio import _table_text, write_curve

    if options.get("output"):
        write_curve(options["output"], xlabel, ylabel, x, y)
    else:
        sys.stdout.write(_table_text((xlabel, ylabel), (x, y)))


def _outputs(path, paths):
    """One output file per path: ``path`` itself, or ``path`` with an _NNN suffix."""
    if paths == 1:
        return [path]
    root, ext = os.path.splitext(path)
    width = max(3, len(str(paths - 1)))
    return [f"{root}_{k:0{width}d}{ext}" for k in range(paths)]


def _auto_thin(period, dt):
    return max(1, int(round(period / (100.0 * dt))))


def _steps(options, period, dt, parser):
    steps, periods = options["steps"], options["periods"]
    if (steps is None) == (periods is None):
        parser.error("exactly one of --steps / --periods is required")
    if steps is None:
        _positive(parser, periods=periods)
        steps = int(round(periods * period / dt))
    return steps


def _preset_system(options, parser):
    """Noise-free ODE for cycle detection, with its default starting point."""
    from .presets import van_der_pol

    if options["system"] == "van-der-pol":
        if options["nsr"] is not None:
            parser.error(
                "--nsr needs the hopf preset; drop --nsr and give --sigma for van-der-pol"
            )
        return van_der_pol(**_given(options, mu="mu")), (2.0, 0.0)
    from .hopf import hopf_system

    p = _hopf_params(options, parser)
    return hopf_system(dataclasses.replace(p, sigma=0.0)), (0.3 * p.r, 0.0)


def _cycle_and_frame(options, system, guess):
    """Detect the cycle of ``system`` and transport its frame, as
    --grid-size, --substeps and --transient ask."""
    from .frame import build_frame, find_limit_cycle

    cycle = find_limit_cycle(
        system, guess, **_given(options, grid_size="grid_size", transient_time="transient")
    )
    return cycle, build_frame(cycle, **_given(options, substeps="substeps"))


def _reduced_model(options, parser):
    """Cycle, frame and reduced SDE of the preset for --model reduced."""
    from .frame import reduce

    sigma = options["sigma"]
    if options["system"] == "hopf":
        sigma = _hopf_params(options, parser).sigma
    elif sigma is None:
        parser.error("--model reduced needs --sigma (or --nsr with the hopf preset)")

    cycle, frame = _cycle_and_frame(options, *_preset_system(options, parser))
    return cycle, frame, reduce(cycle, frame, sigma)


def _cmd_simulate(options, parser):
    _require(options, parser, "model", "output")
    import numpy as np

    from .csvio import write_trajectory
    from .sde import IntegratorConfig, Scheme, Trajectory

    model, dt, paths = options["model"], options["dt"], options["paths"]
    _positive(parser, dt=dt)
    if paths < 1:
        parser.error(f"--paths must be >= 1, got {paths}")

    if model == "reduced":
        cycle, frame, reduced = _reduced_model(options, parser)
        period = cycle.period
    else:
        params = _hopf_params(options, parser)
        period = math.tau / params.alpha
    n_steps = _steps(options, period, dt, parser)
    thin = options["record_every"]
    if thin is None:
        thin = _auto_thin(period, dt)
    if options["initial"] is not None:
        initial = _floats(options["initial"], "--initial", parser)
    else:
        initial = (params.r, 0.0) if model == "hopf-exact" else ()
    scheme = {k: Scheme(v) for k, v in _given(options, scheme="scheme").items()}
    # member k of every model draws from path_seed(seed, k), one-path runs included
    config = IntegratorConfig(
        dt=dt, n_steps=n_steps, seed=_seed(options, parser), initial_state=initial, **scheme
    )

    if model == "reduced":
        from .frame import reconstruct, simulate_reduced

        taus, z0s = simulate_reduced(reduced, cycle, config, record_every=thin, n_paths=paths)
        labels = ("x", "v") if options["system"] == "van-der-pol" else ("x", "y")
        trajectories = (
            reconstruct(cycle, frame, tau, z0, dt=dt * thin, channel_labels=labels)
            for tau, z0 in zip(taus, z0s)
        )
    elif model == "hopf-exact":
        from .hopf import hopf_system
        from .sde import integrate_ensemble

        trajectories = integrate_ensemble(
            hopf_system(params), config, n_paths=paths, record_every=thin,
            channel_labels=("x", "y"),
        )
    else:
        from .hopf import simulate_hopf_linear

        lp = simulate_hopf_linear(
            params, config, model == "hopf-leading", record_every=thin, n_paths=paths
        )
        trajectories = (
            Trajectory(lp.dt, np.column_stack([tau, z, rec]), ("tau", "z", "x", "y"))
            for tau, z, rec in zip(lp.tau, lp.z, lp.reconstructed)
        )
    for out, trajectory in zip(_outputs(options["output"], paths), trajectories):
        write_trajectory(out, trajectory)


def _cmd_decompose(options, parser):
    _require(options, parser, "output")
    from .csvio import write_cycle_frame

    if options.get("plugin"):
        system, guess = _load_plugin(options, parser)
    else:
        if not options.get("system"):
            parser.error("--system or --plugin is required")
        system, guess = _preset_system(options, parser)
    if options.get("guess") is not None:
        guess = _floats(options["guess"], "--guess", parser)
    if guess is None:
        parser.error("--guess is required with --plugin")
    cycle, frame = _cycle_and_frame(options, system, guess)
    write_cycle_frame(options["output"], cycle, frame)


def _load_plugin(options, parser):
    import importlib

    from .sde import SdeSystem

    spec = options["plugin"]
    module_name, _, attr = spec.partition(":")
    if not attr:
        parser.error(f"--plugin expects module.path:object, got {spec!r}")
    try:  # the module's own code and the factory's may raise anything
        obj = getattr(importlib.import_module(module_name), attr)
        if callable(obj) and not isinstance(obj, SdeSystem):
            obj = obj()
    except Exception as exc:
        parser.error(f"cannot load plugin {spec!r}: {type(exc).__name__}: {exc}")
    if not isinstance(obj, SdeSystem):
        parser.error(f"plugin {spec!r} is not an SdeSystem")
    return obj, None


def _cmd_analyze(options, parser):
    _require(options, parser, "what", "input")
    from .csvio import read_column

    what = options["what"]
    values, inferred_dt = read_column(options["input"], column=options.get("column"))
    dt = options["dt"] if options["dt"] is not None else inferred_dt

    if what in ("acv", "psd") and dt is None:
        parser.error("--dt is required when the file has no uniform t column")

    if what == "acv":
        _require(options, parser, "max_lag")
        from .analysis import sample_acv

        est = sample_acv(values, dt, options["max_lag"])
        _emit_curve(options, "lag", "acv", est.lags, est.values)
    elif what == "psd":
        from .analysis import averaged_periodogram

        segments = options["segments"]
        if segments < 1 or values.size // segments < 2:
            parser.error(f"--segments must cut the series into usable pieces, got {segments}")
        length = values.size // segments
        rows = values[: segments * length].reshape(segments, length)
        est = averaged_periodogram(rows, dt)
        _emit_curve(options, "omega", "psd", est.omegas, est.values)
    elif what == "kde":
        from .analysis import kde

        est = kde(values, **_given(options, grid_size="grid_size", bandwidth="bandwidth"))
        _emit_curve(options, "x", "density", est.grid, est.density)
    else:
        from .analysis import kurtosis

        b2 = kurtosis(values)
        _emit_curve(options, "sample_size", "kurtosis", [float(values.size)], [b2])


def _cmd_formula(options, parser):
    _require(options, parser, "template")
    import numpy as np

    from .analysis import acv_formula, psd_formula

    params = _hopf_params(options, parser)
    # per template: end flag, step flag, default end, column names, formula
    end_flag, step_flag, end, labels, formula = {
        "acv": ("umax", "du", 5.0 * (math.tau / params.alpha), ("lag", "acv"), acv_formula),
        "psd": ("wmax", "dw", 4.0 * params.alpha, ("omega", "psd"), psd_formula),
    }[options["template"]]
    if options[end_flag] is not None:
        end = options[end_flag]
    step = end / 500.0 if options[step_flag] is None else options[step_flag]
    _positive(parser, **{end_flag: end, step_flag: step})
    grid = np.arange(0.0, end + 0.5 * step, step)
    _emit_curve(options, *labels, grid, formula(params, grid))


def _cmd_fit(options, parser):
    _require(options, parser, "target", "input")
    from .analysis import AcvEstimate, PsdEstimate
    from .csvio import _fit_text, read_curve, write_fit_json
    from .fitting import FitProblem, FitTarget, fit

    x, y, _ = read_curve(
        options["input"], xlabel=options.get("xcol"), ylabel=options.get("ycol")
    )
    target = FitTarget(options["target"])
    curve = AcvEstimate(x, y) if target is FitTarget.ACV else PsdEstimate(x, y)
    initial = None
    if options.get("initial") is not None:
        vals = _floats(options["initial"], "--initial", parser)
        if len(vals) != 4:
            parser.error("--initial expects r,alpha,lambda,sigma")
        from .hopf import HopfParams

        initial = HopfParams(
            alpha=vals[1], alpha0=vals[1], lambda_=vals[2], r=vals[0], sigma=vals[3]
        )
    result = fit(FitProblem(target=target, curve=curve, initial=initial))
    if options.get("output"):
        write_fit_json(options["output"], result)
    else:
        sys.stdout.write(_fit_text(result))


def _cmd_validate(options, parser):
    from .validation import run_all

    results = run_all(nino_path=options.get("nino"))
    width = max(len(r.name) for r in results)
    failed = 0
    skipped = 0
    for r in results:
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        if status == "FAIL":
            failed += 1
        if status == "SKIP":
            skipped += 1
        print(f"{r.index:>3}  {r.name:<{width}}  {status}  {r.detail}")
    ran = len(results) - skipped
    print(f"\n{ran - failed} of {ran} criteria passed" + (f", {skipped} skipped" if skipped else ""))
    return 1 if failed else 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "decompose": _cmd_decompose,
    "analyze": _cmd_analyze,
    "formula": _cmd_formula,
    "fit": _cmd_fit,
    "validate": _cmd_validate,
}


def run(argv=None) -> int:
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    if options["config"]:
        # the file's values become the subcommand's defaults; parsing argv
        # again lets every flag given on the command line win
        _config_defaults(options["config"], parser, options)
        options = vars(parser.parse_args(argv))
    del options["config"]
    subcommand = options.pop("subcommand")

    from .exceptions import ConfigError, NumericsError

    try:
        code = _HANDLERS[subcommand](options, parser)
    except (ConfigError, OSError) as exc:
        print(f"noisycycles {subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"noisycycles {subcommand}: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0 if code is None else int(code)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
