"""Command-line interface.

Subcommands: simulate, eigen, threshold, classify, sweep.  All take
--config plus repeatable --set key=value overrides; exit status is 0 on
success/pass, 2 when a verification fails, 1 on error (a bad configuration
or a solver that fails), with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import models
from .classify import check_tolerance, predict_regime, verify_outcome
from .config import PRESETS, ConfigError, RunConfig, load_config, load_sweep_config
from .mesh import Field, build_grid, eval_expression
from .models import MassConservationError, StepSizeError, Variant
from .operators import TridiagonalSolveError
from .output import SVG_KINDS, emit_run, emit_sweep, read_run, run_model
from .spectral import EigenConvergenceError, basic_reproduction_number, principal_eigenvalue
from .sweep import run_sweep
from .threshold import critical_population


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in scenario preset")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a configuration key")


def _overrides(args) -> dict[str, str]:
    """--preset and the --set items, as overrides of the --config file."""
    if not (args.config or args.preset):
        raise ConfigError("give --config and/or --preset")
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.preset:
        overrides["preset"] = args.preset
    return overrides


def _resolve_config(args) -> RunConfig:
    return load_config(args.config, _overrides(args))


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    spec, grid, S0, I0 = cfg.build()
    out = args.out or cfg.output_dir
    try:
        traj = models.run(spec, S0, I0, **cfg.run_kwargs())
    except StepSizeError as exc:
        # keep the snapshots recorded before the failure, then report it
        emit_run(exc.partial[0], out, cfg.preset, error=str(exc))
        raise
    profiles, diagnostics = emit_run(traj, out, cfg.preset, svg=args.svg)
    print(f"wrote {profiles} and {diagnostics}")
    print(f"final t={traj.final.t:g}  sup S={traj.final.S.max():.6g}  "
          f"sup I={traj.final.I.max():.6g}  steady={traj.steady_detected}")
    return 0


# The flags that describe a --h potential: its dispersal rate and grid, with
# their defaults and the run key that sets each for a configured run.
_POTENTIAL_FLAGS = {"d": (1.0, "d_I"), "nx": (201, "nx"), "x_min": (0.0, "x_min"),
                    "x_max": (1.0, "x_max")}


def _cmd_eigen(args) -> int:
    given = {k: getattr(args, k) for k in _POTENTIAL_FLAGS if getattr(args, k) is not None}
    if args.h is not None:
        d, nx, x_min, x_max = (given.get(k, default)
                               for k, (default, _) in _POTENTIAL_FLAGS.items())
        h = eval_expression(build_grid(x_min, x_max, nx), args.h)
        result = principal_eigenvalue(d, h)
        print(f"sigma({d:g}, {args.h}) = {result.sigma!r}")
        print(f"iterations={result.iterations} residual={result.residual:.3e} "
              f"min phi={result.phi.min():.3e}")
        return 0
    if given:
        flags = ", ".join("--" + k.replace("_", "-") for k in given)
        sets = ", ".join(f"--set {_POTENTIAL_FLAGS[k][1]}=..." for k in given)
        raise ConfigError(f"{flags}: used only with --h; for a configured run give {sets}")
    cfg = _resolve_config(args)
    spec, grid, _, _ = cfg.build()
    beta, gamma = spec.beta.values, spec.gamma.values
    if spec.d_I > 0:
        r0 = basic_reproduction_number(spec.d_I, spec.beta, spec.gamma)
        sig = principal_eigenvalue(spec.d_I, Field(grid, beta - gamma)).sigma
        print(f"R0 = {r0!r}  (d_I={spec.d_I:g})")
        print(f"sigma(d_I, beta - gamma) = {sig!r}")
    else:
        # locked infecteds: the invasion quantities are their d_I -> 0 limits
        print(f"R0 = {float((beta / gamma).max())!r}  (d_I -> 0 limit: max beta/gamma)")
        print(f"sigma(d_I, beta - gamma) = {float((beta - gamma).max())!r}  "
              f"(d_I -> 0 limit: max(beta - gamma))")
    return 0


def _cmd_threshold(args) -> int:
    cfg = _resolve_config(args)
    spec, grid, S0, _ = cfg.build()
    if spec.variant is not Variant.MASS_ACTION_DS0:
        # N* rests on the mass-action lockdown identity S - r = (S0 - r)e^{-beta J}
        raise ConfigError(f"threshold applies to mass_action_ds0 only, not "
                          f"{spec.variant.value}")
    result = critical_population(S0, spec.risk_ratio(), spec.beta, spec.d_I)
    print(f"critical population N* = {result.n_star!r}")
    print(f"bounds: int r = {result.lower_bound!r} <= N* <= "
          f"int max(S0, r) = {result.upper_bound!r}")
    print(f"certified: N* <= dual bound = {result.dual_bound!r}  relative gap "
          f"{(result.dual_bound - result.n_star) / result.n_star:.3e}")
    print(f"constraint eigenvalue at optimum = {result.sigma_at_opt:.3e}  "
          f"converged={result.converged}")
    print(f"ascent steps = {result.iterations}  eigen solves = {result.eigen_solves}  "
          f"eigen iterations = {result.eigen_iterations}")
    return 0


def _cmd_classify(args) -> int:
    check_tolerance(args.tol)
    cfg = _resolve_config(args)
    spec, grid, S0, I0 = cfg.build()
    # predicting first fails a model with no regime prediction before any run
    pred = predict_regime(spec, S0, I0)
    if args.run_dir:
        traj = read_run(spec, args.run_dir)
        first = traj.snapshots[0]
        # profiles are written with repr, so a run of these data reloads them exactly
        if first.t != 0.0 or (first.S.values != S0.values).any() \
                or (first.I.values != I0.values).any():
            raise ValueError(f"{Path(args.run_dir, 'profiles.csv')} does not start from "
                             f"the configured S0 and I0 at t = 0")
        # profiles.csv holds no model; run.json, where the run left one, names it
        model = run_model(args.run_dir)
        if model not in (None, spec.variant.value):
            raise ValueError(f"{Path(args.run_dir, 'run.json')} names model {model}, "
                             f"not the configured {spec.variant.value}")
    else:
        traj = models.run(spec, S0, I0, **cfg.run_kwargs())
    print(f"predicted regime: {pred.regime.name} — {pred.regime.value}")
    for note in pred.notes:
        print(f"  note: {note}")
    report = verify_outcome(traj, pred, tol=args.tol)
    for name, err in report.measured_errors.items():
        print(f"  {name} = {err:.6g}")
    for note in report.notes:
        print(f"  {note}")
    if report.passed is None:
        print("verdict: none (indeterminate prediction)")
        return 0
    print(f"verdict: {'PASS' if report.passed else 'FAIL'} at tolerance {args.tol:g}")
    return 0 if report.passed else 2


def _cmd_sweep(args) -> int:
    if not args.config:
        raise ConfigError("sweep needs --config with sweep_* keys")
    sweep_cfg = load_sweep_config(args.config, _overrides(args))
    result = run_sweep(sweep_cfg, jobs=args.jobs)
    table_path = emit_sweep(result, args.out or sweep_cfg.base.output_dir, svg=args.svg)
    failures = [p for p in result.points if p.error]
    print(f"wrote {table_path} ({len(result.points)} points, "
          f"{len(failures)} failures)")
    if result.knee is None:
        print("knee: absent")
    else:
        print(f"knee at {result.parameter} = {result.knee!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sislab",
        description="Numerical laboratory for degenerate SIS reaction-diffusion models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a model and emit CSVs")
    _add_common(p_sim)
    p_sim.add_argument("--out", help="output directory (default: config output_dir)")
    p_sim.add_argument("--svg", choices=SVG_KINDS, help="also write this plot")
    p_sim.set_defaults(func=_cmd_simulate)

    p_eig = sub.add_parser("eigen", help="principal eigenvalue / reproduction number")
    _add_common(p_eig)
    p_eig.add_argument("--h", help="potential expression; omit to compute R0 "
                                   "from the configured coefficients")
    p_eig.add_argument("--d", type=float, help="diffusion rate for --h (default 1)")
    p_eig.add_argument("--nx", type=int, help="grid nodes for --h (default 201)")
    p_eig.add_argument("--x-min", type=float, help="left end for --h (default 0)")
    p_eig.add_argument("--x-max", type=float, help="right end for --h (default 1)")
    p_eig.set_defaults(func=_cmd_eigen)

    p_thr = sub.add_parser("threshold", help="critical population size")
    _add_common(p_thr)
    p_thr.set_defaults(func=_cmd_threshold)

    p_cls = sub.add_parser("classify", help="predict the regime and verify a run")
    _add_common(p_cls)
    p_cls.add_argument("--run-dir", help="directory written by simulate "
                                         "(default: simulate now)")
    p_cls.add_argument("--tol", type=float, default=0.01)
    p_cls.set_defaults(func=_cmd_classify)

    p_swp = sub.add_parser("sweep", help="parameter sweep with knee detection")
    _add_common(p_swp)
    p_swp.add_argument("--jobs", type=int, default=1, help="concurrent workers")
    p_swp.add_argument("--out", help="output directory")
    p_swp.add_argument("--svg", action="store_true", help="also plot the sweep")
    p_swp.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, EigenConvergenceError,
            MassConservationError, TridiagonalSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
