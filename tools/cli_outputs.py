"""Record what the sislab command line writes, for a byte-identity check.

    python tools/cli_outputs.py SRC OUT

runs ``python -m sislab.cli`` on the sislab package under the directory SRC
for a fixed list of commands, with OUT as the working directory, so every
path a command prints is relative.  Each command leaves ``OUT/<name>.txt``
with its arguments, exit code, stdout and stderr; ``simulate`` and
``sweep`` also leave their directories under ``OUT/runs``.  Record two
source trees into two empty directories, and

    diff -r OUT_A OUT_B

lists every output that differs.  The list covers, for every preset, the
files of ``simulate --set T=2`` and the output of ``classify`` (simulating
and on that run directory) and ``eigen``; a cold ``eigen`` of
cos(2*pi*(x - 0.45)) at d = 1e-3 on 2001 and 20001 nodes, the benchmark's
largest eigen solves; ``threshold`` on sim1a-c;
``classify`` at nx 205 and 209 (both branches of the subsample test) on
sim3c, sim4a and sim4b; ``classify`` of an indeterminate prediction; two
sweeps with their plots; the three plot kinds of a run; and one command for
each input the command line rejects with an ``error:`` line that a simpler
check could miss.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

PRESETS = ("sim1a", "sim1b", "sim1c", "sim2a", "sim2b", "sim2c",
           "sim3a", "sim3b", "sim3c", "sim4a", "sim4b")

# config files the sweeps read, written into OUT
SWEEPS = {
    "sweep_sim1c_a.cfg": "preset = sim1c\nT = 4\nsweep_parameter = a\n"
                         "sweep_lo = 0.5\nsweep_hi = 1.5\nsweep_count = 6\n",
    "sweep_sim2b_conc.cfg": "preset = sim2b\nT = 2\nsweep_parameter = d_S\n"
                            "sweep_lo = 0.5\nsweep_hi = 1.5\nsweep_count = 3\n"
                            "sweep_observable = concentration_fraction\n",
    "sweep_sim1c_conc.cfg": "preset = sim1c\nT = 1\nsweep_parameter = a\n"
                            "sweep_lo = 0.5\nsweep_hi = 1.5\nsweep_count = 4\n"
                            "sweep_observable = concentration_fraction\n",
    "sweep_bogus_model.cfg": "preset = sim1c\nmodel = bogus\nT = 1\nsweep_parameter = a\n"
                             "sweep_lo = 0.5\nsweep_hi = 1.5\nsweep_count = 4\n",
}


def commands() -> list[tuple[str, list[str]]]:
    """(name, arguments) of every recorded command, in the order they run."""
    cmds = []
    for p in PRESETS:
        run_dir = f"runs/{p}"
        cmds += [
            (f"simulate_{p}", ["simulate", "--preset", p, "--set", "T=2", "--out", run_dir]),
            (f"classify_{p}", ["classify", "--preset", p, "--set", "T=2"]),
            (f"classify_run_dir_{p}", ["classify", "--preset", p, "--set", "T=2",
                                       "--run-dir", run_dir]),
            (f"eigen_{p}", ["eigen", "--preset", p]),
        ]
    cmds += [(f"eigen_cold_nx{nx}", ["eigen", "--h", "cos(2*pi*(x - 0.45))", "--d", "1e-3",
                                     "--nx", str(nx)])
             for nx in (2001, 20001)]
    cmds += [(f"threshold_{p}", ["threshold", "--preset", p])
             for p in ("sim1a", "sim1b", "sim1c")]
    cmds += [(f"classify_{p}_nx{nx}", ["classify", "--preset", p, "--set", "T=1",
                                       "--set", f"nx={nx}"])
             for p in ("sim3c", "sim4a", "sim4b") for nx in (205, 209)]
    cmds += [
        ("sweep_sim1c_a_jobs1", ["sweep", "--config", "sweep_sim1c_a.cfg", "--svg",
                                 "--out", "runs/sweep_sim1c_a_jobs1"]),
        ("sweep_sim1c_a_jobs2", ["sweep", "--config", "sweep_sim1c_a.cfg", "--svg",
                                 "--jobs", "2", "--out", "runs/sweep_sim1c_a_jobs2"]),
        ("sweep_sim2b_conc", ["sweep", "--config", "sweep_sim2b_conc.cfg", "--svg",
                              "--out", "runs/sweep_sim2b_conc"]),
        ("svg_lyapunov_sim2b", ["simulate", "--preset", "sim2b", "--set", "T=2",
                                "--svg", "lyapunov_series", "--out", "runs/svg_sim2b"]),
        ("svg_final_profiles_sim3b", ["simulate", "--preset", "sim3b", "--set", "T=2",
                                      "--svg", "final_profiles", "--out", "runs/svg_sim3b"]),
        ("svg_mass_series_sim1b", ["simulate", "--preset", "sim1b", "--set", "T=2",
                                   "--svg", "mass_series", "--out", "runs/svg_sim1b"]),
        ("classify_indeterminate_sim1c", ["classify", "--preset", "sim1c", "--set",
                                          "param.a=0.8", "--set", "T=1"]),
        # errors: a sweep that cannot succeed, a run that takes no step, a
        # profile value that is not finite, and an infinite domain; and a run
        # that rounds T and snapshot_every to whole steps
        ("error_sweep_conc_sim1c", ["sweep", "--config", "sweep_sim1c_conc.cfg",
                                    "--out", "runs/error_sweep_conc_sim1c"]),
        ("error_sweep_bogus_model", ["sweep", "--config", "sweep_bogus_model.cfg",
                                     "--out", "runs/error_sweep_bogus_model"]),
        ("error_simulate_no_step", ["simulate", "--preset", "sim1b", "--set", "T=0.0004",
                                    "--out", "runs/error_no_step"]),
        ("error_classify_nan_profile", ["classify", "--preset", "sim1b", "--set", "T=2",
                                        "--run-dir", "runs/nan_profile"]),
        ("error_eigen_infinite_domain", ["eigen", "--h", "1", "--x-max", "inf",
                                         "--nx", "21"]),
        ("simulate_rounded_steps", ["simulate", "--preset", "sim1b", "--set", "T=0.0016",
                                    "--set", "nx=21", "--set", "snapshot_every=0.0007",
                                    "--out", "runs/rounded_steps"]),
    ]
    return cmds


def _nan_profile(out: Path) -> None:
    """runs/nan_profile: sim1b's profiles.csv with its last I cell set to nan."""
    rows = (out / "runs/sim1b/profiles.csv").read_text().splitlines(keepends=True)
    rows[-1] = rows[-1].rsplit(",", 1)[0] + ",nan\n"
    (out / "runs/nan_profile").mkdir(parents=True)
    (out / "runs/nan_profile/profiles.csv").write_text("".join(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory that holds the sislab package")
    parser.add_argument("out", help="empty or new directory for the outputs")
    args = parser.parse_args(argv)
    src, out = Path(args.src).resolve(), Path(args.out).resolve()
    if not (src / "sislab" / "__init__.py").is_file():
        parser.error(f"no sislab package under {src}")
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    for name, text in SWEEPS.items():
        (out / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, cli_args in commands():
        if name == "error_classify_nan_profile":
            _nan_profile(out)
        done = subprocess.run([sys.executable, "-m", "sislab.cli", *cli_args], cwd=out,
                              env=env, capture_output=True, text=True)
        (out / f"{name}.txt").write_text(
            f"$ sislab {' '.join(cli_args)}\nexit {done.returncode}\n"
            f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}")
        print(f"{name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
