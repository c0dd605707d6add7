"""Record what the sislab command line writes, and compare two recordings.

    python tools/cli_outputs.py SRC OUT
    python tools/cli_outputs.py --compare OUT_A OUT_B

runs ``python -m sislab.cli`` on the sislab package under the directory SRC
for a fixed list of commands, with OUT as the working directory, so every
path a command prints is relative.  Each command leaves ``OUT/<name>.txt``
with its arguments, exit code, stdout and stderr; ``simulate`` and
``sweep`` also leave their directories under ``OUT/runs``.  Record two
source trees into two empty directories, and

    diff -r OUT_A OUT_B

lists every output that differs.  A change that moves digits on purpose is
reviewed with ``--compare OUT_A OUT_B`` instead: it reads every file
of both recordings as text and numbers, and lists each file that differs
with the largest absolute and relative difference between corresponding
numbers and, for a CSV file, the largest difference relative to the
largest magnitude in its column.  A difference that is not numeric (a
verdict, a regime, a row count, an error line, a file only one side has)
is listed as such with the first line where the two differ, and makes the
exit code 1.

The list covers, for every preset, the
files of ``simulate --set T=2`` and the output of ``classify`` (simulating
and on that run directory) and ``eigen``; a cold ``eigen`` of
cos(2*pi*(x - 0.45)) at d = 1e-3 on 2001 and 20001 nodes, the benchmark's
largest eigen solves; ``eigen`` of potentials of size 1e20 and 1e60, whose
diagonal rounds onto the potential at its peak, of size 1e300, whose iterates
underflow when they are normalized, and of size 1e307, whose Rayleigh
quotient overflows; ``eigen`` of a transmission rate with a subnormal node,
whose ratios overflow; ``eigen --tol``, which the command line no longer
takes; ``classify --tol`` at nan, -1 and inf; ``threshold`` on sim1a-c;
``classify`` at nx 205 and 209 (both branches of the subsample test) on
sim3c, sim4a and sim4b; ``classify`` of an indeterminate prediction; two
sweeps with their plots; the three plot kinds of a run; and one command for
each input the command line rejects with an ``error:`` line that a simpler
check could miss, among them ``classify`` of the ``full`` model, which has
no regime prediction, ``eigen --h`` of a 1000-term sum, too deep for the
expression parser, ``simulate`` at ``dt=1e-310``, too small to count
the steps of T, ``classify --run-dir`` of sim1c at a = 0.4 on the sim3b
run, which started from other initial data, and ``classify --run-dir`` of
sim3b on the sim1b run, whose run.json names another model.
"""

from __future__ import annotations

import argparse
import math
import os
import re
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
    cmds += [(f"eigen_huge_h_{scale}", ["eigen", "--h", f"{scale}*cos(2*pi*x)", "--nx", "41",
                                        "--d", "1"])
             for scale in ("1e20", "1e60", "1e300", "1e307")]
    cmds += [
        ("eigen_subnormal_beta_sim3b", ["eigen", "--preset", "sim3b", "--set",
                                        "beta_expr=1e-310 + x", "--set", "nx=41"]),
        ("eigen_tol", ["eigen", "--h", "x", "--tol", "1e-6"]),
    ]
    cmds += [(f"classify_tol_{tol}", ["classify", "--preset", "sim1b", "--set", "T=1",
                                      "--set", "nx=21", "--tol", tol])
             for tol in ("nan", "-1", "inf")]
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
        # a model with no regime prediction, an expression too deep for the
        # parser, and a dt too small to count the steps of T
        ("error_classify_full_model", ["classify", "--preset", "sim3c", "--set", "model=full",
                                       "--set", "d_S=1", "--set", "steady_tol=0"]),
        ("error_eigen_deep_expression", ["eigen", "--h", "+".join(["x"] * 1000),
                                         "--nx", "5"]),
        ("error_simulate_tiny_dt", ["simulate", "--preset", "sim1b", "--set", "dt=1e-310",
                                    "--out", "runs/error_tiny_dt"]),
        # a run directory of other initial data, and one of another model
        ("error_classify_other_initial_state", ["classify", "--preset", "sim1c", "--set",
                                                "param.a=0.4", "--set", "T=2",
                                                "--run-dir", "runs/sim3b"]),
        ("error_classify_other_model", ["classify", "--preset", "sim3b", "--set", "T=2",
                                        "--run-dir", "runs/sim1b"]),
    ]
    return cmds


def _nan_profile(out: Path) -> None:
    """runs/nan_profile: sim1b's profiles.csv with its last I cell set to nan."""
    rows = (out / "runs/sim1b/profiles.csv").read_text().splitlines(keepends=True)
    rows[-1] = rows[-1].rsplit(",", 1)[0] + ",nan\n"
    (out / "runs/nan_profile").mkdir(parents=True)
    (out / "runs/nan_profile/profiles.csv").write_text("".join(rows))


# a decimal number, or nan/inf not inside a word; its sign is part of it
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|(?<![A-Za-z_])(?:nan|inf)(?![A-Za-z_]))")


def _numbers(text: str) -> tuple[str, list[float]]:
    """``text`` with every number replaced by ``#``, and the numbers."""
    return _NUMBER.sub("#", text), [float(m) for m in _NUMBER.findall(text)]


def _moved(a: list[float], b: list[float]) -> list[tuple[float, float]]:
    """|x - y| and max(|x|, |y|) of each pair that differs; NaN on one side
    only, or an infinity that moved, is an infinite difference."""
    gaps = [(abs(x - y), max(abs(x), abs(y))) for x, y in zip(a, b)
            if not (x == y or x != x and y != y)]
    return [(gap if gap < math.inf else math.inf, size) for gap, size in gaps]


def _column_scaled(text_a: str, text_b: str) -> float:
    """The largest |a - b| in a CSV column over the largest finite |a| in it."""
    worst = 0.0
    rows_a = [line.split(",") for line in text_a.splitlines()[1:]]
    rows_b = [line.split(",") for line in text_b.splitlines()[1:]]
    for col_a, col_b in zip(zip(*rows_a), zip(*rows_b)):
        a, b = (_numbers(",".join(col))[1] for col in (col_a, col_b))
        gap = max((gap for gap, _ in _moved(a, b)), default=0.0)
        scale = max((abs(x) for x in a if math.isfinite(x)), default=0.0)
        if gap:
            worst = max(worst, gap / scale if scale else math.inf)
    return worst


def compare_file(text_a: str, text_b: str, csv: bool) -> str:
    """One line on how two recordings of a file differ."""
    skeleton_a, a = _numbers(text_a)
    skeleton_b, b = _numbers(text_b)
    if skeleton_a != skeleton_b or len(a) != len(b):
        lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
        for k, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
            if _numbers(line_a)[0] != _numbers(line_b)[0]:
                return f"NOT NUMERIC at line {k}: {line_a!r} vs {line_b!r}"
        return f"NOT NUMERIC: {len(lines_a)} lines vs {len(lines_b)}"
    moved = _moved(a, b)
    if not moved:
        return "same numbers, other spelling"
    abs_diff = max(gap for gap, _ in moved)
    rel_diff = max(gap / size if gap < math.inf else math.inf for gap, size in moved)
    line = f"{len(moved)} numbers moved, max abs {abs_diff:.3g}, max rel {rel_diff:.3g}"
    if csv:
        line += f", max per column scale {_column_scaled(text_a, text_b):.3g}"
    return line


def compare(out_a: Path, out_b: Path) -> int:
    """Print how the recordings ``out_a`` and ``out_b`` differ; 1 if any
    difference is not numeric."""
    files_a = {p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file()}
    status, same = 0, 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"{rel}: NOT NUMERIC: only in {out_a if rel in files_a else out_b}")
            status = 1
            continue
        bytes_a, bytes_b = (out_a / rel).read_bytes(), (out_b / rel).read_bytes()
        if bytes_a == bytes_b:
            same += 1
            continue
        line = compare_file(bytes_a.decode(errors="replace"), bytes_b.decode(errors="replace"),
                            rel.suffix == ".csv")
        status |= line.startswith("NOT NUMERIC")
        print(f"{rel}: {line}")
    print(f"{same} of {len(files_a | files_b)} files byte-identical")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", help="directory that holds the sislab package")
    parser.add_argument("out", nargs="?", help="empty or new directory for the outputs")
    parser.add_argument("--compare", nargs=2, metavar=("OUT_A", "OUT_B"),
                        help="compare two recordings instead of making one")
    args = parser.parse_args(argv)
    if args.compare:
        if args.src:
            parser.error("--compare takes no SRC or OUT")
        return compare(*(Path(out) for out in args.compare))
    if not args.out:
        parser.error("need SRC and OUT, or --compare OUT_A OUT_B")
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
