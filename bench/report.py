"""Run the benchmark's workloads for one seed, untraced and traced, and print
every metric by name with its unit, median and quartiles over passes.

    python3 bench/report.py --seed 1                # every workload, 15 s each
    python3 bench/report.py --seed 1 --workload knee_sweep --seconds 5
    python3 bench/report.py --seed 1 --smoke        # tiny inputs, a few seconds

Exits 1 when any run fails a correctness check or does not finish.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   help=f"measuring time per run (default {spec['run_seconds']}, 2 with --smoke)")
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    seconds = args.seconds or (2.0 if args.smoke else spec["run_seconds"])

    ok = True
    for workload in args.workload or names:
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("# context")))
            if done.returncode != 0 or not lines:
                print(f"# FAILED: {workload} trace={trace} exited {done.returncode}\n"
                      f"{done.stderr.strip()}")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"# {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}\n")
            ok = ok and result["correct"]
    print("# all checks passed" if ok else "# some checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
