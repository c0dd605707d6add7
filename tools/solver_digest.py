"""Run seeded random eigen and threshold solves, and compare two runs.

    python tools/solver_digest.py SRC OUT.json [--seed S] [--eigen-cases N]
                                  [--threshold-cases M]
    python tools/solver_digest.py --compare A.json B.json

The first form imports the sislab package under the directory SRC and runs
N random sigma cases and N random R0 cases (nx 5-2001 and d 1e-6-1e5,
log-uniform, on cosine-series data) and M random N* cases (nx 41, 101 or
201, d_I 1e-3-10, on smooth random S0, r and beta), and writes every value
with its iteration counts to OUT.json.  The cases depend on the seed alone,
so two source trees digested with the same arguments solve the same
problems.  The iterations of an R0 solve are counted as the calls of
``spectral.solve_tridiagonal``, one per Noda step.

``--compare`` prints, for each quantity, the largest difference between the
two runs: relative to max(1, |sigma|) for sigma (over all cases, and over
d <= 10), relative to the value for R0 and N*.  It lists every case whose
iteration count, eigen-solve count, ascent-step count or certificate
changed, and the number of uncertified N* cases on each side.  It exits 1
if a count or certificate changed or a value is not finite (a solve that
raised has no value), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

# the discrete outcomes of a case, which --compare requires to be equal
COUNTS = {"sigma": ("iterations",), "r0": ("iterations",),
          "n_star": ("converged", "iterations", "eigen_solves", "eigen_iterations")}


def _cosine_series(rng, nodes, terms=4):
    return sum(a * np.cos(k * np.pi * nodes)
               for k, a in enumerate(rng.uniform(-1, 1, terms), 1))


def _positive(rng, nodes, floor):
    v = _cosine_series(rng, nodes, 3)
    return v - v.min() + floor


def _eigen_cases(rng, count):
    for _ in range(count):
        yield int(round(10 ** rng.uniform(math.log10(5), math.log10(2001)))), \
            float(10 ** rng.uniform(-6, 5))


def digest(seed: int, eigen_cases: int, threshold_cases: int) -> dict:
    from sislab import spectral
    from sislab.mesh import Field, build_grid
    from sislab.threshold import critical_population

    rng = np.random.default_rng(seed)
    cases = []

    def record(kind, params, solve):
        try:
            cases.append({"kind": kind, **params, **solve()})
        except Exception as exc:   # a solve that raised is a case without a value
            cases.append({"kind": kind, **params, "value": None,
                          "error": f"{type(exc).__name__}: {exc}"})

    for nx, d in _eigen_cases(rng, eigen_cases):
        g = build_grid(0, 1, nx)
        h = Field(g, rng.uniform(-2, 2) + _cosine_series(rng, g.nodes))

        def sigma():
            res = spectral.principal_eigenvalue(d, h)
            return {"value": res.sigma, "iterations": res.iterations}

        record("sigma", {"nx": nx, "d": d}, sigma)

    solve = spectral.solve_tridiagonal
    for nx, d in _eigen_cases(rng, eigen_cases):
        g = build_grid(0, 1, nx)
        beta, gamma = (Field(g, _positive(rng, g.nodes, rng.uniform(0.05, 2)))
                       for _ in range(2))
        calls = []

        def counted(*args):
            calls.append(1)
            return solve(*args)

        def r0():
            spectral.solve_tridiagonal = counted
            try:
                value = spectral.basic_reproduction_number(d, beta, gamma)
            finally:
                spectral.solve_tridiagonal = solve
            return {"value": value, "iterations": len(calls)}

        record("r0", {"nx": nx, "d": d}, r0)

    for _ in range(threshold_cases):
        nx = int(rng.choice([41, 101, 201]))
        d_I = float(10 ** rng.uniform(-3, 1))
        g = build_grid(0, 1, nx)
        S0, r, beta = (Field(g, _positive(rng, g.nodes, floor))
                       for floor in (rng.uniform(0, 1), rng.uniform(0.05, 1),
                                     rng.uniform(0.05, 1)))

        def n_star():
            res = critical_population(S0, r, beta, d_I)
            return {"value": res.n_star, "dual_bound": res.dual_bound,
                    "converged": res.converged, "iterations": res.iterations,
                    "eigen_solves": res.eigen_solves,
                    "eigen_iterations": res.eigen_iterations}

        record("n_star", {"nx": nx, "d": d_I}, n_star)

    return {"seed": seed, "eigen_cases": eigen_cases, "threshold_cases": threshold_cases,
            "cases": cases}


def _finite(case) -> bool:
    return case["value"] is not None and math.isfinite(case["value"])


def compare(a: dict, b: dict) -> int:
    if {k: a[k] for k in ("seed", "eigen_cases", "threshold_cases")} != \
            {k: b[k] for k in ("seed", "eigen_cases", "threshold_cases")}:
        print("the two digests ran different cases")
        return 1
    failed = False
    worst: dict[str, tuple[float, int]] = {}
    for i, (x, y) in enumerate(zip(a["cases"], b["cases"])):
        kind = x["kind"]
        if not (_finite(x) and _finite(y)):
            failed = True
            errors = "".join(f" ({c['error']})" for c in (x, y) if "error" in c)
            print(f"case {i} ({kind}, nx {x['nx']}, d {x['d']:.3g}): value "
                  f"{x['value']} -> {y['value']}{errors}")
            continue
        for key in COUNTS[kind]:
            if x[key] != y[key]:
                failed = True
                print(f"case {i} ({kind}, nx {x['nx']}, d {x['d']:.3g}): {key} "
                      f"{x[key]} -> {y[key]}")
        scale = max(1.0, abs(x["value"])) if kind == "sigma" else abs(x["value"])
        rel = abs(x["value"] - y["value"]) / scale
        keys = [kind] + (["sigma (d <= 10)"] if kind == "sigma" and x["d"] <= 10 else [])
        for key in keys:
            if rel >= worst.get(key, (-1.0, 0))[0]:
                worst[key] = (rel, i)
    for key, (rel, i) in worst.items():
        case = a["cases"][i]
        print(f"{key}: largest relative difference {rel:.3g} "
              f"(case {i}, nx {case['nx']}, d {case['d']:.3g})")
    for name, run in (("A", a), ("B", b)):
        thresholds = [c for c in run["cases"] if c["kind"] == "n_star"]
        uncertified = sum(not c.get("converged") for c in thresholds)
        steps = sum(c.get("iterations", 0) for c in thresholds)
        print(f"{name}: {uncertified} of {len(thresholds)} N* cases uncertified, "
              f"{steps} ascent steps in all")
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("src", nargs="?")
    parser.add_argument("out", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eigen-cases", type=int, default=300)
    parser.add_argument("--threshold-cases", type=int, default=300)
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(a, b)
    if not (args.src and args.out):
        parser.error("give SRC and OUT, or --compare A B")
    sys.path.insert(0, str(Path(args.src).resolve()))
    result = digest(args.seed, args.eigen_cases, args.threshold_cases)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
