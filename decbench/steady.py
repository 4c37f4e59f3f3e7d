"""Steadiness check: run one workload several times, in fresh processes and on
distinct seeds, and print each end-to-end metric's median, quartiles and
spread beside its bound from BENCHMARK.json.

    python3 decbench/steady.py --workload relations-float --runs 10 --first-seed 1

The spread is (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``.  ``--work`` also runs one traced
round per seed and prints the work that seed generated: LP solves per
decision and the mean LP size as posed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int,
             rounds: int = 0) -> tuple[dict, str]:
    """(result line, last line of standard error) of one run.py process."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if res.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {res.returncode}: {res.stderr.strip()}")
    err = res.stderr.strip().splitlines()
    return json.loads(res.stdout.strip().splitlines()[-1]), err[-1] if err else ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length; default run_seconds from BENCHMARK.json")
    p.add_argument("--work", action="store_true", help="also report the work per seed")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        out, err = run_once(args.workload, seed, seconds, 0)
        results.append((seed, out))
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
        print(f"seed {seed}: correct={out['correct']} attempted={out['attempted']} "
              f"failed={out['failed']} {vals}\n  {err}", flush=True)
        if args.work:
            w = run_once(args.workload, seed, seconds, 1, rounds=1)[0]["metrics"]
            print(f"  work per round: lp.solves/decision={w['lp.solves']['value']:.3f} "
                  f"rows={w['lp.rows']['value']:.2f} cols={w['lp.cols']['value']:.2f} "
                  f"nonzeros={w['lp.nonzeros']['value']:.2f}", flush=True)

    shares = {f"{o['failed']}/{o['attempted']}" for _, o in results}
    ratios = {o["failed"] / o["attempted"] for _, o in results}
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}; failed share "
          f"{'identical' if len(ratios) == 1 else 'DIFFERS'} ({', '.join(sorted(shares))})")
    print(f"{'metric':18s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} "
          f"{'bound':>6s} {'spread/bound':>12s}")
    for name in results[0][1]["metrics"]:
        values = [o["metrics"][name]["value"] for _, o in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        rel = f"{spread / bound:12.2f}" if bound else f"{'-':>12s}"
        print(f"{name:18s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{bound if bound else '-':>6} {rel}")
    return 0 if all(o["correct"] for _, o in results) else 1


if __name__ == "__main__":
    sys.exit(main())
