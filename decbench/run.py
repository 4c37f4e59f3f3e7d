"""Run one workload of the gptwb decision benchmark.

    python3 decbench/run.py --workload relations-float --seed 1 --seconds 25 --trace 0

Sends one decision at a time, from this single process, into gptwb's public
functions, checks every answer with the benchmark's own arithmetic
(``check``), and prints one JSON line last: ``correct``, ``attempted``,
``failed`` and the metrics.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".decbench_out")
SETUP_PROBES = 11

import hostspeed  # noqa: E402  (none of these imports a gptwb module)
import spans  # noqa: E402
import workloads  # noqa: E402


class Run(NamedTuple):
    """One run of one decision."""
    n_pass: int
    round: int
    family: str
    space: str
    planted: str
    outcome: str      # "ok" | "wrong" | "inconclusive" | "error"
    verdict: str
    seconds: float
    search: bool


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=0,
                   help="run one pass over this many rounds instead of --seconds")
    p.add_argument("--setup-probe", action="store_true",
                   help="print one fresh process's set-up and host-kernel seconds, then exit")
    return p.parse_args(argv)


def _use_source() -> None:
    pkg = os.path.join(SRC, "gptwb")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"error: gptwb source not found at {pkg}")
    sys.path.insert(0, SRC)


def setup_probe(name: str) -> tuple[float, float]:
    """(seconds for ``import gptwb`` plus building the workload's spaces and
    their cached geometry, host kernel seconds), in this fresh process."""
    kernel = hostspeed.sample()
    t0 = time.perf_counter()
    prog = workloads.Program()
    wl = workloads.make(name, OUT_DIR)
    wl.setup(prog)
    return time.perf_counter() - t0, kernel


def probe_setup(name: str, count: int) -> list:
    """``setup_probe`` in ``count`` fresh processes, run one after another."""
    out = []
    for _ in range(count):
        res = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                              "--setup-probe"], capture_output=True, text=True, timeout=120,
                             check=True)
        setup_s, kernel_s = map(float, res.stdout.split())
        out.append((setup_s, kernel_s))
    return out


def round_rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{name}/{index}")


def draw(wl, name: str, seed: int, rounds: int = 0) -> list:
    """The run's decisions: ``rounds`` (default: the workload's) rounds drawn
    from the seed."""
    return [wl.round(round_rng(seed, name, i)) for i in range(rounds or wl.rounds)]


def run_passes(batches: list, seconds: float, once: bool = False, tracer=None):
    """Pass over all drawn rounds, one decision at a time, until ``seconds``
    have passed at the end of a pass (or after one pass).  Returns the runs
    and the host kernel times sampled before every round."""
    # the drawn inputs live for the whole run; keep the collector from
    # rescanning them while it times the program's own allocations
    gc.collect()
    gc.freeze()
    runs, kernel = [], []
    start = time.perf_counter()
    n_pass = 0
    while True:
        for index, batch in enumerate(batches):
            kernel.append(hostspeed.sample())
            for dec in batch:
                root = tracer.open(spans.DECISION, dec.family) if tracer else None
                t0 = time.perf_counter()
                try:
                    result = dec.call()
                    error = None
                except Exception as exc:  # a decision that raises is a failed decision
                    error = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.close(root)
                outcome, verdict = dec.judge(result) if error is None else ("error", error)
                runs.append(Run(n_pass, index, dec.family, dec.space, dec.planted, outcome,
                                verdict, dt, dec.search))
        n_pass += 1
        if once or time.perf_counter() - start >= seconds:
            gc.unfreeze()
            return runs, kernel


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def decision_times(runs) -> list:
    """Each decision's median time over the passes: a slow spell of a few
    seconds moves a minority of a decision's runs, not its median."""
    passes = 1 + runs[-1].n_pass
    per_pass = len(runs) // passes
    return [statistics.median(runs[p * per_pass + i].seconds for p in range(passes))
            for i in range(per_pass)]


def end_to_end(runs, scale: float, setup_s: float) -> dict:
    """The end-to-end metrics, decision times multiplied by ``scale``."""
    ok_per_pass = sum(r.outcome == "ok" for r in runs) / (1 + runs[-1].n_pass)
    times = [t * scale for t in decision_times(runs)]
    times_ms = [t * 1e3 for t in times]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "verdicts_per_s": {"value": ok_per_pass / sum(times), "unit": "1/s"},
        "decision_p50_ms": {"value": quantile(times_ms, 0.5), "unit": "ms"},
        "decision_p90_ms": {"value": quantile(times_ms, 0.9), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def per_layer(runs, tracer, scale: float) -> dict:
    """The per-layer metrics of a traced run, times multiplied by ``scale``."""
    n = len(runs)
    layers = tracer.summary(spans.DECISION)
    setup = tracer.summary(spans.SETUP)

    def st(layer, key, source=layers):
        return source.get(layer, {}).get(key, 0)

    solves = st("lp", "calls")
    sizes = tracer.lp_sizes
    comm_decisions = len(st("communication", "roots") or ())
    searched = [r for r in runs if r.search]
    metrics = {
        "lp.solves": (solves / n, "count/decision"),
        "lp.busy_s": (st("lp", "busy_ns") * scale / 1e9 / n, "s/decision"),
        "lp.ms_per_solve": (st("lp", "busy_ns") * scale / 1e6 / solves if solves else 0.0, "ms"),
        "lp.rows": (statistics.fmean(s[0] for s in sizes) if sizes else 0.0, "count"),
        "lp.cols": (statistics.fmean(s[1] for s in sizes) if sizes else 0.0, "count"),
        "lp.nonzeros": (statistics.fmean(s[2] for s in sizes) if sizes else 0.0, "count"),
        "communication.lps_per_decision": (
            st("communication", "lps_below") / comm_decisions if comm_decisions else 0.0,
            "count/decision"),
        "communication.hit_ratio": (
            sum(r.outcome == "ok" for r in searched) / len(searched) if searched else 0.0,
            "ratio"),
        "linalg.calls": (st("linalg", "calls") / n, "count/decision"),
        "linalg.busy_s": (st("linalg", "busy_ns") * scale / 1e9 / n, "s/decision"),
        "spaces.busy_s": (st("spaces", "busy_ns") * scale / 1e9 / n, "s/decision"),
        "observables.busy_s": (st("observables", "busy_ns") * scale / 1e9 / n, "s/decision"),
        "setup.linalg_s": (st("linalg", "busy_ns", setup) * scale / 1e9, "s"),
        "setup.spaces_s": (st("spaces", "busy_ns", setup) * scale / 1e9, "s"),
    }
    for layer in ("postprocess", "simulation", "compatibility", "communication", "cli"):
        metrics[f"{layer}.self_s"] = (st(layer, "self_ns") * scale / 1e9 / n, "s/decision")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    _use_source()
    if args.setup_probe:
        print(*setup_probe(args.workload))
        return 0
    compileall.compile_dir(os.path.join(SRC, "gptwb"), quiet=1)
    os.makedirs(OUT_DIR, exist_ok=True)
    # half the set-up probes run before the decisions and half after, so
    # that they sample the host over the whole run
    probes = [] if args.trace else probe_setup(args.workload, SETUP_PROBES // 2)

    prog = workloads.Program()
    wl = workloads.make(args.workload, OUT_DIR)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        root = tracer.open(spans.SETUP, args.workload)
    wl.setup(prog)
    if tracer:
        tracer.close(root)
    wl.prepare(prog)
    runs, kernel = run_passes(draw(wl, args.workload, args.seed, args.rounds), args.seconds,
                              bool(args.rounds), tracer)
    scale = hostspeed.scale(kernel)

    failed = [r for r in runs if r.outcome != "ok"]
    for r in failed:
        if r.outcome != "inconclusive":
            print(f"failed: round {r.round} {r.family} {r.space} planted {r.planted}: "
                  f"{r.outcome} {r.verdict}", file=sys.stderr)
    correct = all(r.outcome in ("ok", "inconclusive") for r in runs)
    if tracer:
        metrics = per_layer(runs, tracer, scale)
        tracer.uninstall()
        traced = end_to_end(runs, scale, 0.0)
        # the traced run's own timings, for the tracing overhead
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"), {
            "decisions": len(runs), "host_scale": scale,
            **{k: traced[k]["value"] for k in ("verdicts_per_s", "decision_p50_ms",
                                                "decision_p90_ms")}})
    else:
        probes += probe_setup(args.workload, SETUP_PROBES - len(probes))
        setup_raw = statistics.median(s for s, _ in probes)
        setup_s = setup_raw * hostspeed.scale([k for _, k in probes])
        metrics = end_to_end(runs, scale, setup_s)
        raw = end_to_end(runs, 1.0, setup_raw)
        print("unscaled: " + " ".join(f"{k}={raw[k]['value']:.6g}" for k in
                                      ("verdicts_per_s", "decision_p50_ms", "decision_p90_ms",
                                       "setup_s")) + f" host_scale={scale:.4f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
