"""Command-line front end.

Subcommands: ``tables`` regenerates the reference tables (physical dimensions,
irreducible counts, noise bounds), ``check`` runs a relation decision on input
files, ``comm`` reports communication-matrix monotones or compares two
matrices.  Exit codes: 0 = yes, 1 = no, 2 = inconclusive, 3+ = error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .communication import (
    CommMatrix,
    comm_matrix,
    monotones,
    space_dims,
    ultraweak_leq,
)
from .compatibility import are_compatible, fc_noise_lower_bound
from .numerics import EXACT, Context
from .observables import Observable, observable_from_json
from .postprocess import find_postprocessing
from .simulation import enumerate_irreducibles, is_simulable
from .spaces import StateSpace, UnsupportedSpace, space_from_ref

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = 1e-9
    seed: int = 0
    backend: str = "float"
    fmt: str = "json"
    out: str | None = None

    def context(self) -> Context:
        return EXACT if self.backend == "exact" else Context("float", self.tolerance)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for verdicts
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_ERROR)


def _add_common(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # subparsers get SUPPRESS defaults so a flag given before the subcommand
    # is not clobbered by the subparser's own default
    def dflt(v):
        return argparse.SUPPRESS if suppress else v

    parser.add_argument("--tolerance", type=float, default=dflt(1e-9))
    parser.add_argument("--seed", type=int, default=dflt(0))
    parser.add_argument("--backend", choices=["float", "exact"], default=dflt("float"))
    parser.add_argument("--format", dest="fmt", choices=["json", "csv", "text"],
                        default=dflt("json"))
    parser.add_argument("--out", default=dflt(None))


def _build_parser() -> _Parser:
    p = _Parser(prog="gptwb", description=__doc__)
    _add_common(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="regenerate reference tables")
    _add_common(t, suppress=True)
    t.add_argument("which", choices=["dims", "irreducibles", "noise_bounds"])

    c = sub.add_parser("check", help="decide a relation between inputs")
    _add_common(c, suppress=True)
    c.add_argument("relation", choices=["postprocess", "sim", "compat", "ultraweak"])
    c.add_argument("inputs", nargs="*")
    c.add_argument("--simulators", default=None,
                   help="comma list of observable files, or irr(<space literal>)")

    m = sub.add_parser("comm", help="monotone report or majorization comparison")
    _add_common(m, suppress=True)
    m.add_argument("args", nargs="+", help="MATRIX, or: compare D C")
    return p


def _emit(config: RunConfig, payload: dict) -> None:
    rows = payload.get("rows")
    if config.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    elif rows is not None:
        text = _table(rows, "," if config.fmt == "csv" else "\t")
    elif config.fmt == "csv":
        text = json.dumps(payload, sort_keys=True, default=_jsonable)
    else:
        text = "\n".join(f"{k}: {v}" for k, v in sorted(payload.items()))
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"not serializable: {type(x)}")


def _table(rows: list[dict], sep: str) -> str:
    """A header line and one line per row, fields joined by ``sep``."""
    header = list(rows[0])
    return "\n".join(sep.join(map(str, line))
                     for line in [header] + [[row[h] for h in header] for row in rows])


# ------------------------------------------------------------------- loading
def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_observable(path: str, config: RunConfig) -> Observable:
    return observable_from_json(_load_json(path), config.context())


def _load_comm(path: str, config: RunConfig) -> CommMatrix:
    ctx = config.context()
    if path.endswith(".json"):
        data = _load_json(path)
        rows = data["matrix"] if isinstance(data, dict) else data
        return comm_matrix(rows, ctx)
    with open(path) as fh:
        rows = [line.split(",") for line in map(str.strip, fh) if line]
    return comm_matrix(rows, ctx)


def _resolve_simulators(selector: str, config: RunConfig, space: StateSpace):
    selector = selector.strip()
    if selector.startswith("irr(") and selector.endswith(")"):
        ref = selector[4:-1]
    else:
        return [_load_observable(p, config) for p in selector.split(",") if p]
    target = space_from_ref(ref, config.context()) if ref else space
    return list(enumerate_irreducibles(target))


# ------------------------------------------------------------------ commands
def cmd_tables(which: str, config: RunConfig) -> int:
    ctx = config.context()
    if which == "dims":
        rows, skipped = [], []
        for ref in [f"classical:{d}" for d in range(1, 6)] + \
                   [f"polygon:{n}" for n in range(3, 10)]:
            try:
                sp = space_from_ref(ref, ctx)
            except UnsupportedSpace:  # polygon:n on the exact backend
                skipped.append(ref)
                continue
            dims = space_dims(sp)
            rows.append({"space": ref, "d_op": dims.d_op,
                         "lambda_max": round(dims.lambda_max, 9),
                         "d_lin": dims.d_lin,
                         "d_cl_lower": dims.d_cl_lo, "d_cl_is_bound": True,
                         "d_q_lower": dims.d_q_lo, "d_q_is_bound": True})
        _emit(config, {"table": "dims", "rows": rows} | ({"skipped": skipped} if skipped else {}))
        return EXIT_YES
    if which == "irreducibles":
        rows = []
        for n in range(4, 10):
            sp = space_from_ref(f"polygon:{n}", ctx)
            irr = enumerate_irreducibles(sp)
            di = sum(1 for o in irr if o.n_outcomes == 2)
            tri = sum(1 for o in irr if o.n_outcomes == 3)
            m = n // 2
            if n % 2 == 0:
                f_di, f_tri = m, m * (m - 1) * (m - 2) // 3
            else:
                f_di, f_tri = 0, m * (m + 1) * (2 * m + 1) // 6
            rows.append({"n": n, "dichotomic": di, "trichotomic": tri,
                         "formula_dichotomic": f_di, "formula_trichotomic": f_tri,
                         "match": di == f_di and tri == f_tri})
        _emit(config, {"table": "irreducibles", "rows": rows})
        return EXIT_YES
    rows = [{"n": n, "noise_lower_bound": round(fc_noise_lower_bound(n), 6)}
            for n in range(5, 14, 2)]
    _emit(config, {"table": "noise_bounds", "rows": rows})
    return EXIT_YES


def cmd_check(relation: str, inputs: list[str], simulators: str | None,
              config: RunConfig) -> int:
    if relation == "postprocess":
        if len(inputs) != 2:
            raise ValueError("check postprocess SOURCE TARGET")
        src, tgt = [_load_observable(p, config) for p in inputs]
        nu = find_postprocessing(src, tgt)
        _emit(config, {"relation": "postprocess", "verdict": nu is not None,
                       "witness": nu})
        return EXIT_YES if nu is not None else EXIT_NO
    if relation == "sim":
        if len(inputs) != 1 or not simulators:
            raise ValueError("check sim TARGET --simulators ...")
        tgt = _load_observable(inputs[0], config)
        sims = _resolve_simulators(simulators, config, tgt.space)
        witness = is_simulable(tgt, sims)
        payload = {"relation": "sim", "verdict": witness is not None}
        if witness is not None:
            payload["witness"] = {"weights": witness.weights,
                                  "matrices": witness.matrices}
        _emit(config, payload)
        return EXIT_YES if witness is not None else EXIT_NO
    if relation == "compat":
        if len(inputs) < 2:
            raise ValueError("check compat OBS OBS [OBS ...]")
        joint = are_compatible([_load_observable(p, config) for p in inputs])
        payload = {"relation": "compat", "verdict": joint is not None}
        if joint is not None:
            payload["joint"] = {"outcomes": [list(z) for z in joint.outcomes],
                                "effects": joint.effects}
        _emit(config, payload)
        return EXIT_YES if joint is not None else EXIT_NO
    if relation == "ultraweak":
        if len(inputs) != 2:
            raise ValueError("check ultraweak D C")
        return _ultraweak_report(inputs[0], inputs[1], config, {"relation": "ultraweak"})
    raise ValueError(f"unknown relation {relation!r}")


def _ultraweak_report(d_path: str, c_path: str, config: RunConfig, payload: dict) -> int:
    """Decide D <= C (ultraweak) and emit the verdict, with the violated
    monotone or the witness, into ``payload``."""
    d = _load_comm(d_path, config)
    c = _load_comm(c_path, config)
    res = ultraweak_leq(d, c, seed=config.seed)
    payload["verdict"] = res.verdict
    if res.violated:
        payload["violated"] = res.violated
    if res.left is not None:
        payload["left"] = res.left
        payload["right"] = res.right
    _emit(config, payload)
    return {"yes": EXIT_YES, "no": EXIT_NO}.get(res.verdict, EXIT_INCONCLUSIVE)


def cmd_comm(args: list[str], config: RunConfig) -> int:
    if args[0] == "compare":
        if len(args) != 3:
            raise ValueError("comm compare D C")
        return _ultraweak_report(args[1], args[2], config, {})
    if len(args) != 1:
        raise ValueError("comm MATRIX | comm compare D C")
    cm = _load_comm(args[0], config)
    rep = monotones(cm, seed=config.seed)
    _emit(config, {"iota": rep.iota, "lambda_max": float(rep.lambda_max),
                   "lambda_min": float(rep.lambda_min), "rank": rep.rank,
                   "nn_rank": list(rep.nn_rank), "psd_rank": list(rep.psd_rank)})
    return EXIT_YES


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    seed = ns.seed
    env_seed = os.environ.get("GPTWB_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    config = RunConfig(tolerance=ns.tolerance, seed=seed, backend=ns.backend,
                       fmt=ns.fmt, out=ns.out)
    try:
        if ns.command == "tables":
            return cmd_tables(ns.which, config)
        if ns.command == "check":
            return cmd_check(ns.relation, ns.inputs, ns.simulators, config)
        if ns.command == "comm":
            return cmd_comm(ns.args, config)
    except Exception as exc:  # uniform error contract for scripts
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
