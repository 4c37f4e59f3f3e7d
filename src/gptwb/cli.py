"""Command-line front end.

Subcommands: ``tables`` regenerates the reference tables (physical dimensions,
irreducible counts, noise bounds), ``check`` runs a relation decision on input
files, ``comm`` reports communication-matrix monotones or compares two
matrices.  The exit code follows the report's verdict: 0 = yes or none (tables,
monotones), 1 = no, 2 = inconclusive, 3+ = error.  ``--tolerance`` must be finite
and at least 1e-12 on either backend, and ``GPTWB_SEED`` (overrides ``--seed``)
an integer.  An input file that holds no observable or no row-stochastic
matrix is an error naming the file.  Text reports print each value as JSON
does.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from .communication import (
    CommMatrix,
    comm_matrix,
    monotones,
    space_dims,
    ultraweak_leq,
)
from .compatibility import are_compatible, fc_noise_lower_bound
from .numerics import BACKENDS, EXACT, Context, Validated
from .observables import Observable, observable_from_json, validation_errors
from .postprocess import find_postprocessing
from .simulation import enumerate_irreducibles, is_simulable
from .spaces import StateSpace, UnsupportedSpace, space_from_ref

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3
# a report's verdict to its exit code; any other verdict, or none, is EXIT_YES
_EXIT_CODES = {False: EXIT_NO, "no": EXIT_NO, "inconclusive": EXIT_INCONCLUSIVE}
FORMATS = ("json", "csv", "text")


class _RunConfigFields(NamedTuple):
    tolerance: float
    seed: int
    backend: str
    fmt: str
    out: str | None


class RunConfig(Validated, _RunConfigFields):
    __slots__ = ()

    def __new__(cls, tolerance: float = 1e-9, seed: int = 0, backend: str = "float",
                fmt: str = "json", out: str | None = None):
        self = tuple.__new__(cls, (tolerance, seed, backend, fmt, out))
        for name, value, choices in (("backend", backend, BACKENDS), ("format", fmt, FORMATS)):
            if value not in choices:
                raise ValueError(f"unknown {name} {value!r}; use one of {choices}")
        # the float backend's tolerance check, run on both backends, so that
        # the exact backend refuses what the float backend refuses
        Context("float", self.tolerance)
        return self

    def context(self) -> Context:
        return EXACT if self.backend == "exact" else Context("float", self.tolerance)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for verdicts
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_ERROR)


def _build_parser() -> _Parser:
    # the global flags go before or after the subcommand; suppressed defaults keep
    # the subcommand from clobbering a flag given before it, and leave RunConfig's
    # defaults the only ones
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--tolerance", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--backend", choices=BACKENDS)
    common.add_argument("--format", dest="fmt", choices=FORMATS)
    common.add_argument("--out")

    p = _Parser(prog="gptwb", description=__doc__, parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", parents=[common], help="regenerate reference tables")
    t.add_argument("which", choices=["dims", "irreducibles", "noise_bounds"])
    t.set_defaults(run=lambda ns, config: cmd_tables(ns.which, config))

    c = sub.add_parser("check", parents=[common], help="decide a relation between inputs")
    c.add_argument("relation", choices=["postprocess", "sim", "compat", "ultraweak"])
    c.add_argument("inputs", nargs="*")
    c.add_argument("--simulators", default=None,
                   help="comma list of observable files, or irr(<space literal>)")
    c.set_defaults(run=lambda ns, config: cmd_check(ns.relation, ns.inputs, ns.simulators, config))

    m = sub.add_parser("comm", parents=[common], help="monotone report or majorization comparison")
    m.add_argument("args", nargs="+", help="MATRIX, or: compare D C")
    m.set_defaults(run=lambda ns, config: cmd_comm(ns.args, config))
    return p


def _emit(config: RunConfig, payload: dict) -> None:
    rows = payload.get("rows")
    dumps = functools.partial(json.dumps, sort_keys=True, default=_jsonable)
    if config.fmt == "json":
        text = dumps(payload, indent=2)
    elif rows is not None:
        text = _table(rows, "," if config.fmt == "csv" else "\t")
    elif config.fmt == "csv":
        text = dumps(payload)
    else:
        text = "\n".join(f"{k}: {dumps(v)}" for k, v in sorted(payload.items()))
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


@contextlib.contextmanager
def _naming(path: str):
    """Prefix every ValueError, missing key or unsupported space raised
    inside with the file's path."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (ValueError, UnsupportedSpace) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_observable(path: str, config: RunConfig) -> Observable:
    """The observable in a file; ValueError naming the file when it is not
    one at ``--tolerance`` (construction refuses effects that do not sum to
    u, and on the exact backend invalid effects)."""
    with _naming(path):
        obs = observable_from_json(_load_json(path), config.context())
        errors = validation_errors(obs)
        if errors:
            raise ValueError("invalid observable: " + "; ".join(errors))
    return obs


def _load_comm(path: str, config: RunConfig) -> CommMatrix:
    """The matrix in a CSV or JSON file; ValueError naming the file when it
    is no communication matrix."""
    with _naming(path):
        if path.endswith(".json"):
            rows = _load_json(path)
            if isinstance(rows, dict):
                if "matrix" not in rows:
                    raise ValueError("a matrix object needs a \"matrix\" key")
                rows = rows["matrix"]
        else:
            with open(path) as fh:
                rows = [line.split(",") for line in map(str.strip, fh) if line]
        return comm_matrix(rows, config.context())


def _resolve_simulators(selector: str, config: RunConfig, space: StateSpace):
    selector = selector.strip()
    if selector.startswith("irr(") and selector.endswith(")"):
        ref = selector[4:-1]
    else:
        return [_load_observable(p, config) for p in selector.split(",") if p]
    target = space_from_ref(ref, config.context()) if ref else space
    return list(enumerate_irreducibles(target))


# ------------------------------------------------------------------ commands
def cmd_tables(which: str, config: RunConfig) -> dict:
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
        return {"table": "dims", "rows": rows} | ({"skipped": skipped} if skipped else {})
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
        return {"table": "irreducibles", "rows": rows}
    rows = [{"n": n, "noise_lower_bound": round(fc_noise_lower_bound(n), 6)}
            for n in range(5, 14, 2)]
    return {"table": "noise_bounds", "rows": rows}


def cmd_check(relation: str, inputs: list[str], simulators: str | None,
              config: RunConfig) -> dict:
    if relation == "postprocess":
        if len(inputs) != 2:
            raise ValueError("check postprocess SOURCE TARGET")
        src, tgt = [_load_observable(p, config) for p in inputs]
        nu = find_postprocessing(src, tgt)
        return {"relation": "postprocess", "verdict": nu is not None, "witness": nu}
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
        return payload
    if relation == "compat":
        if len(inputs) < 2:
            raise ValueError("check compat OBS OBS [OBS ...]")
        joint = are_compatible([_load_observable(p, config) for p in inputs])
        payload = {"relation": "compat", "verdict": joint is not None}
        if joint is not None:
            payload["joint"] = {"outcomes": [list(z) for z in joint.outcomes],
                                "effects": joint.effects}
        return payload
    if len(inputs) != 2:
        raise ValueError("check ultraweak D C")
    return {"relation": "ultraweak"} | _ultraweak_report(inputs, config)


def _ultraweak_report(paths: list[str], config: RunConfig) -> dict:
    """Decide D <= C (ultraweak) for the files ``paths`` = [D, C]: the verdict,
    with the violated monotone or the witness."""
    d, c = [_load_comm(p, config) for p in paths]
    res = ultraweak_leq(d, c, seed=config.seed)
    payload = {"verdict": res.verdict}
    if res.violated:
        payload["violated"] = res.violated
    if res.left is not None:
        payload["left"] = res.left
        payload["right"] = res.right
    return payload


def cmd_comm(args: list[str], config: RunConfig) -> dict:
    if args[0] == "compare":
        if len(args) != 3:
            raise ValueError("comm compare D C")
        return _ultraweak_report(args[1:], config)
    if len(args) != 1:
        raise ValueError("comm MATRIX | comm compare D C")
    cm = _load_comm(args[0], config)
    rep = monotones(cm, seed=config.seed)
    return {"iota": rep.iota, "lambda_max": float(rep.lambda_max),
            "lambda_min": float(rep.lambda_min), "rank": rep.rank,
            "nn_rank": list(rep.nn_rank), "psd_rank": list(rep.psd_rank)}


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    flags = {f: getattr(ns, f) for f in RunConfig._fields if hasattr(ns, f)}
    env_seed = os.environ.get("GPTWB_SEED")
    try:
        if env_seed is not None:
            try:
                flags["seed"] = int(env_seed)
            except ValueError:
                raise ValueError(f"GPTWB_SEED must be an integer, not {env_seed!r}") from None
        config = RunConfig(**flags)
        report = ns.run(ns, config)
        _emit(config, report)
    except Exception as exc:  # uniform error contract for scripts
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    return _EXIT_CODES.get(report.get("verdict"), EXIT_YES)


if __name__ == "__main__":
    sys.exit(main())
