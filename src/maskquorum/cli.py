"""Command-line front end.

Construction specs are given either as a path to a JSON file or as an inline
JSON string, using the canonical encoding:

    {"MGrid": {"side": 32, "b": 15}}      {"Threshold": {"k": 3, "ell": 2}}
    {"RT": {"k": 4, "ell": 3, "h": 5}}    {"FPP": {"q": 3}}
    {"BoostFPP": {"q": 3, "b": 19}}       {"MPath": {"side": 32, "b": 7}}
    {"Composed": {"outer": ..., "inner": ...}}

Subcommands: params, load, fp, compose, table8, oracle.  Exit codes: 0 on
success, 2 for parameter/applicability errors, 3 for size errors, 4 when the
oracle subcommand finds a mismatch.  Probability estimates and bounds are
printed with 6 significant digits; `params` prints the load at full precision
so its JSON output re-parses to the identical record.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .analysis import LP_MAX_QUORUMS, check_masking, combinatorial_params, is_fair, load_lp
from .availability import EstimateResult, crash_prob_exact, crash_prob_mc
from .constructions import build
from .core import (
    BoostFPPSpec,
    ComposedSpec,
    ConstructionSpec,
    MGridSpec,
    MPathSpec,
    Rng,
    RTSpec,
    spec_from_json,
    spec_to_json,
)
from .errors import MaskQuorumError, ParameterError, SizeError

# The published comparison point reports the crossing-paths resilience as 29;
# a_min - 1 = 28 for side 32, r 4, and that is what this package reports.
RESILIENCE_NOTE = (
    "MPath(32,7): f = a_min - 1 = 28; the published table prints 29 for this row."
)

# The published comparison: each system, the direction and name of its
# published bound, and the value the table prints at p = 1/8.
_TABLE8_ROWS = [
    (MGridSpec(side=32, b=15), "lower", "mgrid_fp_lower", 0.638),
    (RTSpec(k=4, ell=3, h=5), "upper", "rt_fp_upper", 0.0001),
    (BoostFPPSpec(q=3, b=19), "upper", "boostfpp_fp_upper", 0.372),
    (MPathSpec(side=32, b=7), "upper", "mpath_fp_upper", 0.001),
]


def _fmt6(x: float | None) -> float | None:
    return None if x is None else float(f"{x:.6g}")


def _load_spec(arg: str) -> ConstructionSpec:
    text = arg
    path = Path(arg)
    try:
        if path.is_file():
            text = path.read_text()
    except OSError:
        pass
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise ParameterError(f"spec is neither a readable file nor valid JSON: {exc}") from exc
    return spec_from_json(obj)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_params(args: argparse.Namespace) -> int:
    handle = build(_load_spec(args.spec))
    _emit(handle.params.to_dict())
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    handle = build(_load_spec(args.spec))
    try:
        value, _ = load_lp(handle.materialize(LP_MAX_QUORUMS))
        method = "lp"
    except SizeError:  # too many quorums to list, or past the LP's limits
        value, method = handle.params.load, "analytic"
    _emit({"n": handle.n, "method": method, "load": _fmt6(value)})
    return 0


def _estimate_dict(est: EstimateResult) -> dict:
    out = {"value": _fmt6(est.value), "kind": est.kind, "route": est.route}
    if est.kind == "monte_carlo":
        out.update(trials=est.trials, std_error=_fmt6(est.std_error), seed=est.seed)
    return out


def _cmd_fp(args: argparse.Namespace) -> int:
    # Neither mode: exact where the handle has a route, else Monte Carlo.
    handle = build(_load_spec(args.spec))
    p = args.p
    est = None
    if not args.mc:
        try:
            est = crash_prob_exact(handle, p)
        except SizeError as exc:
            if args.exact:
                raise
            logging.getLogger("maskquorum").debug(
                "fp: no exact route, falling back to monte_carlo: %s", exc)
    if est is None:
        est = crash_prob_mc(handle, p, trials=args.trials, seed=args.seed,
                            workers=args.workers)
    out = {"p": p, "estimate": _estimate_dict(est)}
    if args.bounds:
        bounds = handle.published_bounds(p, args.p_prime)
        out["bounds"] = {k: v if k == "inapplicable" else _fmt6(v) for k, v in bounds.items()}
    _emit(out)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    composed = build(ComposedSpec(_load_spec(args.outer), _load_spec(args.inner)))
    out: dict = {"params": composed.params.to_dict()}
    try:
        system = composed.materialize(10 ** 4)
        out["explicit"] = {
            "n": system.n,
            "quorum_count": system.m,
            "quorums": [sorted(q.members()) for q in system.quorums],
        }
    except SizeError:  # more than 10^4 quorums: the params alone
        pass
    _emit(out)
    return 0


def _table8_rows(p: float) -> list[dict]:
    # The published MPath value is the crossing-paths bound taken at p' = 1/7,
    # so the published point uses that p'; elsewhere the handle's default.
    published_point = p == 0.125
    p_prime = 1.0 / 7.0 if published_point else None
    rows = []
    for spec, kind, bound, paper_value in _TABLE8_ROWS:
        handle = build(spec)
        params = handle.params
        try:
            fp_exact = _fmt6(crash_prob_exact(handle, p).value)
        except SizeError:  # no closed form, and too large to enumerate
            fp_exact = None
        [(tag, fields)] = spec_to_json(spec).items()
        rows.append({
            "system": "-".join([tag] + [str(v) for v in fields.values()]),
            "n": params.n,
            "b": params.b,
            "f": params.f,
            "load": _fmt6(params.load),
            "fp_kind": kind,
            "fp_value": _fmt6(handle.published_bounds(p, p_prime).get(bound)),
            "paper_value": paper_value if published_point else None,
            "fp_exact": fp_exact,
        })
    return rows


def _cmd_table8(args: argparse.Namespace) -> int:
    rows = _table8_rows(args.p)
    if args.format == "json":
        _emit({"p": args.p, "n": 1024, "rows": rows, "notes": [RESILIENCE_NOTE]})
        return 0
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["system", "n", "b", "f", "load", "fp_kind", "fp_value", "paper_value",
              "fp_exact"]
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if row[k] is None else row[k] for k in header])
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    handle = build(spec)
    params = handle.params
    system = handle.materialize(10 ** 5)
    mismatches: list[str] = []

    # A sub-system need only clear i_min >= 2b+1, which check_masking checks.
    brute = combinatorial_params(system)
    exact = [("c", brute.c, params.c), ("a_min", brute.a_min, params.a_min)]
    if handle.lists_every_quorum:
        exact.append(("i_min", brute.i_min, params.i_min))
    mismatches += [f"{name}: brute {got} != analytic {want}"
                   for name, got, want in exact if got != want]

    masking = check_masking(system, params.b)
    if masking.violating_pair is not None:
        i, j = masking.violating_pair
        common = len(system.quorums[i] & system.quorums[j])
        mismatches.append(f"masking check failed at b={params.b}: quorums {i} and {j} "
                          f"share {common} elements, masking needs 2b+1 = {2 * params.b + 1}")
    elif not masking:
        mismatches.append(f"masking check failed at b={params.b}: crash set "
                          f"{list(masking.blocking_set.members())} hits every quorum")

    rng = Rng(args.seed)
    gen = rng.generator()
    n = system.n
    trials = 200
    probs = np.array([0.2, 0.5, 0.8])[np.arange(trials) % 3]
    alive = gen.random((trials, n)) >= probs[:, None]
    handle_live = handle.live_batch(alive)
    explicit_live = system.live_batch(alive)
    for trial in np.flatnonzero(handle_live != explicit_live):
        if explicit_live[trial]:
            mismatches.append(f"live: quorum alive but handle dead (trial {trial})")
        elif handle.lists_every_quorum:
            mismatches.append(f"live: handle alive but no quorum alive (trial {trial})")
    if not handle.live_batch(handle.sample_quorums(gen, 100)).all():
        mismatches.append("sampled quorum is not live")

    # A fair system's load is s/n (Naor & Wool); the tolerance absorbs the
    # ulp a composition's product of part loads can be off by.
    fair = is_fair(system)
    if fair and abs(params.load - fair.s / n) > 1e-9:
        mismatches.append(f"load: analytic {params.load} != s/n {fair.s / n} "
                          "of the fair system")

    if mismatches:
        for line in mismatches:
            print(f"oracle mismatch: {line}", file=sys.stderr)
        return 4
    _emit({"spec": spec_to_json(spec), "quorums": system.m, "ok": True})
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskquorum",
        description="Masking quorum systems: parameters, load, and crash probability.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="print a construction's parameters as JSON")
    p_params.add_argument("spec")
    p_params.set_defaults(fn=_cmd_params)

    p_load = sub.add_parser("load", help="exact LP load (materialized) or analytic load")
    p_load.add_argument("spec")
    p_load.set_defaults(fn=_cmd_load)

    p_fp = sub.add_parser("fp", help="crash probability estimate and bounds")
    p_fp.add_argument("spec")
    p_fp.add_argument("--p", type=float, required=True)
    mode = p_fp.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--mc", action="store_true")
    p_fp.add_argument("--trials", type=int, default=10 ** 5)
    p_fp.add_argument("--seed", type=int, default=0)
    p_fp.add_argument("--workers", type=int, default=None,
                      help="MC parallelism (default: CPU count)")
    p_fp.add_argument("--bounds", action="store_true")
    p_fp.add_argument("--p-prime", type=float, default=None,
                      help="reference probability for the crossing-paths bound")
    p_fp.set_defaults(fn=_cmd_fp)

    p_compose = sub.add_parser("compose", help="compose two constructions")
    p_compose.add_argument("outer")
    p_compose.add_argument("inner")
    p_compose.set_defaults(fn=_cmd_compose)

    p_table = sub.add_parser(
        "table8",
        help="the n=1024, p=1/8 comparison of the four constructions "
             "against their published values")
    p_table.add_argument("--p", type=float, default=0.125)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(fn=_cmd_table8)

    p_oracle = sub.add_parser("oracle", help="materialize and run brute-force cross-checks")
    p_oracle.add_argument("spec")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MaskQuorumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
