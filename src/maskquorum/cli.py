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
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import check_masking, combinatorial_params, is_fair, load_fair, load_lp
from .availability import (
    EXACT_MAX_N,
    EstimateResult,
    _check_probability,
    boostfpp_fp_upper,
    crash_prob_exact,
    crash_prob_mc,
    fp_lower_bounds,
    mgrid_fp_lower,
    mpath_fp_upper,
    rt_critical_probability,
    rt_fp_upper,
)
from .constructions import (
    BoostFPPSpec,
    ComposedHandle,
    ConstructionSpec,
    MGridSpec,
    MPathSpec,
    RTSpec,
    build,
    spec_from_json,
    spec_to_json,
)
from .core import Rng, validate_explicit
from .errors import (
    ApplicabilityError,
    MaskQuorumError,
    NumericalError,
    ParameterError,
    SizeError,
)

# The published comparison point reports the crossing-paths resilience as 29;
# a_min - 1 = 28 for side 32, r 4, and that is what this package reports.
RESILIENCE_NOTE = (
    "MPath(32,7): f = a_min - 1 = 28; the published table prints 29 for this row."
)

_PAPER_TABLE = {"MGrid": 0.638, "RT": 0.0001, "BoostFPP": 0.372, "MPath": 0.001}


def _fmt6(x: float) -> float:
    return float(f"{x:.6g}")


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
    except json.JSONDecodeError as exc:
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
    params = handle.params
    out: dict = {"n": params.n}
    if handle.quorum_count() <= args.materialize_cap:
        system = handle.materialize(args.materialize_cap)
        value, _ = load_lp(system)
        out["method"] = "lp"
        out["load"] = _fmt6(value)
    else:
        out["method"] = "analytic"
        out["load"] = _fmt6(params.load)
    _emit(out)
    return 0


def _estimate_dict(est: EstimateResult) -> dict:
    out = {"value": _fmt6(est.value), "kind": est.kind}
    if est.kind == "monte_carlo":
        out.update(trials=est.trials, std_error=_fmt6(est.std_error), seed=est.seed)
    return out


def _construction_bounds(spec: ConstructionSpec, p: float, p_prime: float | None) -> dict:
    out: dict = {}
    try:
        if isinstance(spec, MGridSpec):
            out["mgrid_fp_lower"] = _fmt6(mgrid_fp_lower(spec.side, p))
        elif isinstance(spec, RTSpec):
            out["rt_fp_upper"] = _fmt6(rt_fp_upper(spec.k, spec.ell, spec.h, p))
            pc = rt_critical_probability(spec.k, spec.ell, tol=1e-10)
            out["rt_critical_probability"] = _fmt6(pc.value)
        elif isinstance(spec, BoostFPPSpec):
            bound = boostfpp_fp_upper(spec.q, spec.b, p)
            out["boostfpp_fp_upper"] = _fmt6(bound.paper_form)
            out["boostfpp_fp_upper_chernoff"] = _fmt6(bound.chernoff_form)
        elif isinstance(spec, MPathSpec):
            pp = p_prime if p_prime is not None else (p + 1.0 / 3.0) / 2.0
            out["p_prime"] = _fmt6(pp)
            out["mpath_fp_upper"] = _fmt6(mpath_fp_upper(spec.side, spec.b, p, pp))
    except (ApplicabilityError, ParameterError) as exc:
        out["inapplicable"] = str(exc)
    return out


def _cmd_fp(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    handle = build(spec)
    p = args.p
    # Default mode: exact when the enumeration is tractable, Monte Carlo
    # otherwise.  Crossing-path systems with r >= 2 evaluate liveness by
    # batched max-flow, so auto-exact is limited to 2^16 subsets there;
    # --exact still forces full enumeration.
    flow_backed = isinstance(spec, MPathSpec) and spec.r > 1
    auto_exact = handle.n <= (16 if flow_backed else EXACT_MAX_N)
    use_exact = args.exact or (not args.mc and auto_exact)
    if use_exact:
        est = crash_prob_exact(handle, p)
    else:
        est = crash_prob_mc(handle, p, trials=args.trials, seed=args.seed,
                            workers=args.workers)
    out = {"p": p, "estimate": _estimate_dict(est)}
    if args.bounds:
        lower = fp_lower_bounds(handle.params, p)
        out["bounds"] = {
            "p_mt": _fmt6(lower.p_mt),
            "p_c2f": _fmt6(lower.p_c2f),
            "p_f": None if lower.p_f is None else _fmt6(lower.p_f),
        }
        out["bounds"].update(_construction_bounds(spec, p, args.p_prime))
    _emit(out)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    composed = ComposedHandle(build(_load_spec(args.outer)), build(_load_spec(args.inner)))
    out: dict = {"params": composed.params.to_dict()}
    if composed.quorum_count() <= args.materialize_cap:
        system = composed.materialize(args.materialize_cap)
        out["explicit"] = {
            "n": system.n,
            "quorum_count": system.m,
            "quorums": [sorted(q.members()) for q in system.quorums],
        }
    _emit(out)
    return 0


def _table8_rows(p: float, n: int) -> list[dict]:
    if n != 1024:
        raise ParameterError(
            "the published comparison is defined for n=1024 only")
    # _construction_bounds reports a bad p as inapplicable; reject it here.
    _check_probability(p)
    specs = [
        ("MGrid", MGridSpec(side=32, b=15), "lower", "mgrid_fp_lower"),
        ("RT", RTSpec(k=4, ell=3, h=5), "upper", "rt_fp_upper"),
        ("BoostFPP", BoostFPPSpec(q=3, b=19), "upper", "boostfpp_fp_upper"),
        ("MPath", MPathSpec(side=32, b=7), "upper", "mpath_fp_upper"),
    ]
    published_point = p == 0.125
    p_prime = 1.0 / 7.0 if published_point else None
    rows = []
    for tag, spec, kind, bound in specs:
        params = build(spec).params
        rows.append({
            "system": "-".join([tag] + [str(v) for v in spec.__dict__.values()]),
            "n": params.n,
            "b": params.b,
            "f": params.f,
            "load": _fmt6(params.load),
            "fp_kind": kind,
            "fp_value": _construction_bounds(spec, p, p_prime).get(bound),
            "paper_value": _PAPER_TABLE[tag] if published_point else None,
        })
    return rows


def _cmd_table8(args: argparse.Namespace) -> int:
    rows = _table8_rows(args.p, args.n)
    if args.format == "json":
        _emit({"p": args.p, "n": args.n, "rows": rows, "notes": [RESILIENCE_NOTE]})
        return 0
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["system", "n", "b", "f", "load", "fp_kind", "fp_value", "paper_value"]
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if row[k] is None else row[k] for k in header])
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    handle = build(spec)
    params = handle.params
    system = handle.materialize(args.max_quorums)
    mismatches: list[str] = []

    report = validate_explicit(system)
    if not report:
        mismatches += [f"validate: {v}" for v in report.violations]

    brute = combinatorial_params(system)
    if isinstance(spec, MPathSpec):
        # Straight-path sub-system: c and a_min must match; the pairwise
        # intersection must clear the masking requirement.
        if brute.c != params.c:
            mismatches.append(f"c: brute {brute.c} != analytic {params.c}")
        if brute.a_min != params.a_min:
            mismatches.append(f"a_min: brute {brute.a_min} != analytic {params.a_min}")
        if brute.i_min < 2 * params.b + 1:
            mismatches.append(f"i_min: brute {brute.i_min} < 2b+1 = {2 * params.b + 1}")
    else:
        for name, got, want in [("c", brute.c, params.c),
                                ("i_min", brute.i_min, params.i_min),
                                ("a_min", brute.a_min, params.a_min)]:
            if got != want:
                mismatches.append(f"{name}: brute {got} != analytic {want}")

    if not check_masking(system, params.b):
        mismatches.append(f"masking check failed at b={params.b}")

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
        elif not isinstance(spec, MPathSpec):
            mismatches.append(f"live: handle alive but no quorum alive (trial {trial})")
    quorums = np.array([handle.sample_quorum(gen).as_bool() for _ in range(100)])
    if not handle.live_batch(quorums).all():
        mismatches.append("sampled quorum is not live")

    fair = is_fair(system)
    if fair and system.m <= 10 ** 4 and n <= 10 ** 3:
        lp_value, _ = load_lp(system)
        if abs(lp_value - load_fair(system)) > 1e-6:
            mismatches.append(
                f"fair load: lp {lp_value} != c/n {load_fair(system)}")

    if mismatches:
        for line in mismatches:
            print(f"oracle mismatch: {line}", file=sys.stderr)
        return 4
    _emit({"spec": spec_to_json(spec), "quorums": system.m, "ok": True})
    return 0


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
    p_load.add_argument("--materialize-cap", type=int, default=10 ** 4)
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
                      help="MC parallelism (default: MASKQUORUM_THREADS, then CPU count)")
    p_fp.add_argument("--bounds", action="store_true")
    p_fp.add_argument("--p-prime", type=float, default=None,
                      help="reference probability for the crossing-paths bound")
    p_fp.set_defaults(fn=_cmd_fp)

    p_compose = sub.add_parser("compose", help="compose two constructions")
    p_compose.add_argument("outer")
    p_compose.add_argument("inner")
    p_compose.add_argument("--materialize-cap", type=int, default=10 ** 4)
    p_compose.set_defaults(fn=_cmd_compose)

    p_table = sub.add_parser(
        "table8",
        help="the n=1024, p=1/8 comparison of the four constructions "
             "against their published values")
    p_table.add_argument("--p", type=float, default=0.125)
    p_table.add_argument("--n", type=int, default=1024)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(fn=_cmd_table8)

    p_oracle = sub.add_parser("oracle", help="materialize and run brute-force cross-checks")
    p_oracle.add_argument("spec")
    p_oracle.add_argument("--max-quorums", type=int, default=10 ** 5)
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
    except (ParameterError, ApplicabilityError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MaskQuorumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
