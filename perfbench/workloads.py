"""The two benchmark workloads and the parts they are made of.

Every workload is closed-loop with one caller: the next op starts when the
previous one has returned.  A run builds one fixed block of ops from its
seed and repeats the whole block, pass after pass, until the measuring time
is used up.  Every op of the block is short (at most 1.5 s on a 2-core
Xeon) and a block takes 2-6 s, so every run sees the same mix of ops and
can check that every pass gives the same results.  Every call is
single-threaded.

A workload is a list of parts (``Part``); its block interleaves the parts'
ops evenly.  A part provides:

* ``setup(mq)``: the program's own set-up (handle builds, warm-up of lazy
  module state); timed as ``setup_s``;
* ``prepare(mq, cli, seed)``: reference values and set-up checks, untimed;
  returns the failed set-up checks;
* ``block()``: its ops of one pass, each with the check of its result; every
  pass repeats the same inputs, so every pass must give the same results;
* ``start_pass()``: resets the state a pass consumes (random generators);
* ``late_checks()``: checks that must stay out of the measured peak memory
  and out of the traced pass, run after the untraced pass; returns the
  failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref

N = 1024
# Trials per Monte Carlo call: four chunks of crash_prob_mc at n = 1024.  A
# call at 10^5 trials takes 1-3 s, too long to be repeated often enough in
# one run to be timed steadily.
MC_TRIALS = 4 * 4096
# Monte Carlo calls run on one worker.  On a host that shares its cores, a
# second worker's speed depends on whether a neighbour holds the other core:
# a 16384-trial call on 2 workers took 0.17-0.45 s within one minute.
MC_WORKERS = 1


@dataclass
class Op:
    kind: str             # throughput group, e.g. "mc", "flow", "oracle"
    label: str            # readable description of the input
    work: int             # units of work the op completes (trials, subsets, ...)
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_json(result) -> dict:
    rc, out, _ = result
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(out)


def close(got: float, want: float, rel: float = 1e-5) -> bool:
    """Agreement of a value printed with 6 significant digits."""
    return abs(got - want) <= rel * abs(want) + 1e-15


def sub_seed(seed: int, *parts: int) -> int:
    """A reproducible 63-bit seed derived from the workload seed."""
    return random.Random(repr((seed,) + parts)).getrandbits(63)


def fp_mc_argv(spec: dict, p: float, trials: int, seed: int, workers: int) -> list[str]:
    return ["fp", json.dumps(spec), "--p", repr(p), "--mc", "--trials", str(trials),
            "--seed", str(seed), "--workers", str(workers)]


def mc_crashed(result, trials: int) -> int:
    return round(cli_json(result)["estimate"]["value"] * trials)


class Part:
    probe: dict | None = None

    def setup(self, mq) -> None:
        pass

    def prepare(self, mq, cli, seed: int) -> list[str]:
        return []

    def start_pass(self) -> None:
        """Reset per-pass input state, so that every pass, traced or not,
        repeats the inputs of the first."""

    def late_checks(self) -> list[str]:
        return []


class Workload(Part):
    """Parts run together: one block with their ops interleaved evenly."""

    def __init__(self, parts: list[type[Part]]) -> None:
        self.parts = [part() for part in parts]

    def setup(self, mq) -> None:
        for part in self.parts:
            part.setup(mq)

    def prepare(self, mq, cli, seed: int) -> list[str]:
        failures = [f for part in self.parts for f in part.prepare(mq, cli, seed)]
        self.probe = next((p.probe for p in self.parts if p.probe is not None), None)
        return failures

    def start_pass(self) -> None:
        for part in self.parts:
            part.start_pass()

    def block(self) -> list[Op]:
        # Op i of a part with k ops sits at (i + 1/2) / k of the block, so
        # every kind of op samples the whole pass.
        placed = [((i + 0.5) / len(ops), j, op)
                  for j, ops in enumerate(part.block() for part in self.parts)
                  for i, op in enumerate(ops)]
        return [op for _, _, op in sorted(placed, key=lambda x: x[:2])]

    def late_checks(self) -> list[str]:
        return [f for part in self.parts for f in part.late_checks()]


# ---------------------------------------------------------------------------

class McCalls(Part):
    """Table 8 rows by sampling: ``fp --mc`` on n = 1024."""

    # (tag, spec, mid-range p where the crash probability is far from 0 and 1)
    SYSTEMS = [
        ("MGrid", {"MGrid": {"side": 32, "b": 15}}, 0.05),
        ("RT", {"RT": {"k": 4, "ell": 3, "h": 5}}, 0.23),
        ("BoostFPP", {"BoostFPP": {"q": 3, "b": 19}}, 0.25),
    ]
    DETERMINISM_TRIALS = 2 * 4096 + 512   # three chunks of crash_prob_mc

    def setup(self, mq) -> None:
        for _, spec, _ in self.SYSTEMS:
            h = mq.build(mq.spec_from_json(spec))
            h.live_batch(np.ones((1, h.n), dtype=bool))
        mq.Rng(0).uniform_draws(0, 8)

    def prepare(self, mq, cli, seed: int) -> list[str]:
        self.cli, self.seed = cli, seed
        exact = {
            "MGrid": lambda p: ref.mgrid_crash_prob(32, 15, p),
            "RT": lambda p: ref.rt_crash_prob(4, 3, 5, p),
            "BoostFPP": lambda p: ref.boostfpp_crash_prob(3, 19, p),
        }
        self.exact = {(tag, p): exact[tag](p)
                      for tag, _, mid in self.SYSTEMS for p in (0.125, mid)}
        return []

    def late_checks(self) -> list[str]:
        """Determinism contract: the worker count cannot change any result.

        Run after the untraced pass: two workers allocate their chunks at
        once, which would make the measured peak memory vary."""
        failures = []
        for i, (tag, spec, mid) in enumerate(self.SYSTEMS):
            s = sub_seed(self.seed, 99, i)
            try:
                counts = [mc_crashed(run_cli(self.cli, fp_mc_argv(
                    spec, mid, self.DETERMINISM_TRIALS, s, w)), self.DETERMINISM_TRIALS)
                          for w in (1, 2)]
            except (ValueError, KeyError) as exc:
                failures.append(f"{tag}: determinism check could not run: {exc!r}")
                continue
            if counts[0] != counts[1]:
                failures.append(f"{tag}: crash counts differ across worker counts 1 and 2: "
                                f"{counts}")
        return failures

    def block(self) -> list[Op]:
        """The six calls, p = 1/8 first, then the mid-range ones (2-3 s)."""
        ops = []
        for i in range(2):
            for j, (tag, spec, mid) in enumerate(self.SYSTEMS):
                p = (0.125, mid)[i]
                argv = fp_mc_argv(spec, p, MC_TRIALS, sub_seed(self.seed, j, i), MC_WORKERS)
                f = self.exact[(tag, p)]
                ops.append(Op(
                    "mc", f"{tag} p={p}", MC_TRIALS,
                    run=lambda argv=argv: run_cli(self.cli, argv),
                    check=lambda r, f=f: ref.binomial_consistent(mc_crashed(r, MC_TRIALS),
                                                                 MC_TRIALS, f)))
        return ops


# ---------------------------------------------------------------------------

class FlowTrials(Part):
    """MPath(32,7) liveness by max-flow, one Monte Carlo trial per op."""

    SIDE, B, R = 32, 7, 4
    # One trial at p = 1/8 (flow ~17 against r = 4) for every two at p = 0.35
    # (flow near r); the uneven count keeps the median op away from the
    # boundary between the two populations.
    P_PATTERN = (0.125, 0.35, 0.35)
    # Trials per block (2-3 s on a 2-core Xeon): enough that the block's
    # total work varies little from seed to seed.
    BLOCK = 90
    PROBE_SPEC = {"MPath": {"side": 8, "b": 1}}
    PROBE_P, PROBE_TRIALS = 0.1, 300

    def setup(self, mq) -> None:
        mq.build(mq.MPathSpec(self.SIDE, self.B))

    def prepare(self, mq, cli, seed: int) -> list[str]:
        self.mq, self.seed = mq, seed
        self.handle = mq.build(mq.MPathSpec(self.SIDE, self.B))
        self.oracle = ref.FlowOracle(self.SIDE)
        self._expected: dict[int, tuple[int, bool]] = {}
        for t in range(6):    # warm-up on trials of another stream
            self.handle.live(mq.sample_crash_set(N, self.P_PATTERN[t % 3],
                                                 mq.Rng(~seed).at(t)).complement())
        self._probe(cli, seed)
        return []

    def _probe(self, cli, seed: int) -> None:
        """Known-failure probe: MPath Monte Carlo at n = 64 and r = 2.

        Counted in fail_ratio, left out of every timing metric.  When it
        succeeds, ``late_checks`` compares its crash count with the max-flow
        oracle's on the same draws.
        """
        s = self._probe_seed = sub_seed(seed, 77)
        rc, _, err = self._probe_result = run_cli(
            cli, fp_mc_argv(self.PROBE_SPEC, self.PROBE_P, self.PROBE_TRIALS, s, MC_WORKERS))
        self.probe = {"spec": self.PROBE_SPEC, "trials": self.PROBE_TRIALS, "exit_code": rc,
                      "error": err.strip(), "failed": rc != 0}

    def late_checks(self) -> list[str]:
        """The probe's crash count must equal the max-flow oracle's exactly."""
        if self.probe["failed"]:
            return []
        n = 64
        u = crash_draws(self._probe_seed, 0, self.PROBE_TRIALS * n).reshape(self.PROBE_TRIALS, n)
        oracle = ref.FlowOracle(8)
        want = sum(min(oracle.flows(row)) < 2 for row in u >= self.PROBE_P)
        got = mc_crashed(self._probe_result, self.PROBE_TRIALS)
        if got != want:
            return [f"MPath(8,1) Monte Carlo crashed {got} of {self.PROBE_TRIALS} "
                    f"trials; the max-flow oracle says {want}"]
        return []

    def _trial(self, t: int, p: float):
        mq = self.mq
        alive = mq.sample_crash_set(N, p, mq.Rng(self.seed).at(t)).complement()
        return alive.mask, self.handle.live(alive)

    def _check(self, t: int, p: float, result) -> bool:
        if t not in self._expected:
            alive = crash_draws(self.seed, t * N, N) >= p
            mask = int.from_bytes(np.packbits(alive, bitorder="little").tobytes(), "little")
            self._expected[t] = (mask, min(self.oracle.flows(alive)) >= self.R)
        return result == self._expected[t]

    def block(self) -> list[Op]:
        ops = []
        for t in range(self.BLOCK):
            p = self.P_PATTERN[t % len(self.P_PATTERN)]
            ops.append(Op("flow", f"p={p}", 1,
                          run=lambda t=t, p=p: self._trial(t, p),
                          check=lambda r, t=t, p=p: self._check(t, p, r)))
        return ops


def crash_draws(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles of the keyed Philox stream, for raw draws
    [start, start+count) with start a multiple of 4 (the documented trial layout)."""
    bg = np.random.Philox(key=seed & ((1 << 64) - 1), counter=start // 4)
    return (bg.random_raw(count) >> 11) * (2.0 ** -53)


# ---------------------------------------------------------------------------

class ExactCalls(Part):
    """``fp --exact`` by full 2^n enumeration, one system per route of
    ``crash_profile``: MPath(4,0) (r = 1) through the packed flood fill,
    MGrid(4,1) and RT(4,3,2) unpacked to bool for their ``live_batch``, and
    MPath(3,1) (r = 2) with one max-flow per subset.

    Calls at n = 25 take 5-17 s each, too long to be repeated often enough in
    one run to be timed steadily; at n = 16 a call takes 10-40 ms, so the
    block holds COPIES calls per system, which gives enumeration about a
    third of the workload's time.
    """

    P = 0.125
    SYSTEMS = [
        ("MPath(4,0)", {"MPath": {"side": 4, "b": 0}}, 16),
        ("MGrid(4,1)", {"MGrid": {"side": 4, "b": 1}}, 16),
        ("RT(4,3,2)", {"RT": {"k": 4, "ell": 3, "h": 2}}, 16),
        ("MPath(3,1)", {"MPath": {"side": 3, "b": 1}}, 9),
    ]
    COPIES = 8

    def setup(self, mq) -> None:
        import maskquorum._bitops as bitops

        bitops.popcount(np.zeros(1, dtype=np.uint32))
        for _, spec, _ in self.SYSTEMS:
            mq.build(mq.spec_from_json(spec))

    def prepare(self, mq, cli, seed: int) -> list[str]:
        self.cli = cli
        self.exact = {
            "MPath(4,0)": ref.profile_crash_prob(ref.MPATH_PROFILES[(4, 0)], self.P),
            "MGrid(4,1)": ref.mgrid_crash_prob(4, 1, self.P),
            "RT(4,3,2)": ref.rt_crash_prob(4, 3, 2, self.P),
            "MPath(3,1)": ref.profile_crash_prob(ref.MPATH_PROFILES[(3, 1)], self.P),
        }
        for spec in ({"MPath": {"side": 3, "b": 0}}, {"MGrid": {"side": 3, "b": 1}},
                     {"RT": {"k": 3, "ell": 2, "h": 2}},
                     {"MPath": {"side": 2, "b": 1}}):    # warm-up of each route
            run_cli(cli, ["fp", json.dumps(spec), "--p", repr(self.P), "--exact"])
        return []

    def block(self) -> list[Op]:
        # Enumeration is exhaustive: the seed has no input to choose here.
        ops = []
        for tag, spec, n in self.SYSTEMS * self.COPIES:
            # The CLI builds a fresh handle per call, so the crash profile
            # cached on a handle never hides the enumeration.
            argv = ["fp", json.dumps(spec), "--p", repr(self.P), "--exact"]
            want = self.exact[tag]
            ops.append(Op("exact", tag, 2 ** n,
                          run=lambda argv=argv: run_cli(self.cli, argv),
                          check=lambda r, want=want: (
                              cli_json(r)["estimate"]["kind"] == "exact"
                              and close(cli_json(r)["estimate"]["value"], want))))
        return ops


class QuorumDraws(Part):
    """``sample_quorum`` on the four Table 8 systems."""

    # Table 8 systems and their smallest quorum size c.
    SYSTEMS = [
        ("RT", {"RT": {"k": 4, "ell": 3, "h": 5}}, 3 ** 5),
        ("MGrid", {"MGrid": {"side": 32, "b": 15}}, 2 * 4 * 32 - 16),
        ("BoostFPP", {"BoostFPP": {"q": 3, "b": 19}}, 4 * 58),
        ("MPath", {"MPath": {"side": 32, "b": 7}}, 2 * 4 * 32 - 16),
    ]
    DRAWS_PER_SYSTEM = 200

    def setup(self, mq) -> dict:
        handles = {tag: mq.build(mq.spec_from_json(spec)) for tag, spec, _ in self.SYSTEMS}
        gen = np.random.Generator(np.random.Philox(0))
        for h in handles.values():
            h.sample_quorum(gen)    # loads the FPP lines of BoostFPP
        return handles

    def prepare(self, mq, cli, seed: int) -> list[str]:
        self.mq, self.seed = mq, seed
        self.handles = self.setup(mq)
        return []

    def start_pass(self) -> None:
        self.gens = {tag: self.mq.Rng(sub_seed(self.seed, i)).generator()
                     for i, (tag, _, _) in enumerate(self.SYSTEMS)}

    def block(self) -> list[Op]:
        return [Op("draw", tag, 1,
                   run=lambda tag=tag: len(self.handles[tag].sample_quorum(self.gens[tag])),
                   check=lambda size, c=c: size == c)
                for _ in range(self.DRAWS_PER_SYSTEM) for tag, _, c in self.SYSTEMS]


class RosterCalls(Part):
    """``oracle`` on the roster (brute-force analysis of materialized
    systems), ``load``, ``compose`` and ``table8``."""

    # Fair systems: the LP load equals c / n.
    LOAD_SPECS = [
        ({"FPP": {"q": 3}}, 4 / 13),
        ({"MGrid": {"side": 4, "b": 1}}, 12 / 16),
        ({"RT": {"k": 3, "ell": 2, "h": 2}}, 4 / 9),
        ({"Threshold": {"k": 5, "ell": 4}}, 4 / 5),
    ]
    COMPOSE = ({"FPP": {"q": 2}}, {"Threshold": {"k": 3, "ell": 2}})
    COMPOSE_PARAMS = {"n": 21, "c": 6, "i_min": 1, "a_min": 6, "b": 0, "f": 5}
    COMPOSE_QUORUMS = 7 * 3 ** 3

    def prepare(self, mq, cli, seed: int) -> list[str]:
        self.cli, self.seed = cli, seed
        self.table8 = table8_rows()
        run_cli(cli, ["oracle", json.dumps(ref.ORACLE_ROSTER[2])])    # warm-up
        return []

    def block(self) -> list[Op]:
        cli, ops = self.cli, []
        for spec in ref.ORACLE_ROSTER:
            argv = ["oracle", json.dumps(spec), "--seed", str(sub_seed(self.seed, 0))]
            ops.append(Op("oracle", json.dumps(spec), 1,
                          run=lambda argv=argv: run_cli(cli, argv),
                          check=lambda r: cli_json(r)["ok"] is True))
        for spec, load in self.LOAD_SPECS:
            argv = ["load", json.dumps(spec)]
            ops.append(Op("load", json.dumps(spec), 1,
                          run=lambda argv=argv: run_cli(cli, argv),
                          check=lambda r, load=load: (cli_json(r)["method"] == "lp"
                                                      and close(cli_json(r)["load"], load))))
        argv = ["compose"] + [json.dumps(s) for s in self.COMPOSE]
        ops.append(Op("compose", "FPP(2) o Threshold(3,2)", 1,
                      run=lambda: run_cli(cli, argv), check=self._check_compose))
        ops.append(Op("table8", "table8", 1, run=lambda: run_cli(cli, ["table8"]),
                      check=self._check_table8))
        return ops

    def _check_compose(self, result) -> bool:
        out = cli_json(result)
        params = {k: out["params"][k] for k in self.COMPOSE_PARAMS}
        return params == self.COMPOSE_PARAMS and out["explicit"]["quorum_count"] == self.COMPOSE_QUORUMS

    def _check_table8(self, result) -> bool:
        rc, out, _ = result
        rows = list(csv.DictReader(io.StringIO(out)))
        if rc != 0 or len(rows) != len(self.table8):
            return False
        for row, want in zip(rows, self.table8):
            if row["system"] != want["system"] or row["fp_kind"] != want["fp_kind"]:
                return False
            for key in ("n", "b", "f"):
                if int(row[key]) != want[key]:
                    return False
            for key in ("load", "fp_value", "paper_value"):
                if not close(float(row[key]), want[key]):
                    return False
        return True


def table8_rows() -> list[dict]:
    """The n = 1024, p = 1/8 comparison, from the paper's formulas."""
    p, side = 0.125, 32
    p_prime = 1 / 7
    mpath_tail = side * (3 * p_prime) ** side / (1 - 3 * p_prime)
    mpath_fp = min(1.0, 2 * ((1 - p) / (p_prime - p)) ** 3 * mpath_tail)
    return [
        {"system": "MGrid-32-15", "n": 1024, "b": 15, "f": 28, "load": 240 / 1024,
         "fp_kind": "lower", "fp_value": (1 - (1 - p) ** side) ** side, "paper_value": 0.638},
        {"system": "RT-4-3-5", "n": 1024, "b": 15, "f": 31, "load": 0.75 ** 5,
         "fp_kind": "upper", "fp_value": min(1.0, (6 * p) ** 32), "paper_value": 0.0001},
        {"system": "BoostFPP-3-19", "n": 1001, "b": 19, "f": 79, "load": 4 / 13 * 58 / 77,
         "fp_kind": "upper", "fp_value": min(1.0, 4 * math.exp(-19 * (1 - 4 * p) ** 2 / 2)),
         "paper_value": 0.372},
        {"system": "MPath-32-7", "n": 1024, "b": 7, "f": 28, "load": 240 / 1024,
         "fp_kind": "upper", "fp_value": mpath_fp, "paper_value": 0.001},
    ]


# Two workloads, so that each run can be long (see run.py): the sampling side
# at the paper's scale, and the exhaustive side on small systems.  Each
# bypasses the other's layers: no enumeration or analysis in the first, no
# Philox draws at scale or n = 1024 max-flow in the second.
WORKLOADS = {
    "sample_n1024": lambda: Workload([McCalls, FlowTrials, QuorumDraws]),
    "oracle_exact": lambda: Workload([ExactCalls, RosterCalls]),
}
