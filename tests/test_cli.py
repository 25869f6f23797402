import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maskquorum as mq
from maskquorum import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run a fresh interpreter on this checkout's sources: ``python *args``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


THRESHOLD32 = '{"Threshold": {"k": 3, "ell": 2}}'
# About 1.3e9 outer quorums: anything that walks them does not finish.
LARGE_COMPOSED = ('{"Composed": {"outer": {"MGrid": {"side": 32, "b": 15}}, '
                  '"inner": {"Threshold": {"k": 3, "ell": 2}}}}')
# A projective plane past the enumeration cap (n = 31), with no closed form.
FPP5 = '{"FPP": {"q": 5}}'
BOOSTFPP_3_19 = '{"BoostFPP": {"q": 3, "b": 19}}'
MPATH_32_7 = '{"MPath": {"side": 32, "b": 7}}'
RT_4_3_5 = '{"RT": {"k": 4, "ell": 3, "h": 5}}'
MGRID_4_1 = '{"MGrid": {"side": 4, "b": 1}}'
MPATH_6_1 = '{"MPath": {"side": 6, "b": 1}}'
# Outputs of the published comparison, written by the CLI before its bounds
# moved onto the handles; compared byte for byte.
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestParams:
    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "params", '{"RT": {"k": 4, "ell": 3, "h": 5}}')
        assert code == 0
        parsed = mq.SystemParams.from_dict(json.loads(out))
        assert parsed == mq.build(mq.RTSpec(4, 3, 5)).params

    def test_deepest_recursive_threshold(self, capsys):
        # RT(3,2,200) nests 200 composed handles.
        rt = '{"RT": {"k": 3, "ell": 2, "h": 200}}'
        code, out, _ = run_cli(capsys, "params", rt)
        assert code == 0
        assert json.loads(out)["n"] == 3 ** 200
        code, out, _ = run_cli(capsys, "fp", rt, "--p", "0.1", "--exact", "--bounds")
        assert code == 0
        assert json.loads(out)["estimate"]["value"] == mq.rt_fp_recurrence(3, 2, 200, 0.1)

    def test_reads_spec_from_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"MGrid": {"side": 7, "b": 3}}')
        code, out, _ = run_cli(capsys, "params", str(spec_file))
        assert code == 0
        assert json.loads(out)["c"] == 24

    def test_invalid_order_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "params", '{"FPP": {"q": 4}}')
        assert code == 2
        assert "not prime" in err

    def test_garbage_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "params", "not json at all")
        assert code == 2


class TestLoad:
    def test_lp_method_on_small_system(self, capsys):
        code, out, _ = run_cli(capsys, "load", THRESHOLD32)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "lp"
        assert payload["load"] == pytest.approx(2 / 3, abs=1e-6)

    def test_analytic_fallback_on_large_system(self, capsys):
        code, out, _ = run_cli(capsys, "load", '{"MGrid": {"side": 32, "b": 15}}')
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "analytic"
        assert payload["load"] == pytest.approx(240 / 1024, abs=1e-6)

    def test_large_composed_is_analytic(self, capsys):
        code, out, _ = run_cli(capsys, "load", LARGE_COMPOSED)
        assert code == 0
        assert json.loads(out)["method"] == "analytic"

    def test_lp_limits_pick_the_method(self, capsys):
        # n = 1001 is past the LP's n limit although the 1001 quorums are
        # under the materialize cap; n = 999 is within both limits.
        code, out, _ = run_cli(capsys, "load", '{"Threshold": {"k": 1001, "ell": 1000}}')
        assert code == 0
        assert json.loads(out)["method"] == "analytic"
        code, out, _ = run_cli(capsys, "load", '{"Threshold": {"k": 999, "ell": 998}}')
        assert code == 0
        assert json.loads(out)["method"] == "lp"


class TestFp:
    def test_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "fp", THRESHOLD32, "--p", "0.5", "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["kind"] == "exact"
        assert payload["estimate"]["value"] == pytest.approx(0.5, abs=1e-9)

    def test_defaults_to_mc_when_large(self, capsys):
        # FPP(5) has no closed form and n = 31 is past the enumeration cap.
        code, out, _ = run_cli(capsys, "fp", FPP5,
                               "--p", "0.05", "--trials", "2000", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["kind"] == "monte_carlo"
        assert payload["estimate"]["seed"] == 11

    def test_closed_form_defaults_to_exact_when_large(self, capsys):
        code, out, _ = run_cli(capsys, "fp", '{"RT": {"k": 4, "ell": 3, "h": 5}}',
                               "--p", "0.05", "--trials", "2000", "--seed", "11")
        assert code == 0
        estimate = json.loads(out)["estimate"]
        assert estimate["kind"] == "exact"
        assert estimate["route"] == "closed_form"
        assert estimate["value"] == pytest.approx(
            mq.rt_fp_recurrence(4, 3, 5, 0.05), rel=1e-5)

    def test_exact_refused_when_large(self, capsys):
        code, _, err = run_cli(capsys, "fp", FPP5, "--p", "0.05", "--exact")
        assert code == 3
        assert "crash_prob_mc" in err

    @pytest.mark.parametrize("spec, mode, route", [
        (THRESHOLD32, "--exact", "closed_form"),
        ('{"RT": {"k": 4, "ell": 3, "h": 5}}', "--exact", "closed_form"),
        ('{"MGrid": {"side": 32, "b": 15}}', "--exact", "closed_form"),
        ('{"BoostFPP": {"q": 3, "b": 19}}', "--exact", "closed_form"),
        (LARGE_COMPOSED, "--exact", "closed_form"),
        ('{"FPP": {"q": 3}}', "--exact", "enumeration"),
        ('{"MPath": {"side": 3, "b": 1}}', "--exact", "enumeration"),
        ('{"MGrid": {"side": 4, "b": 1}}', "--mc", "monte_carlo"),
    ], ids=["Threshold", "RT", "MGrid", "BoostFPP", "Composed", "FPP", "MPath", "mc"])
    def test_route_reported(self, capsys, spec, mode, route):
        code, out, err = run_cli(capsys, "fp", spec, "--p", "0.125", mode,
                                 "--trials", "2000")
        assert code == 0, err
        estimate = json.loads(out)["estimate"]
        assert estimate["route"] == route
        assert estimate["kind"] == ("monte_carlo" if mode == "--mc" else "exact")

    def test_bounds_flag(self, capsys):
        code, out, _ = run_cli(capsys, "fp", '{"MGrid": {"side": 4, "b": 1}}',
                               "--p", "0.2", "--exact", "--bounds")
        assert code == 0
        payload = json.loads(out)
        assert "p_mt" in payload["bounds"]
        assert payload["bounds"]["mgrid_fp_lower"] == pytest.approx(
            mq.mgrid_fp_lower(4, 0.2), abs=1e-6)

    def test_mc_deterministic(self, capsys):
        args = ("fp", THRESHOLD32, "--p", "0.4", "--mc", "--trials", "20000",
                "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_float_field_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "fp", '{"MGrid": {"side": 4.0, "b": 1}}', "--p", "0.2")
        assert code == 2
        assert "MGridSpec.side must be an integer" in err

    def test_flow_backed_mpath_defaults_to_mc(self, capsys):
        # MPath(6,1) has n = 36, past the enumeration cap, so auto mode
        # answers by Monte Carlo.
        code, out, _ = run_cli(capsys, "fp", '{"MPath": {"side": 6, "b": 1}}',
                               "--p", "0.2", "--trials", "2000", "--seed", "1")
        assert code == 0
        assert json.loads(out)["estimate"]["kind"] == "monte_carlo"

    def test_mpath_within_the_cap_defaults_to_exact(self):
        # MPath follows the base rule at every r: enumerate when n <= 25,
        # and naming the route enumerates nothing.
        for b in (1, 2):
            handle = mq.build(mq.MPathSpec(5, b))
            assert handle.exact_route()[0] == "enumeration"
            assert "_crash_profile" not in handle.__dict__

    @pytest.mark.parametrize("spec", [
        # FPP(5) (n = 31) has no route; MPath(5,0) would enumerate 2^25 sets.
        '{"Composed": {"outer": {"FPP": {"q": 5}}, "inner": {"MPath": {"side": 5, "b": 0}}}}',
        # MPath(6,1) (n = 36) has no route; MPath(5,0) would enumerate.
        '{"Composed": {"outer": {"MPath": {"side": 5, "b": 0}}, '
        '"inner": {"MPath": {"side": 6, "b": 1}}}}',
    ], ids=["FPP(5)oMPath(5,0)", "MPath(5,0)oMPath(6,1)"])
    def test_route_resolves_before_any_work(self, capsys, monkeypatch, spec):
        # Both parts of a composition resolve their routes before either
        # enumerates, so a part without one sends fp to Monte Carlo at once.
        enumerated = []

        def recording_profile(target):
            enumerated.append(target)
            return np.zeros(target.n + 1, dtype=np.int64)

        monkeypatch.setattr(mq.availability, "_profile_of", recording_profile)
        code, out, err = run_cli(capsys, "fp", spec, "--p", "0.1", "--trials", "200",
                                 "--seed", "1")
        assert code == 0, err
        assert json.loads(out)["estimate"]["route"] == "monte_carlo"
        assert enumerated == []

    def test_fallback_logs_its_reason(self, capsys, caplog):
        caplog.set_level(logging.DEBUG, logger="maskquorum")
        code, out, err = run_cli(capsys, "fp", MPATH_6_1, "--p", "0.2", "--trials", "200")
        assert code == 0
        assert err == ""
        [line] = [r.getMessage() for r in caplog.records
                  if r.name == "maskquorum" and r.levelname == "DEBUG"
                  and r.getMessage().startswith("fp:")]
        assert line == ("fp: no exact route, falling back to monte_carlo: exact enumeration "
                        "capped at n <= 25 (got n=36); use crash_prob_mc instead")
        # Unless the caller configures logging, nothing reaches stderr.
        proc = run_python("-m", "maskquorum", "fp", MPATH_6_1, "--p", "0.2",
                          "--trials", "200")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["estimate"]["route"] == "monte_carlo"

    @pytest.mark.parametrize("spec", [
        '{"Threshold": {"k": 1100, "ell": 900}}',
        '{"Threshold": {"k": 2000, "ell": 1500}}',
        '{"RT": {"k": 1100, "ell": 900, "h": 1}}',
    ], ids=["Threshold(1100,900)", "Threshold(2000,1500)", "RT(1100,900,1)"])
    def test_closed_form_past_the_double_range(self, capsys, spec):
        # C(k, k/2) no longer fits a double; the closed form still answers.
        code, out, err = run_cli(capsys, "fp", spec, "--p", "0.1")
        assert code == 0, err
        estimate = json.loads(out)["estimate"]
        assert estimate["route"] == "closed_form"
        assert 0.0 <= estimate["value"] <= 1.0

    def test_mpath_bounds_use_default_p_prime(self, capsys):
        code, out, _ = run_cli(capsys, "fp", '{"MPath": {"side": 5, "b": 0}}',
                               "--p", "0.1", "--exact", "--bounds")
        assert code == 0
        bounds = json.loads(out)["bounds"]
        assert bounds["p_prime"] == pytest.approx((0.1 + 1 / 3) / 2, abs=1e-6)
        assert bounds["mpath_fp_upper"] == pytest.approx(
            mq.mpath_fp_upper(5, 0, 0.1, (0.1 + 1 / 3) / 2), abs=1e-6)

    @pytest.mark.parametrize("spec, p, kept, reason", [
        (BOOSTFPP_3_19, "0.3", {"p_mt", "p_c2f", "p_f"}, "requires p < 1/4"),
        (MPATH_32_7, "0.4", {"p_mt", "p_c2f", "p_f", "p_prime"}, "p_prime < 1/3"),
    ], ids=["BoostFPP", "MPath"])
    def test_inapplicable_bound_keeps_the_others(self, capsys, spec, p, kept, reason):
        code, out, err = run_cli(capsys, "fp", spec, "--p", p, "--mc", "--trials", "10",
                                 "--bounds")
        assert code == 0, err
        bounds = json.loads(out)["bounds"]
        assert set(bounds) == kept | {"inapplicable"}
        assert reason in bounds["inapplicable"]
        assert bounds["p_mt"] > 0 and bounds["p_c2f"] > 0 and bounds["p_f"] is None


class TestCompose:
    def test_params_and_explicit(self, capsys):
        code, out, _ = run_cli(capsys, "compose", '{"FPP": {"q": 2}}', THRESHOLD32)
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["n"] == 21
        assert payload["params"]["c"] == 6
        assert payload["explicit"]["quorum_count"] == 189

    def test_params_only_when_large(self, capsys):
        code, out, _ = run_cli(capsys, "compose", '{"FPP": {"q": 3}}',
                               '{"Threshold": {"k": 77, "ell": 58}}')
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["n"] == 1001
        assert "explicit" not in payload

    def test_large_composed_outer_gives_params_only(self, capsys):
        code, out, _ = run_cli(capsys, "compose", LARGE_COMPOSED, THRESHOLD32)
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["n"] == 1024 * 9
        assert "explicit" not in payload


class TestTable8:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "table8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "system,n,b,f,load,fp_kind,fp_value,paper_value,fp_exact"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert len(rows) == 4
        mgrid = rows["MGrid-32-15"]
        assert mgrid[1:4] == ["1024", "15", "28"]
        assert 0.638 <= float(mgrid[6]) <= 0.639
        rt = rows["RT-4-3-5"]
        assert rt[2:4] == ["15", "31"]
        assert float(rt[6]) == pytest.approx(0.75 ** 32, rel=1e-4)
        boost = rows["BoostFPP-3-19"]
        assert boost[1:4] == ["1001", "19", "79"]
        assert float(boost[6]) == pytest.approx(0.372, abs=1e-3)
        mpath = rows["MPath-32-7"]
        assert mpath[2:4] == ["7", "28"]
        assert float(mpath[6]) <= 0.001
        assert [r[7] for r in rows.values()] == ["0.638", "0.0001", "0.372", "0.001"]

    def test_exact_column(self, capsys):
        # Closed forms for three rows; MPath has none and n = 1024 is too
        # large to enumerate, so its cell is empty.
        code, out, _ = run_cli(capsys, "table8")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
        p = 0.125
        mgrid = mq.mgrid_fp_exact(32, 15, p)
        assert float(rows["MGrid-32-15"][8]) == pytest.approx(mgrid, rel=1e-5)
        rt = mq.rt_fp_recurrence(4, 3, 5, p)
        assert float(rows["RT-4-3-5"][8]) == pytest.approx(rt, rel=1e-5)
        boost = mq.crash_prob_exact(mq.build(mq.BoostFPPSpec(3, 19)), p).value
        assert float(rows["BoostFPP-3-19"][8]) == pytest.approx(boost, rel=1e-5)
        assert rows["MPath-32-7"][8] == ""

    def test_byte_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "table8")
        _, out2, _ = run_cli(capsys, "table8")
        assert out1 == out2

    def test_json_format_carries_resilience_note(self, capsys):
        code, out, _ = run_cli(capsys, "table8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert any("28" in note for note in payload["notes"])

    def test_other_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table8", "--n", "512")
        assert code == 2

    def test_bad_probability_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table8", "--p", "1.5")
        assert code == 2
        assert "probability" in err

    def test_inapplicable_bound_leaves_cell_empty(self, capsys):
        # The boosted-plane bound needs p < 1/4; the row's other cells stay.
        code, out, _ = run_cli(capsys, "table8", "--p", "0.3")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
        boost = rows["BoostFPP-3-19"]
        assert boost[6] == ""
        assert boost[5] == "upper" and float(boost[8]) > 0.9
        assert all(row[6] != "" for name, row in rows.items() if name != "BoostFPP-3-19")

    @pytest.mark.parametrize("p", ["0.125", "0.3"])
    def test_json_matches_golden(self, capsys, p):
        code, out, _ = run_cli(capsys, "table8", "--p", p, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"table8_p{p}.json").read_text()

    def test_fp_bounds_match_golden(self, capsys):
        systems = {
            "MGrid-32-15": '{"MGrid": {"side": 32, "b": 15}}',
            "RT-4-3-5": '{"RT": {"k": 4, "ell": 3, "h": 5}}',
            "BoostFPP-3-19": BOOSTFPP_3_19,
            "MPath-32-7": MPATH_32_7,
        }
        got = {}
        for name, spec in systems.items():
            for p in ("0.05", "0.125", "0.3"):
                code, out, err = run_cli(capsys, "fp", spec, "--p", p, "--mc",
                                         "--trials", "1", "--bounds")
                assert code == 0, err
                got[f"{name} p={p}"] = json.loads(out)["bounds"]
        text = json.dumps(got, indent=2, sort_keys=True) + "\n"
        assert text == (GOLDEN / "fp_bounds.json").read_text()

    def test_entry_point_matches_in_process(self, capsys):
        _, expected, _ = run_cli(capsys, "table8")
        proc = run_python("-m", "maskquorum", "table8")
        assert proc.returncode == 0
        assert proc.stdout == expected


class TestOracle:
    @pytest.mark.parametrize("spec", [
        '{"Threshold": {"k": 4, "ell": 3}}',
        '{"FPP": {"q": 2}}',
        '{"MGrid": {"side": 3, "b": 0}}',
        '{"MPath": {"side": 4, "b": 1}}',
        '{"Composed": {"outer": {"FPP": {"q": 2}}, "inner": {"Threshold": {"k": 3, "ell": 2}}}}',
        '{"Composed": {"outer": {"MPath": {"side": 3, "b": 0}}, "inner": {"Threshold": {"k": 3, "ell": 2}}}}',
        '{"Composed": {"outer": {"Threshold": {"k": 3, "ell": 2}}, "inner": {"MPath": {"side": 3, "b": 0}}}}',
    ])
    def test_clean_constructions_pass(self, capsys, spec):
        code, out, err = run_cli(capsys, "oracle", spec)
        assert code == 0, err
        assert json.loads(out)["ok"] is True

    def test_mismatch_exits_4(self, capsys, monkeypatch):
        import maskquorum.cli as cli_module

        def wrong_params(system):
            return mq.CombinatorialParams(c=1, i_min=1, a_min=1)

        monkeypatch.setattr(cli_module, "combinatorial_params", wrong_params)
        code, _, err = run_cli(capsys, "oracle", THRESHOLD32)
        assert code == 4
        assert "mismatch" in err

    @pytest.mark.parametrize("reported, message", [
        (False, "live: quorum alive but handle dead"),
        (True, "live: handle alive but no quorum alive"),
    ])
    def test_live_mismatch_exits_4(self, capsys, monkeypatch, reported, message):
        import numpy as np

        def constant_live(self, alive):
            return np.full(len(alive), reported)

        monkeypatch.setattr(mq.constructions.ThresholdHandle, "live_batch", constant_live)
        code, _, err = run_cli(capsys, "oracle", THRESHOLD32)
        assert code == 4
        assert f"oracle mismatch: {message} (trial " in err

    @pytest.mark.parametrize("failure, message", [
        (mq.MaskingCheck(ok=False, violating_pair=(0, 2)),
         "masking check failed at b=0: quorums 0 and 2 share 1 elements, masking needs 2b+1 = 1"),
        (mq.MaskingCheck(ok=False, blocking_set=mq.ElementSet.from_indices(3, [0, 2])),
         "masking check failed at b=0: crash set [0, 2] hits every quorum"),
    ], ids=["violating_pair", "blocking_set"])
    def test_masking_failure_names_witness(self, capsys, monkeypatch, failure, message):
        monkeypatch.setattr(cli, "check_masking", lambda system, b: failure)
        code, _, err = run_cli(capsys, "oracle", THRESHOLD32)
        assert code == 4
        assert f"oracle mismatch: {message}" in err

    def test_disjoint_pair_reported_once(self, capsys, monkeypatch):
        # Quorum 0 of MPath(3,0)'s straight paths is row 0 and column 0; the
        # added quorum {4, 5, 7, 8} misses it.  One line names the pair.
        materialize = mq.constructions.QuorumSystemHandle.materialize

        def with_disjoint_pair(self, max_quorums):
            system = materialize(self, max_quorums)
            return mq.ExplicitQuorumSystem.from_masks(
                system.n, system.quorum_masks() + [0b110110000])

        monkeypatch.setattr(mq.constructions.MPathHandle, "materialize", with_disjoint_pair)
        code, _, err = run_cli(capsys, "oracle", '{"MPath": {"side": 3, "b": 0}}')
        assert code == 4
        about_pair = [line for line in err.splitlines()
                      if "0 and 9" in line or "disjoint" in line or "i_min" in line]
        assert about_pair == ["oracle mismatch: masking check failed at b=0: quorums 0 and 9 "
                              "share 0 elements, masking needs 2b+1 = 1"]

    def test_one_transversal_search_per_system(self, capsys, monkeypatch):
        searched = []
        search = mq.analysis._search_transversal

        def counting_search(system):
            searched.append(system.m)
            return search(system)

        monkeypatch.setattr(mq.analysis, "_search_transversal", counting_search)
        code, _, _ = run_cli(capsys, "oracle", '{"BoostFPP": {"q": 2, "b": 1}}')
        assert code == 0
        assert searched == [875]

    def test_one_pairwise_pass_per_system(self, capsys, monkeypatch):
        # combinatorial_params and check_masking share the system's
        # smallest pair.
        passes = []
        kernel = mq._bitops.pair_intersections

        def counting_kernel(words):
            passes.append(len(words))
            return kernel(words)

        for name, module in list(sys.modules.items()):
            if name.startswith("maskquorum.") and hasattr(module, "pair_intersections"):
                monkeypatch.setattr(module, "pair_intersections", counting_kernel)
        code, _, _ = run_cli(capsys, "oracle", '{"BoostFPP": {"q": 2, "b": 1}}')
        assert code == 0
        assert passes == [875]

    def test_nothing_on_stderr_by_default(self):
        # The transversal search logs at DEBUG on the "maskquorum" logger,
        # which prints nothing unless the caller configures logging.
        proc = run_python("-m", "maskquorum", "oracle", '{"BoostFPP": {"q": 2, "b": 1}}')
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["ok"] is True

    def test_large_composed_exceeds_cap(self, capsys):
        code, _, err = run_cli(capsys, "oracle", LARGE_COMPOSED)
        assert code == 3
        assert "exceeding the cap" in err


class TestColdStart:
    """Only the calls that use scipy.optimize or a thread pool import them.

    Checked in fresh interpreters: the test process has scipy loaded already.
    """

    def test_fp_and_params_load_neither(self):
        script = f"""
import json, sys
import maskquorum as mq, maskquorum.cli
mq.build(mq.MGridSpec(4, 1)).sample_quorum(mq.Rng(0).generator())
for spec in (mq.RTSpec(4, 3, 5), mq.BoostFPPSpec(3, 19), mq.MPathSpec(32, 7)):
    assert mq.build(spec).sample_quorums(mq.Rng(0), 100).shape[0] == 100
for argv in (["fp", {RT_4_3_5!r}, "--p", "0.125", "--mc", "--workers", "1",
              "--trials", "2000"],
             ["fp", {MGRID_4_1!r}, "--p", "0.125", "--exact"],
             ["params", {RT_4_3_5!r}]):
    assert maskquorum.cli.main(argv) == 0, argv
print(json.dumps([m for m in ("scipy.optimize", "concurrent.futures") if m in sys.modules]))
"""
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    @pytest.mark.parametrize("argv", [
        ("load", '{"FPP": {"q": 3}}'),
        ("oracle", '{"Threshold": {"k": 4, "ell": 3}}'),
        ("fp", '{"RT": {"k": 4, "ell": 3, "h": 2}}', "--p", "0.125", "--bounds"),
    ], ids=["load", "oracle", "fp-bounds"])
    def test_scipy_calls_match_in_process(self, capsys, argv):
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0
        proc = run_python("-m", "maskquorum", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
