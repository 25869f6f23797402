import json
import subprocess
import sys
from pathlib import Path

import pytest

import maskquorum as mq
from maskquorum import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


THRESHOLD32 = '{"Threshold": {"k": 3, "ell": 2}}'
# About 1.3e9 outer quorums: anything that walks them does not finish.
LARGE_COMPOSED = ('{"Composed": {"outer": {"MGrid": {"side": 32, "b": 15}}, '
                  '"inner": {"Threshold": {"k": 3, "ell": 2}}}}')


class TestParams:
    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "params", '{"RT": {"k": 4, "ell": 3, "h": 5}}')
        assert code == 0
        parsed = mq.SystemParams.from_dict(json.loads(out))
        assert parsed == mq.build(mq.RTSpec(4, 3, 5)).params

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


class TestFp:
    def test_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "fp", THRESHOLD32, "--p", "0.5", "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["kind"] == "exact"
        assert payload["estimate"]["value"] == pytest.approx(0.5, abs=1e-9)

    def test_defaults_to_mc_when_large(self, capsys):
        code, out, _ = run_cli(capsys, "fp", '{"RT": {"k": 4, "ell": 3, "h": 5}}',
                               "--p", "0.05", "--trials", "2000", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["kind"] == "monte_carlo"
        assert payload["estimate"]["seed"] == 11

    def test_exact_refused_when_large(self, capsys):
        code, _, err = run_cli(capsys, "fp", '{"RT": {"k": 4, "ell": 3, "h": 5}}',
                               "--p", "0.05", "--exact")
        assert code == 3
        assert "crash_prob_mc" in err

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

    def test_flow_backed_mpath_defaults_to_mc(self, capsys):
        # MPath(5,2) evaluates liveness by max-flow; auto mode must not try
        # to enumerate 2^25 subsets through it.
        code, out, _ = run_cli(capsys, "fp", '{"MPath": {"side": 5, "b": 2}}',
                               "--p", "0.2", "--trials", "2000", "--seed", "1")
        assert code == 0
        assert json.loads(out)["estimate"]["kind"] == "monte_carlo"

    def test_mpath_bounds_use_default_p_prime(self, capsys):
        code, out, _ = run_cli(capsys, "fp", '{"MPath": {"side": 5, "b": 0}}',
                               "--p", "0.1", "--exact", "--bounds")
        assert code == 0
        bounds = json.loads(out)["bounds"]
        assert bounds["p_prime"] == pytest.approx((0.1 + 1 / 3) / 2, abs=1e-6)
        assert bounds["mpath_fp_upper"] == pytest.approx(
            mq.mpath_fp_upper(5, 0, 0.1, (0.1 + 1 / 3) / 2), abs=1e-6)


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
        assert lines[0] == "system,n,b,f,load,fp_kind,fp_value,paper_value"
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

    def test_entry_point_matches_in_process(self, capsys):
        import os

        _, expected, _ = run_cli(capsys, "table8")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "maskquorum", "table8"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected


class TestOracle:
    @pytest.mark.parametrize("spec", [
        '{"Threshold": {"k": 4, "ell": 3}}',
        '{"FPP": {"q": 2}}',
        '{"MGrid": {"side": 3, "b": 0}}',
        '{"MPath": {"side": 4, "b": 1}}',
        '{"Composed": {"outer": {"FPP": {"q": 2}}, "inner": {"Threshold": {"k": 3, "ell": 2}}}}',
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

    def test_large_composed_exceeds_cap(self, capsys):
        code, _, err = run_cli(capsys, "oracle", LARGE_COMPOSED)
        assert code == 3
        assert "exceeding the cap" in err
