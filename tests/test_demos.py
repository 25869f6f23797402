import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_build_and_inspect.py", "02_load_and_strategies.py"])
def test_demo_runs(name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")


def test_crash_probability_demo_agrees_across_worker_counts(capsys):
    # The demo reruns RT(4,3,2) Monte Carlo with 8 workers on the same seed.
    runpy.run_path(str(DEMOS / "03_crash_probability.py"), run_name="__main__")
    assert "(bit-identical: True)" in capsys.readouterr().out


def test_paths_demo_prints_the_path_counts(capsys):
    runpy.run_path(str(DEMOS / "04_paths_and_percolation.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert "5x5 grid, everything alive: 5 disjoint LR paths, 5 disjoint TB paths" in lines
    assert "column 2 dead: 0 LR, 4 TB" in lines


def test_composition_and_comparison_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "05_composition_and_comparison.py"), run_name="__main__")
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()
            if line.endswith((" 0.638", " 0.0001", " 0.372", " 0.001"))]
    # Each row's bound as its handle names it, at p = 1/8 (p' = 1/7 for MPath).
    assert [(row[0], row[5]) for row in rows] == [
        ("MGrid(32,15)", "0.638"), ("RT(4,3,5)", "0.0001"),
        ("BoostFPP(3,19)", "0.372"), ("MPath(32,7)", "2.21e-05")]
