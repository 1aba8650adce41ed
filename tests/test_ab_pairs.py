"""`tests/ab_pairs.py`: its summary on fixed numbers, its perfbench runs
mocked, and its `calls` runs on short walks."""

import json
import subprocess
from pathlib import Path

import pytest

import ab_pairs
from ab_pairs import quartiles, summarize, table
from dcmwalk.control import PredictiveDcmController
from dcmwalk.harness import PlanTable
from dcmwalk.wholebody import WholeBodyController

ROOT = Path(ab_pairs.__file__).resolve().parents[1]
OUT = {"correct": True, "metrics": {"m": {"value": 1.0, "unit": "ref"}}}  # perfbench's last line


def record(pair, side, metrics, correct=True, workload="w"):
    return dict(pair=pair, side=side, workload=workload, correct=correct, metrics=metrics)


def empty_sides(tmp_path):
    for side in ab_pairs.SIDES:
        (tmp_path / side).mkdir()
    return [str(tmp_path / side) for side in ab_pairs.SIDES]


def run_ab(tmp_path, monkeypatch, argv):
    """`main(argv)` run from tmp_path; the records of its log."""
    monkeypatch.chdir(tmp_path)
    assert ab_pairs.main(argv) == 0
    return [json.loads(line) for line in (tmp_path / "ab_pairs.jsonl").read_text().splitlines()]


def test_quartiles_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_summary_counts_wins_and_ties():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]
    s = summarize(parent, change)
    assert s["parent"] == (2.0, 3.0, 4.0)
    assert s["change"] == (2.0, 3.0, 3.5)
    # Better in pairs 0, 3 and 4, worse in pair 2, tied in pair 1.
    assert (s["wins"], s["losses"], s["pairs"]) == (3, 1, 5)
    assert s["spread"] == 2.0
    assert not s["outside"]


def test_summary_gap_outside_spread():
    s = summarize([1.0, 1.1, 1.2, 1.3], [2.0, 2.1, 2.2, 2.3])
    assert s["outside"]
    assert s["wins"] == 0 and s["losses"] == 4
    assert s["spread"] == pytest.approx(0.15)


def test_summary_skips_missing_values():
    s = summarize([1.0, None, 3.0], [0.5, 2.0, None])
    assert s["pairs"] == 1 and s["wins"] == 1
    assert s["parent"] == (1.5, 2.0, 2.5)


def test_table_reports_pairs_and_incorrect_runs():
    records = [record(0, "parent", {"m": 1.0}), record(0, "change", {"m": 0.9}),
               record(1, "change", {"m": 1.1}, correct=False), record(1, "parent", {"m": 1.2}),
               # An unfinished pair is left out of the figures.
               record(2, "parent", {"m": 9.0})]
    text = table(records)
    assert "w: 2 pairs; correct: false in 0 parent and 1 change runs" in text
    assert "wins 2/2" in text
    assert "parent 1.1000 [1.0500, 1.1500]" in text


def test_table_marks_metric_a_side_never_gave():
    # Every change run failed: its metrics are empty, so the metric has no
    # figures, but the failed runs are still counted.
    records = [r for pair in range(3) for r in (record(pair, "parent", {"m": 1.0 + pair}),
                                                record(pair, "change", {}, correct=False))]
    text = table(records)
    assert "w: 3 pairs; correct: false in 0 parent and 3 change runs" in text
    assert "n/a: no value from the change runs" in text
    assert "wins" not in text


def test_table_gives_call_figures_pairs_wins_and_spread():
    key = "wholebody.cycle/position.p50_us"
    pairs = [(260.0, 229.0), (262.0, 231.0), (258.0, 230.0), (264.0, 228.0)]
    records = [record(i, side, {key: value}, workload="calls")
               for i, values in enumerate(pairs) for side, value in zip(ab_pairs.SIDES, values)]
    lines = table(records).splitlines()
    assert lines[0] == "calls: 4 pairs; correct: false in 0 parent and 0 change runs"
    assert lines[1].split()[:4] == [key, "parent", "261.0000", "[259.5000,"]
    assert "-12.1%  wins 4/4  IQR 3.0000  OUTSIDE the parent's spread" in lines[1]


@pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "7"], 7)])
def test_seed_reaches_every_run(tmp_path, monkeypatch, argv, seed):
    # Every perfbench run of an A/B gets the seed, 0 unless --seed gives
    # another, and the log records it.
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(OUT) + "\n", stderr="")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    records = run_ab(tmp_path, monkeypatch, [*empty_sides(tmp_path), "--workload", "steady-pi",
                                             *argv])
    assert len(commands) == 2 * ab_pairs.PAIRS
    assert all(cmd[cmd.index("--seed") + 1] == str(seed) for cmd in commands)
    assert len(records) == 2 * ab_pairs.PAIRS and {r["seed"] for r in records} == {seed}


def test_wall_time_per_cycle_logged_and_marked_ungated(tmp_path, monkeypatch):
    # The wall ms per cycle comes from `cycles_per_s` in the record on
    # perfbench's second-to-last line; a run that printed no such record
    # logs none, and the table gives it after the gated metrics.
    rates = iter([2000.0, 2500.0] * ab_pairs.PAIRS)

    def fake_run(cmd, cwd, **kwargs):
        lines = [json.dumps({"environment": {}, "end_to_end": {"cycles_per_s": next(rates)}}),
                 json.dumps(OUT)]
        return subprocess.CompletedProcess(cmd, 0, stdout="\n".join(lines) + "\n", stderr="")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    records = run_ab(tmp_path, monkeypatch, [*empty_sides(tmp_path), "--workload", "w"])
    # Even pairs run the parent first, odd pairs the change.
    walls = {(r["pair"], r["side"]): r["metrics"]["wall_ms_per_cycle"] for r in records}
    assert walls[0, "parent"] == walls[1, "change"] == 0.5
    assert walls[0, "change"] == walls[1, "parent"] == 0.4
    lines = table(records).splitlines()
    assert lines[1].split()[:2] == ["m", "parent"]
    assert lines[2].split()[:4] == ["wall_ms_per_cycle", "(ungated)", "parent", "0.4500"]
    assert "wins 5/10" in lines[2]


def test_run_without_end_to_end_record_logs_no_wall_time(tmp_path, monkeypatch):
    (tmp_path / "side").mkdir()
    for stdout in (json.dumps(OUT), json.dumps({"environment": {}}) + "\n" + json.dumps(OUT)):
        done = subprocess.CompletedProcess([], 0, stdout=stdout + "\n", stderr="")
        monkeypatch.setattr(ab_pairs.subprocess, "run", lambda cmd, **kw: done)
        record = ab_pairs.run_once(tmp_path / "side", tmp_path / "run", "w", 0)
        assert record == {"correct": True, "metrics": {"m": 1.0}}


def test_calls_time_each_layer_call_and_restore_the_methods():
    classes = (WholeBodyController, PredictiveDcmController, PlanTable)
    before = [dict(vars(c)) for c in classes]
    times = ab_pairs.time_calls(0.3)
    assert [dict(vars(c)) for c in classes] == before
    assert set(times) == {f"{name}/{mode}" for name in ab_pairs.TIMED for mode in ab_pairs.MODES}
    for mode in ab_pairs.MODES:
        # 30 cycles; the MPC solves on every 10th, and each of those 3
        # samples is built before the first cycle, as is the one plan table.
        assert len(times[f"wholebody.cycle/{mode}"]) == 30
        assert len(times[f"mpc.control/{mode}"]) == len(times[f"setup.mpc_sample/{mode}"]) == 3
        assert len(times[f"setup.plan_table/{mode}"]) == 1
    assert all(t > 0.0 for calls in times.values() for t in calls)


def test_calls_child_checks_where_dcmwalk_came_from(tmp_path, monkeypatch, capsys):
    # This process imports dcmwalk from this checkout's src, not from under tmp_path.
    for cwd, correct in ((ROOT, True), (tmp_path, False)):
        monkeypatch.chdir(cwd)
        ab_pairs.child(0.1, 0)
        out = json.loads(capsys.readouterr().out)
        assert out["correct"] is correct
    assert sorted(out["metrics"]) == sorted(
        f"{name}/{mode}.{stat}" for name in ab_pairs.TIMED for mode in ab_pairs.MODES
        for stat in (("sum_us",) if name.startswith("setup.") else ("p5_us", "p50_us")))


def test_calls_run_both_sides_from_the_fixed_path(tmp_path, monkeypatch):
    # Both sides are this checkout; each child imports dcmwalk from the copy.
    monkeypatch.setattr(ab_pairs, "PAIRS", 1)
    monkeypatch.setattr(ab_pairs, "WALK_SECONDS", 0.1)
    records = run_ab(tmp_path, monkeypatch, [str(ROOT), str(ROOT), "--workload", "calls"])
    assert [(r["side"], r["correct"]) for r in records] == [("parent", True), ("change", True)]
    assert all("wholebody.cycle/velocity.p50_us" in r["metrics"] for r in records)
