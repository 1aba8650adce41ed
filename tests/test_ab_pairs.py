"""The A/B summary of `tests/ab_pairs.py` on fixed numbers."""

import json
import subprocess

import pytest

import ab_pairs
from ab_pairs import quartiles, summarize, table


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
    records = [
        {"pair": 0, "side": "parent", "workload": "w", "correct": True, "metrics": {"m": 1.0}},
        {"pair": 0, "side": "change", "workload": "w", "correct": True, "metrics": {"m": 0.9}},
        {"pair": 1, "side": "change", "workload": "w", "correct": False, "metrics": {"m": 1.1}},
        {"pair": 1, "side": "parent", "workload": "w", "correct": True, "metrics": {"m": 1.2}},
        # An unfinished pair is left out of the figures.
        {"pair": 2, "side": "parent", "workload": "w", "correct": True, "metrics": {"m": 9.0}},
    ]
    text = table(records)
    assert "w: 2 pairs; correct: false in 0 parent and 1 change runs" in text
    assert "wins 2/2" in text
    assert "parent 1.1000 [1.0500, 1.1500]" in text


def test_table_marks_metric_a_side_never_gave():
    # Every change run failed: its metrics are empty, so the metric has no
    # figures, but the failed runs are still counted.
    records = []
    for pair in range(3):
        records.append({"pair": pair, "side": "parent", "workload": "w", "correct": True,
                        "metrics": {"m": 1.0 + pair}})
        records.append({"pair": pair, "side": "change", "workload": "w", "correct": False,
                        "metrics": {}})
    text = table(records)
    assert "w: 3 pairs; correct: false in 0 parent and 3 change runs" in text
    assert "n/a: no value from the change runs" in text
    assert "wins" not in text


@pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "7"], 7)])
def test_seed_reaches_every_run(tmp_path, monkeypatch, argv, seed):
    # Every perfbench run of an A/B gets the seed, 0 unless --seed gives
    # another, and the log records it.
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        out = {"correct": True, "metrics": {"m": {"value": 1.0, "unit": "ref"}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(out) + "\n", stderr="")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--workload", "steady-pi", *argv]) == 0
    assert len(commands) == 2 * ab_pairs.PAIRS
    assert all(cmd[cmd.index("--seed") + 1] == str(seed) for cmd in commands)
    records = [json.loads(line) for line in (tmp_path / "ab_pairs.jsonl").read_text().splitlines()]
    assert len(records) == 2 * ab_pairs.PAIRS and {r["seed"] for r in records} == {seed}


def test_wall_time_per_cycle_logged_and_marked_ungated(tmp_path, monkeypatch):
    # The wall ms per cycle comes from `cycles_per_s` in the record on
    # perfbench's second-to-last line; a run that printed no such record
    # logs none, and the table gives it after the gated metrics.
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    rates = iter([2000.0, 2500.0] * ab_pairs.PAIRS)
    record = {"environment": {}, "end_to_end": {"cycles_per_s": 0.0}}

    def fake_run(cmd, cwd, **kwargs):
        out = {"correct": True, "metrics": {"m": {"value": 1.0, "unit": "ref"}}}
        record["end_to_end"]["cycles_per_s"] = next(rates)
        lines = [json.dumps(record), json.dumps(out)]
        return subprocess.CompletedProcess(cmd, 0, stdout="\n".join(lines) + "\n", stderr="")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w"])
    records = [json.loads(line) for line in (tmp_path / "ab_pairs.jsonl").read_text().splitlines()]
    # Even pairs run the parent first, odd pairs the change.
    walls = {(r["pair"], r["side"]): r["metrics"]["wall_ms_per_cycle"] for r in records}
    assert walls[0, "parent"] == walls[1, "change"] == 0.5
    assert walls[0, "change"] == walls[1, "parent"] == 0.4
    text = table(records)
    lines = text.splitlines()
    assert lines[1].split()[:2] == ["m", "parent"]
    assert lines[2].split()[:4] == ["wall_ms_per_cycle", "(ungated)", "parent", "0.4500"]
    assert "wins 5/10" in lines[2]


def test_run_without_end_to_end_record_logs_no_wall_time(tmp_path, monkeypatch):
    out = {"correct": True, "metrics": {"m": {"value": 1.0, "unit": "ref"}}}
    for stdout in (json.dumps(out), json.dumps({"environment": {}}) + "\n" + json.dumps(out)):
        done = subprocess.CompletedProcess([], 0, stdout=stdout + "\n", stderr="")
        monkeypatch.setattr(ab_pairs.subprocess, "run", lambda cmd, **kw: done)
        (tmp_path / "side").mkdir(exist_ok=True)
        record = ab_pairs.run_once(tmp_path / "side", tmp_path / "run", "w", 0)
        assert record == {"correct": True, "metrics": {"m": 1.0}}
