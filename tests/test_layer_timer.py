"""The per-call layer timer (`tests/layer_timer.py`), on short walks."""

from pathlib import Path

import layer_timer
from dcmwalk.control import PredictiveDcmController
from dcmwalk.wholebody import WholeBodyController


def test_times_each_call_of_both_layers_and_restores_them():
    cycle, control = WholeBodyController.cycle, PredictiveDcmController.control
    times = layer_timer.time_calls(0.3)
    assert WholeBodyController.cycle is cycle and PredictiveDcmController.control is control
    assert set(times) == {f"{layer}/{mode}" for layer in layer_timer.LAYERS
                          for mode in layer_timer.MODES}
    for mode in layer_timer.MODES:
        # 30 cycles; the MPC solves on every 10th.
        assert len(times[f"wholebody.cycle/{mode}"]) == 30
        assert len(times[f"mpc.control/{mode}"]) == 3
    assert all(t > 0.0 for calls in times.values() for t in calls)


def test_table_reports_each_side_and_round():
    rounds = [{"parent": {"wholebody.cycle/velocity": [2e-4, 3e-4]},
               "change": {"wholebody.cycle/velocity": [1e-4, 2e-4]}},
              {"parent": {"wholebody.cycle/velocity": [4e-4], "mpc.control/velocity": [1e-4]},
               "change": {"wholebody.cycle/velocity": [3e-4]}}]
    lines = layer_timer.table(rounds).splitlines()
    assert lines[0] == "2 rounds; microseconds per call"
    assert lines[1].startswith("  mpc.control/velocity") and "n/a" in lines[1]
    assert "parent p5 210.0 p50 300.0" in lines[2] and "change p5 110.0 p50 200.0" in lines[2]
    assert "-33.3% p50" in lines[2] and "calls 3" in lines[2]
    assert "round p50s parent [250.0 400.0] change [150.0 300.0]" in lines[2]


def test_script_times_two_checkouts_from_one_path(capsys):
    # Both sides here are this checkout; each child imports the copy's `src`.
    root = Path(layer_timer.__file__).resolve().parents[1]
    assert layer_timer.main([str(root), str(root), "--rounds", "1", "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 rounds; microseconds per call"
    assert sorted(line.split()[0] for line in lines[1:]) == sorted(
        f"{layer}/{mode}" for layer in layer_timer.LAYERS for mode in layer_timer.MODES)
