"""What the benchmark in `perfbench/` calls of the program must exist.

A hook whose target is gone makes a traced benchmark run warn and drop that
layer's metrics, and a set-up probe that cannot run fails the whole
benchmark run, so a rename, deletion or signature change fails here instead.
"""

import subprocess
import sys
from pathlib import Path

import dcmwalk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hook_target_resolves_to_a_callable(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    import workloads
    hooks = (layers.hooks(dcmwalk, {"checked": 0, "count": 0, "worst": 0.0})
             + workloads.RunObserver().hooks(during=True))
    assert capsys.readouterr().err == ""
    targets = [h.target for h in hooks]
    assert "dcmwalk.qp.linprog" in targets and "dcmwalk.qp.QpSolver.solve" in targets
    for target in targets:
        owner, name = tracing.resolve(target)
        assert callable(getattr(owner, name)), target


def test_setup_probe_runs_against_the_checkout():
    # `run.measure_setup` runs the probe with check=True.
    probe = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py")],
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
