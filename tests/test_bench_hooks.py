"""Every name the benchmark in `perfbench/` hooks must exist in the program.

A hook whose target is gone makes a traced benchmark run warn and drop that
layer's metrics, so a rename or deletion fails here instead.
"""

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
