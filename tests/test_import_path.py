"""Importing dcmwalk loads no scipy; the Phase-1 LP loads scipy.optimize
only when a QP first needs it."""

import subprocess
import sys
from pathlib import Path

import dcmwalk

SRC = Path(dcmwalk.__file__).resolve().parents[1]

PROBE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import numpy as np
import dcmwalk, dcmwalk.cli
from dcmwalk.qp import QpProblem, QpSolver, QpStatus
assert not [m for m in sys.modules if m.startswith("scipy")], "scipy on import"
# The equality-constrained minimizer and the least-squares start are both
# (1, 1), which breaks the row w[0] <= 0.5: only Phase-1 finds a start.
sol = QpSolver().solve(QpProblem(H=np.eye(2), g=np.zeros(2), A_eq=np.ones((1, 2)),
                                 b_eq=np.array([2.0]), A_in=np.array([[1.0, 0.0]]),
                                 b_in=np.array([0.5])))
assert sol.status is QpStatus.OPTIMAL, sol.status
assert np.allclose(sol.w, [0.5, 1.5]), sol.w
assert "scipy.optimize" in sys.modules
"""


def test_scipy_loads_only_for_phase1():
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
