"""Program set-up as a user pays it in a fresh interpreter.

Imports dcmwalk from the checkout, loads the packaged robot, and builds the
footstep plan and DCM reference of one steady walk. `run.py` times this
script from outside, so interpreter start-up is included.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dcmwalk  # noqa: E402
from dcmwalk import dcm_planner, harness  # noqa: E402
from dcmwalk.kinematics import KinematicsCache, home_state  # noqa: E402

model = dcmwalk.sample_biped()
z0 = KinematicsCache(model, home_state(model)).com()[2]
omega = dcmwalk.PendulumParams.from_height(z0).omega
scenario = harness.Scenario(forward_velocity=0.19, duration=12.0)
_, timeline = harness.build_gait(scenario)
dcm_planner.build_trajectory(timeline, omega, ds_ratio=scenario.ds_ratio)
