"""Three-layer DCM walking control stack with a closed-loop benchmark harness."""

from .control import (InstantaneousDcmController, InstantaneousGains, MpcConfig,
                      MpcInfeasibleError, PredictiveDcmController, SupportPolygon,
                      ZmpComGains, gain_schedule, minimum_jerk, zmp_com_control)
from .dcm_planner import (DcmTrajectory, StepDcmBoundary, backward_recursion,
                          build_trajectory)
from .harness import (NoiseModel, Push, RunResult, Scenario,
                      compare_architectures, fall_detector, run_scenario,
                      scenario_from_dict)
from .kinematics import (KinematicModel, KinematicsCache, RobotState,
                         home_state, integrate_state, load_model, sample_biped)
from .lipm import PendulumParams, SimplifiedState, dcm_from_com, step_exact
from .qp import QpProblem, QpSolution, QpSolver, QpStatus, kkt_residuals
from .unicycle import (Footstep, FootSide, GaitTimeline, PlanInfeasibleError,
                       SwingTrajectory, UnicycleConfig, plan_footsteps,
                       swing_trajectory, timeline_from_footsteps)
from .wholebody import (TaskGains, WholeBodyController, WholeBodyReferences,
                        build_wholebody_qp)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
