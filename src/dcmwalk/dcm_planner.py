"""DCM reference generation: backward recursion, exponential single-support
segments and cubic double-support blending.

Each step i has a stance ZMP r_i, a duration t_i and DCM boundary values
(ios, eos) linked by the exponential solution

    xi(tau) = r_i + e^{w (tau - t_i)} (eos_i - r_i),   tau in [0, t_i]

with step-local time tau. The recursion pins the last end-of-step DCM on the
final ZMP and chains eos_{i-1} = ios_i backwards. Double-support windows are
placed symmetrically around each junction and filled with a Hermite cubic
matching position and velocity of the adjacent exponentials, which makes the
trajectory C1 and the implied ZMP r = xi - xidot / w continuous.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .unicycle import _hermite_coeffs, _hermite_eval


@dataclass(frozen=True)
class StepDcmBoundary:
    xi_ios: np.ndarray
    xi_eos: np.ndarray
    r_zmp: np.ndarray
    t_step: float

    def __post_init__(self):
        if self.t_step <= 0.0:
            raise ValueError("t_step must be positive")
        for v in (self.xi_ios, self.xi_eos, self.r_zmp):
            if not np.all(np.isfinite(v)):
                raise ValueError("boundary values must be finite")


def backward_recursion(zmp_refs, durations, omega):
    """Per-step DCM boundaries from stance ZMPs.

    `zmp_refs` holds one ZMP per stance interval plus the terminal ZMP the
    DCM comes to rest on (M entries); `durations` holds the M-1 interval
    lengths. Returns M-1 boundaries ordered in time.
    """
    if len(zmp_refs) < 2:
        raise ValueError("need at least two ZMP references")
    if len(durations) != len(zmp_refs) - 1:
        raise ValueError("need exactly one duration per stance interval")
    if any(t <= 0.0 for t in durations):
        raise ValueError("durations must be positive")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    refs = [np.asarray(r, dtype=float).reshape(2) for r in zmp_refs]
    n_steps = len(refs) - 1
    boundaries = [None] * n_steps
    eos = refs[-1]
    for i in range(n_steps - 1, -1, -1):
        r = refs[i]
        t = durations[i]
        ios = r + np.exp(-omega * t) * (eos - r)
        boundaries[i] = StepDcmBoundary(xi_ios=ios, xi_eos=eos, r_zmp=r, t_step=t)
        eos = ios
    return boundaries


@dataclass(frozen=True)
class ExponentialSegment:
    """Single-support DCM segment, evaluable (extrapolation included)."""

    r_zmp: np.ndarray
    xi_eos: np.ndarray
    t_step: float
    t_origin: float   # global time of step-local tau = 0
    t_start: float    # active interval
    t_end: float

    def eval_with(self, t, omega):
        tau = t - self.t_origin
        e = np.exp(omega * (tau - self.t_step))
        delta = self.xi_eos - self.r_zmp
        return self.r_zmp + e * delta, omega * e * delta


@dataclass(frozen=True)
class CubicSegment:
    """Double-support blending segment: per-axis cubic in local time."""

    coeffs: np.ndarray  # (2, 4): a0..a3 per axis
    t_start: float
    t_end: float

    def eval_with(self, t, omega):
        return _hermite_eval(self.coeffs.T, t - self.t_start)


def ss_segment(boundary, omega, t_origin=0.0):
    """Exponential segment of one step, active on its full interval."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return ExponentialSegment(r_zmp=boundary.r_zmp, xi_eos=boundary.xi_eos,
                              t_step=boundary.t_step, t_origin=t_origin,
                              t_start=t_origin, t_end=t_origin + boundary.t_step)


def ds_segment(xi_start, xid_start, xi_end, xid_end, interval):
    """Hermite cubic matching the four position/velocity boundary conditions."""
    t0, t1 = interval
    T = t1 - t0
    if T <= 0.0:
        raise ValueError("degenerate double-support interval")
    p0 = np.asarray(xi_start, dtype=float).reshape(2)
    v0 = np.asarray(xid_start, dtype=float).reshape(2)
    p1 = np.asarray(xi_end, dtype=float).reshape(2)
    v1 = np.asarray(xid_end, dtype=float).reshape(2)
    return CubicSegment(coeffs=_hermite_coeffs(p0, v0, p1, v1, T).T, t_start=t0, t_end=t1)


@dataclass(frozen=True)
class DcmTrajectory:
    """Piecewise DCM reference, evaluable for position and velocity."""

    segments: tuple
    omega: float

    def __post_init__(self):
        # The segment starts, searched by `eval` and `eval_many`.
        object.__setattr__(self, "_starts", [s.t_start for s in self.segments])

    def _segment_at(self, t):
        i = bisect_right(self._starts, t) - 1
        i = min(max(i, 0), len(self.segments) - 1)
        return self.segments[i]

    def eval(self, t):
        return self._segment_at(t).eval_with(t, self.omega)

    def eval_many(self, times):
        """`eval` at every time of the array `times`, gathered: the DCM and
        its rate, each of shape `times.shape + (2,)`, bit for bit what
        `eval` returns. `eval_with` runs once per segment on a column of its
        times, with the same operations in the same order."""
        times = np.asarray(times, dtype=float)
        index = np.clip(np.searchsorted(self._starts, times, side="right") - 1,
                        0, len(self.segments) - 1)
        xi, xid = np.empty(times.shape + (2,)), np.empty(times.shape + (2,))
        for i in set(index.ravel().tolist()):
            at = index == i
            xi[at], xid[at] = self.segments[i].eval_with(times[at][:, None], self.omega)
        return xi, xid

    def dcm(self, t):
        return self.eval(t)[0]

    @property
    def t_start(self):
        return self.segments[0].t_start

    @property
    def t_end(self):
        return self.segments[-1].t_end


def build_trajectory(timeline, omega, ds_ratio=0.2):
    """DCM reference for a whole gait timeline.

    The double-support blending window at each junction has total width
    ds_ratio times the shorter adjacent interval, split symmetrically around
    the junction; the terminal stance holds the final ZMP.
    """
    zmps, durations = timeline.step_sequence()
    horizon = timeline.horizon
    if len(zmps) == 0:
        raise ValueError("timeline has no stance phases")
    if len(zmps) == 1:
        # Stationary timeline: DCM rests on the only ZMP.
        final = np.asarray(zmps[0], dtype=float).reshape(2)
        rest = ExponentialSegment(r_zmp=final, xi_eos=final, t_step=1.0,
                                  t_origin=0.0, t_start=0.0, t_end=horizon)
        return DcmTrajectory(segments=(rest,), omega=omega)

    boundaries = backward_recursion(zmps, durations, omega)
    n = len(boundaries)
    origins = np.concatenate([[0.0], np.cumsum(durations)])
    final = np.asarray(zmps[-1], dtype=float).reshape(2)
    terminal = ExponentialSegment(r_zmp=final, xi_eos=final, t_step=1.0,
                                  t_origin=origins[-1], t_start=origins[-1], t_end=horizon)

    exp_segments = [ss_segment(b, omega, t_origin=origins[i])
                    for i, b in enumerate(boundaries)] + [terminal]
    final_stand = horizon - origins[-1]
    widths = []
    for j in range(1, n + 1):
        left = durations[j - 1]
        right = durations[j] if j < n else max(final_stand, 1e-9)
        widths.append(0.5 * ds_ratio * min(left, right))

    segments = []
    cursor_start = 0.0
    for j in range(1, n + 1):
        junction = origins[j]
        h = widths[j - 1]
        prev_seg = exp_segments[j - 1]
        next_seg = exp_segments[j]
        seg = ExponentialSegment(r_zmp=prev_seg.r_zmp, xi_eos=prev_seg.xi_eos,
                                 t_step=prev_seg.t_step, t_origin=prev_seg.t_origin,
                                 t_start=cursor_start, t_end=junction - h)
        segments.append(seg)
        if h > 0.0:
            xi_a, xid_a = prev_seg.eval_with(junction - h, omega)
            xi_b, xid_b = next_seg.eval_with(junction + h, omega)
            segments.append(ds_segment(xi_a, xid_a, xi_b, xid_b,
                                       (junction - h, junction + h)))
        cursor_start = junction + h
    segments.append(ExponentialSegment(r_zmp=terminal.r_zmp, xi_eos=terminal.xi_eos,
                                       t_step=terminal.t_step, t_origin=terminal.t_origin,
                                       t_start=cursor_start, t_end=horizon))
    return DcmTrajectory(segments=tuple(segments), omega=omega)
