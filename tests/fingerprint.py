"""Behaviour fingerprint of the closed loop: eight short walks, sampled.

The runs are the four architectures, each noise-free and with the default
`NoiseModel()` at seed 0, for 6 s at 0.37 m/s. A run's fingerprint is its
length, its error string ("" when it ends without one) and every 10th row of
each trace column except the wall-clock `cycle_time`.

`test_fingerprint.py` compares the program against the checked-in fixture.
Run as a script,

    PYTHONPATH=src python tests/fingerprint.py [--write] [--fixture PATH]

it prints each run's largest deviation from the fixture and exits 1 when
any run deviates by more than ATOL (or differs in length, error or fields).
Only with `--write`, which a change that moves behaviour on purpose uses,
does it write the new fixture. `--fixture PATH` reads or writes PATH in
place of the checked-in fixture. To show that a change moves no trace,
write the fingerprint of a checkout of the parent commit to a spare file,
then compare the change against it: every deviation should read 0.
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

# As a script, BLAS runs single-threaded, set before numpy loads: with
# threaded OpenBLAS the MPC runs drift from a single-threaded fixture by up
# to about 3e-12, so a trace that did not move would not read 0.
if __name__ == "__main__":
    os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})

import numpy as np  # noqa: E402

from dcmwalk.harness import ARCHITECTURES, NoiseModel, Scenario, run_scenario  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "data" / "fingerprint.npz"
STRIDE = 10
SEED = 0
ATOL = 1e-9
TIMING_KEYS = ("cycle_time",)

BASE = Scenario(forward_velocity=0.37, duration=6.0)
RUNS = {f"{controller[:4]}_{mode[:3]}_{label}": replace(
            BASE, controller=controller, mode=mode, noise=noise)
        for controller, mode in ARCHITECTURES
        for label, noise in (("clean", NoiseModel.none()), ("noisy", NoiseModel()))}


def fingerprint(name):
    """Flat {"<run>/<field>": array} fingerprint of run `name`."""
    result = run_scenario(RUNS[name], seed=SEED)
    out = {f"{name}/length": np.array(len(result.traces["t"])),
           f"{name}/error": np.array(result.summary["error"] or "")}
    for key, column in result.traces.items():
        if key not in TIMING_KEYS:
            out[f"{name}/{key}"] = np.asarray(column)[::STRIDE]
    return out


def load_fixture(path=FIXTURE):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def deviation(new, old):
    """Largest absolute difference between two fingerprints of one run;
    inf when their fields, shapes, lengths or errors differ."""
    if set(new) != set(old):
        return np.inf
    worst = 0.0
    for key, a in new.items():
        b = old[key]
        if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
            return np.inf
        if a.dtype.kind == "U" or key.endswith("/length"):
            if not np.array_equal(a, b):
                return np.inf
        elif a.size:
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="write the new fingerprint to the fixture")
    parser.add_argument("--fixture", type=Path, default=FIXTURE,
                        help="the fixture file to compare with or write "
                             "(default: the checked-in one)")
    args = parser.parse_args(argv)
    old = load_fixture(args.fixture) if args.fixture.exists() else {}
    new = {}
    worst = 0.0
    for name in RUNS:
        run = fingerprint(name)
        prior = {k: v for k, v in old.items() if k.startswith(f"{name}/")}
        dev = deviation(run, prior) if prior else np.inf
        worst = max(worst, dev)
        shown = f"{dev:.3g}" if prior else "new"
        print(f"{name:16s} length {int(run[f'{name}/length']):4d}  "
              f"max deviation {shown}")
        new.update(run)
    if args.write:
        args.fixture.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(args.fixture, **new)
        print(f"wrote {args.fixture}")
        return 0
    return 0 if worst <= ATOL else 1


if __name__ == "__main__":
    sys.exit(main())
