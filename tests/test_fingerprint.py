"""The closed loop still behaves as the checked-in fingerprint records.

A refactor moves traces by rounding only (so far at most ~2e-11), while a
change of behaviour, such as a whole-body regularization of 1e-7 in place of
1e-8, moves them by 1e-8 or more. A change that alters behaviour on purpose
rewrites the fixture with `tests/fingerprint.py` and says so.
"""

import numpy as np
import pytest

from fingerprint import ATOL, RUNS, fingerprint, load_fixture


@pytest.fixture(scope="module")
def fixture():
    return load_fixture()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_fixture(name, fixture):
    new = fingerprint(name)
    old = {k: v for k, v in fixture.items() if k.startswith(f"{name}/")}
    assert sorted(new) == sorted(old)
    assert int(new[f"{name}/length"]) == int(old[f"{name}/length"])
    assert str(new[f"{name}/error"]) == str(old[f"{name}/error"])
    for key, value in new.items():
        if value.dtype.kind == "f":
            np.testing.assert_allclose(value, old[key], rtol=0.0, atol=ATOL, err_msg=key)
