import inspect

import pytest

from opsys.suites import SUITES, suite_duality_tower, suite_norm_sandwich


def test_suites_share_the_cli_flag_names():
    # every suite option is one of the `opsys suite` flags, under its name
    for suite in SUITES.values():
        options = set(inspect.signature(suite).parameters) - {"seed"}
        assert options <= {"samples", "levels", "depth"}, suite.__name__


@pytest.mark.parametrize("seed", [3, 12])
def test_norm_sandwich_suite_passes_at_small_samples(seed):
    checks = suite_norm_sandwich(seed, samples=10)
    assert len(checks) == 3
    assert all(c.status == "pass" for c in checks), [c.to_json() for c in checks]


@pytest.mark.parametrize("seed", [3, 12])
def test_duality_tower_suite_passes_at_small_samples(seed):
    checks = suite_duality_tower(seed, depth=3, levels=3, samples=10)
    assert len(checks) == 4
    assert all(c.status == "pass" for c in checks), [c.to_json() for c in checks]
