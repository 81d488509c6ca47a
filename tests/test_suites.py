import inspect

import pytest

from opsys.suites import (
    SUITES,
    suite_duality_tower,
    suite_feasibility_oracle,
    suite_norm_sandwich,
)


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


@pytest.mark.parametrize("seed", [0, 3, 12])
def test_feasibility_oracle_cross_checks_the_kernel_past_iteration_1(seed):
    # Dykstra on proper-subsystem Choi problems against cp_verdict: every
    # pinned instance of the suite ends at iteration 1, these must not
    checks = suite_feasibility_oracle(seed, samples=2)
    cross = checks[-1]
    assert cross.name == "feasibility-oracle/kernel-cross-check"
    assert cross.status == "pass", cross.to_json()
    assert cross.evidence["grids"] == 80 and cross.evidence["undecided"] == 0
    assert cross.evidence["iterating"] >= 20
