import inspect

import pytest

from opsys import suites
from opsys.dual import faithful_state, is_positive_functional
from opsys.suites import (
    SUITES,
    suite_dual_equivalences,
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


@pytest.mark.parametrize("seed", [0, 3, 12])
def test_archimedean_premise_at_one_radius_matches_the_full_schedule(seed, monkeypatch):
    # r delta + f is positive for every r >= r0 once it is at r0 (delta >= 0),
    # so the premise at the smallest radius must agree with the whole
    # schedule 2^-1 .. 2^-20 on every functional the suite draws
    schedule = [2.0 ** -k for k in range(1, 21)]
    verdicts = []

    def recording(f, **kwargs):
        verdict = is_positive_functional(f, **kwargs)
        if not kwargs:  # the premise; the verdict on f itself passes tol
            delta = faithful_state(f.system)
            drawn = f - suites._ARCHIMEDEAN_RADIUS * delta
            reference = all(is_positive_functional(r * delta + drawn) for r in schedule)
            verdicts.append((verdict, reference))
        return verdict

    monkeypatch.setattr(suites, "is_positive_functional", recording)
    checks = suite_dual_equivalences(seed)
    assert all(c.status == "pass" for c in checks), [c.to_json() for c in checks]
    assert all(one == full for one, full in verdicts), verdicts
    # both verdicts occur: the draws test the premise, not only pass it
    assert {one for one, _ in verdicts} == {True, False}
