import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsys import dual as dual_module
from opsys import linalg as la
from opsys.cli import (
    EXIT_DATA,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    exit_code_for,
    run,
)
from opsys.norms import norm_report
from opsys.systems import named_system

E12 = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]  # wire format for E_12


@pytest.fixture()
def e12_file(tmp_path):
    path = tmp_path / "e12.json"
    path.write_text(json.dumps(E12))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- exit code contract ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["pass", "fail", "undecided"])))
def test_exit_code_contract(statuses):
    code = exit_code_for(statuses)
    if any(s == "fail" for s in statuses):
        assert code == EXIT_FAIL
    elif any(s == "undecided" for s in statuses):
        assert code == EXIT_UNDECIDED
    else:
        assert code == EXIT_OK


def test_unknown_subcommand_usage_error(capsys):
    assert run(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag(capsys):
    assert run(["norm", "--element", "x.json"]) == EXIT_USAGE


def test_malformed_element_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2],")
    assert run(["norm", "--system", "full:2", "--element", str(bad)]) == EXIT_DATA


@pytest.mark.parametrize("entry", ["1e999", "NaN", "true"])
def test_non_finite_or_boolean_entry_rejected(tmp_path, capsys, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(f"[[[0, 0], [{entry}, 0]], [[0, 0], [0, 0]]]")
    argv = ["norm", "--system", "pauli-span", "--element", str(bad), "--kind", "min"]
    assert run(argv) == EXIT_DATA


@pytest.mark.parametrize("grid", [5, [], [5]], ids=["int", "empty", "int-row"])
def test_malformed_functional_grid(tmp_path, capsys, grid):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"grid": grid}))
    argv = ["dual", "check-cp", "--system", "pauli-span", "--functional", str(f)]
    assert run(argv) == EXIT_DATA


def test_non_list_system_generators(tmp_path, capsys, e12_file):
    s = tmp_path / "s.json"
    s.write_text(json.dumps({"d": 2, "generators": 5}))
    argv = ["norm", "--system", str(s), "--element", e12_file, "--kind", "min"]
    assert run(argv) == EXIT_DATA


def test_unknown_system_name(e12_file, capsys):
    assert run(["norm", "--system", "nope:2", "--element", e12_file]) == EXIT_DATA


ONE_BY_ONE = la.encode_matrix(np.eye(1))
THREE_BY_TWO = la.encode_matrix(np.ones((3, 2)))
CHECK_CP = ["dual", "check-cp", "--system", "pauli-span", "--functional", "FILE"]


@pytest.mark.parametrize("payload, argv", [
    ({"grid": [[E12, E12], [E12]]}, CHECK_CP),
    ({"grid": [[ONE_BY_ONE]]}, CHECK_CP),
    ({"d": 2, "generators": [ONE_BY_ONE]}, ["norm", "--system", "FILE", "--element", "E12"]),
    (THREE_BY_TWO, ["cone", "--system", "pauli-span", "--element", "FILE"]),
    (THREE_BY_TWO, ["norm", "--system", "pauli-span", "--element", "FILE"]),
], ids=["ragged-grid", "grid-cell", "system-generator", "cone-element", "norm-element"])
def test_wrong_shape_in_input_file_is_malformed(tmp_path, capsys, e12_file, payload, argv):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(payload))
    argv = [{"FILE": str(f), "E12": e12_file}.get(a, a) for a in argv]
    assert run(argv) == EXIT_DATA
    assert "input error" in capsys.readouterr().err


# -- norm command ------------------------------------------------------------------

def test_norm_min_value(capsys, e12_file):
    code, report = run_json(
        capsys,
        ["norm", "--system", "pauli-span", "--element", e12_file,
         "--kind", "min", "--json"],
    )
    assert code == EXIT_OK
    assert report["schema"] == "opsys-report/1"
    (check,) = report["checks"]
    assert check["evidence"]["min"] == pytest.approx(0.5, abs=1e-8)


def test_norm_full_report(capsys, e12_file):
    code, report = run_json(
        capsys,
        ["norm", "--system", "pauli-span", "--element", e12_file, "--json"],
    )
    assert code == EXIT_OK
    ev = report["checks"][0]["evidence"]
    assert ev["max_upper"] == pytest.approx(1.0, abs=1e-8)
    assert ev["h"] is None


def test_norm_kinds_read_the_norm_report(tmp_path, capsys, e12_file):
    # every --kind is the matching fields of one norm_report, to the bit;
    # h of a non-Hermitian element is an error (exit 2)
    s = named_system("pauli-span")
    h = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, 1.0]])
    h_file = tmp_path / "h.json"
    h_file.write_text(json.dumps(la.encode_matrix(h)))
    fields = {"h": ["h"], "min": ["min"], "max": ["max_lower", "max_upper"]}
    for path, element in ((str(h_file), h), (e12_file, la.decode_matrix(E12))):
        rep = norm_report(s, element).to_json()
        for kind, keys in fields.items():
            if kind == "h" and rep["h"] is None:
                continue
            argv = ["norm", "--system", "pauli-span", "--element", path, "--kind", kind, "--json"]
            code, report = run_json(capsys, argv)
            assert code == EXIT_OK
            assert report["checks"][0]["evidence"] == {key: rep[key] for key in keys}
    assert run(["norm", "--system", "pauli-span", "--element", e12_file, "--kind", "h"]) == EXIT_FAIL
    assert "Hermitian" in capsys.readouterr().err


# -- cone command --------------------------------------------------------------------

def test_cone_membership_exit_codes(tmp_path, capsys):
    eye = tmp_path / "eye.json"
    eye.write_text(json.dumps(la.encode_matrix(np.eye(2))))
    assert run(["cone", "--system", "pauli-span", "--element", str(eye)]) == EXIT_OK
    x = tmp_path / "x.json"
    x.write_text(json.dumps(la.encode_matrix(np.array([[0, 1], [1, 0]]))))
    assert run(["cone", "--system", "pauli-span", "--element", str(x)]) == EXIT_FAIL


# -- dual commands ---------------------------------------------------------------------

def test_check_cp_transpose(tmp_path, capsys):
    grid = [[la.encode_matrix(np.eye(2)[[i], :].T @ np.eye(2)[[j], :])
             for j in range(2)] for i in range(2)]
    payload = {"grid": grid}
    f = tmp_path / "transpose.json"
    f.write_text(json.dumps(payload))
    code = run(["dual", "check-cp", "--system", "full:2", "--functional", str(f)])
    assert code == EXIT_FAIL  # the transpose map is not CP


def test_check_cp_dump_on_full_algebra(tmp_path, capsys):
    # the full algebra exports its Choi problem too: 16 Hermitian-basis
    # pairings of M_4 that pin W to the transpose map's Choi matrix, the swap
    grid = [[la.encode_matrix(np.eye(2)[[i], :].T @ np.eye(2)[[j], :])
             for j in range(2)] for i in range(2)]
    f = tmp_path / "transpose.json"
    f.write_text(json.dumps({"grid": grid}))
    dump = tmp_path / "problem.json"
    code = run(["dual", "check-cp", "--system", "full:2", "--functional", str(f),
                "--dump-problem", str(dump)])
    assert code == EXIT_FAIL
    problem = json.loads(dump.read_text())
    assert problem["dim"] == 4 and len(problem["constraints"]) == 16
    pinned = sum(c["b"] * la.decode_matrix(c["a"]) for c in problem["constraints"])
    assert np.abs(pinned - np.eye(4)[[0, 2, 1, 3]]).max() <= 1e-12


def test_check_cp_identity_with_dump(tmp_path, capsys):
    grid = [[la.encode_matrix(np.eye(2)[[j], :].T @ np.eye(2)[[i], :])
             for j in range(2)] for i in range(2)]
    f = tmp_path / "identity.json"
    f.write_text(json.dumps({"grid": grid}))
    dump = tmp_path / "problem.json"
    code = run([
        "dual", "check-cp", "--system", "pauli-span", "--functional", str(f),
        "--dump-problem", str(dump),
    ])
    assert code == EXIT_OK
    problem = json.loads(dump.read_text())
    assert problem["dim"] == 4
    assert len(problem["constraints"]) == 12  # n^2 * dim = 4 * 3


def test_check_cp_json_evidence(tmp_path, capsys):
    def grid_file(name, transpose):
        grid = [[la.encode_matrix(la.basis_matrix(2, i, j) if transpose
                                  else la.basis_matrix(2, j, i))
                 for j in range(2)] for i in range(2)]
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps({"grid": grid}))
        return str(f)

    def evidence(system, f):
        argv = ["dual", "check-cp", "--system", system, "--functional", f, "--json"]
        return run_json(capsys, argv)

    code, report = evidence("full:2", grid_file("transpose", True))
    assert code == EXIT_FAIL
    ev = report["checks"][0]["evidence"]
    assert ev["iterations"] == 0 and ev["certified"] is True
    # on a proper subsystem the iterations are the section kernel's Newton
    # steps
    before = dual_module.kernel_counts()
    code, report = evidence("pauli-span", grid_file("identity", False))
    assert code == EXIT_OK
    ev = report["checks"][0]["evidence"]
    assert ev["iterations"] >= 1 and ev["certified"] is True
    assert ev["iterations"] == dual_module.kernel_counts(since=before)["iterations"]
    # the counts are deterministic, so the report is byte-stable
    again = evidence("pauli-span", grid_file("identity", False))[1]
    assert again["checks"] == report["checks"]


def test_choi_effros_command(capsys):
    code, report = run_json(
        capsys,
        ["dual", "choi-effros", "--system", "full:2", "--seed", "3",
         "--levels", "2", "--samples", "3", "--json"],
    )
    assert code == EXIT_OK
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)


def test_choi_effros_reports_kernel_counts(capsys):
    for system in ("pauli-span", "toeplitz:3"):
        argv = ["dual", "choi-effros", "--system", system, "--seed", "3",
                "--levels", "2", "--samples", "2", "--json"]
        code, report = run_json(capsys, argv)
        assert code == EXIT_OK
        unit = next(c for c in report["checks"] if c["name"] == "dual/choi-effros/order-unit")
        counts = unit["evidence"]["kernel"]
        assert counts["solves"] >= 3
        if system == "pauli-span":
            # every radius is the ambient one, certified at the start point
            assert counts["iterations"] == 0 and counts["certified"] == counts["solves"]
        else:
            assert counts["iterations"] >= counts["solves"]
        # counts, never times: the evidence is byte-stable
        assert run_json(capsys, argv)[1]["checks"] == report["checks"]


def test_undecided_radius_exits_undecided(capsys, monkeypatch):
    # every Newton step breaks down: on toeplitz:3 no radius certifies at
    # the start point, and the start point is no witness that none exists,
    # so the first radius solve raises UndecidedError, which exits 3 with
    # a message and no report rather than 2
    def breakdown(*args):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(dual_module, "_step", breakdown)
    code = run(["dual", "choi-effros", "--system", "toeplitz:3", "--seed", "3",
                "--levels", "2", "--samples", "2", "--json"])
    captured = capsys.readouterr()
    assert code == EXIT_UNDECIDED
    assert captured.out == ""
    assert captured.err.startswith("undecided: radius solve ended")


def test_choi_effros_runs_the_suite_checks_on_a_full_algebra(capsys):
    # the closed-form radius against the d lambda_max oracle, and one
    # schedule-passing functional per --samples
    code, report = run_json(
        capsys,
        ["dual", "choi-effros", "--system", "full:2", "--seed", "3",
         "--levels", "2", "--samples", "4", "--json"],
    )
    assert code == EXIT_OK
    checks = {c["name"]: c for c in report["checks"]}
    assert set(checks) == {"dual/choi-effros/faithful", "dual/choi-effros/order-unit",
                           "dual/choi-effros/archimedean"}
    assert checks["dual/choi-effros/order-unit"]["evidence"]["oracle_gap"] <= 1e-5
    assert checks["dual/choi-effros/archimedean"]["evidence"]["checked"] == 4


# -- tower commands -----------------------------------------------------------------------

def test_tower_build(capsys):
    code, report = run_json(
        capsys, ["tower", "build", "--spec", "matrix-doubling:3", "--json"]
    )
    assert code == EXIT_OK
    assert "M_8" in report["checks"][0]["detail"]


def test_tower_verify_duality(capsys):
    code, report = run_json(
        capsys,
        ["tower", "verify-duality", "--depth", "3", "--levels", "2",
         "--samples", "8", "--seed", "1", "--json"],
    )
    assert code == EXIT_OK, report


ON_BASIS_1x1 = {"matrix_on_basis": [[[1, 0]]]}


@pytest.mark.parametrize("spec, message", [
    ({"systems": "full:2", "embeddings": []}, "must be arrays"),
    ({"systems": ["full:1", "full:2"], "embeddings": ON_BASIS_1x1}, "must be arrays"),
    ({"systems": ["full:1", "full:2"], "embeddings": [5]}, "must be an object"),
    ({"systems": ["full:2"], "embeddings": [ON_BASIS_1x1]}, "need 0 embeddings"),
    ({"systems": ["full:1", "full:2", "full:4"],
      "embeddings": [{"matrix_on_basis": [[[1, 0]], [[0, 0]], [[0, 0]], [[0, 0]]]}]},
     "need 2 embeddings"),
    ({"systems": ["full:2", "full:4"], "embeddings": [ON_BASIS_1x1]}, "expected (16, 4)"),
], ids=["systems-string", "embeddings-object", "entry-number", "too-many", "too-few",
        "wrong-shape"])
def test_malformed_tower_json(tmp_path, capsys, spec, message):
    f = tmp_path / "tower.json"
    f.write_text(json.dumps(spec))
    assert run(["tower", "build", "--spec", str(f)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "input error" in err and message in err


def test_json_tower_transpose_rejected_and_doubling_built(tmp_path, capsys):
    # a coefficient embedding on a full source is certified by its Choi
    # matrix before it is turned into Kraus form: the transpose is refused
    s = named_system("full:2")
    transpose = s.stack_coords(s.basis.swapaxes(1, 2)).T
    f = tmp_path / "tower.json"
    f.write_text(json.dumps({"systems": ["full:2", "full:2"],
                             "embeddings": [{"matrix_on_basis": la.encode_matrix(transpose)}]}))
    assert run(["tower", "build", "--spec", str(f)]) == EXIT_FAIL
    assert "not completely positive" in capsys.readouterr().err
    s4 = named_system("full:4")
    doubling = s4.stack_coords(np.stack([np.kron(b, np.eye(2)) for b in s.basis])).T
    f.write_text(json.dumps({"systems": ["full:2", "full:4"],
                             "embeddings": [{"matrix_on_basis": la.encode_matrix(doubling)}]}))
    assert run(["tower", "verify-duality", "--spec", str(f), "--samples", "8"]) == EXIT_OK


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_json_tower_depolarizing_not_order_reflecting(tmp_path, capsys, eps):
    # x -> (1 - eps) x + eps tr(x)/2 I is unital, CP and injective on M_2,
    # but its inverse is not positive: the build fails with exit 2
    s = named_system("full:2")
    images = (1 - eps) * s.basis + eps * np.einsum("kii->k", s.basis)[:, None, None] / 2 * np.eye(2)
    f = tmp_path / "tower.json"
    f.write_text(json.dumps({"systems": ["full:2", "full:2"],
                             "embeddings": [{"matrix_on_basis": la.encode_matrix(
                                 s.stack_coords(images).T)}]}))
    assert run(["tower", "build", "--spec", str(f)]) == EXIT_FAIL
    assert "embedding 1 is not order reflecting" in capsys.readouterr().err


# -- suites and determinism ------------------------------------------------------------------

def test_suite_feasibility_oracle(capsys):
    code, report = run_json(
        capsys,
        ["suite", "feasibility-oracle", "--seed", "7", "--samples", "20", "--json"],
    )
    assert code == EXIT_OK
    assert all(c["status"] == "pass" for c in report["checks"])
    assert all(c["op"] for c in report["checks"])


@pytest.mark.parametrize("argv, config", [
    (["choi-effros", "--levels", "2", "--samples", "2"], {"levels": 2, "samples": 2}),
    (["duality-tower", "--depth", "3", "--levels", "3"], {"depth": 3, "levels": 3}),
    (["duality-tower", "--depth", "3", "--levels", "2", "--samples", "3"],
     {"depth": 3, "levels": 2, "samples": 3}),
    # norm-sandwich takes no depth: the flag is a usage error
    (["norm-sandwich", "--depth", "3", "--samples", "4"], None),
], ids=["choi-effros", "duality-tower", "duality-tower-all-flags", "norm-sandwich"])
def test_suite_flags_reach_the_suites_that_take_them(capsys, argv, config):
    if config is None:
        assert run(["suite", *argv, "--seed", "3", "--json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --depth: suite norm-sandwich does not take it" in captured.err
        return
    code, report = run_json(capsys, ["suite", *argv, "--seed", "3", "--json"])
    assert code == EXIT_OK
    assert report["config"] == {"suite": argv[0], **config}
    if argv[0] == "duality-tower":
        gamma = next(c for c in report["checks"] if c["name"] == "duality-tower/gamma")
        assert gamma["detail"].endswith("at depth 3")


SEED_1, TOL_1E3 = ["--seed", "1"], ["--tol", "1e-3"]
# each argv runs and exits 0 without its last flag and value
UNREAD_SETTINGS = {
    "norm-seed": ["norm", "--system", "pauli-span", "--element", "EYE", *SEED_1],
    "cone-seed": ["cone", "--system", "pauli-span", "--element", "EYE", *SEED_1],
    "check-cp-seed": ["dual", "check-cp", "--system", "pauli-span", "--functional", "RIESZ",
                      *SEED_1],
    "build-seed": ["tower", "build", "--spec", "matrix-doubling:2", *SEED_1],
    "build-tol": ["tower", "build", "--spec", "matrix-doubling:2", *TOL_1E3],
    "choi-effros-tol": ["dual", "choi-effros", "--system", "full:2", "--levels", "1",
                        "--samples", "1", *TOL_1E3],
    "verify-duality-tol": ["tower", "verify-duality", "--depth", "2", "--levels", "1",
                           "--samples", "1", *TOL_1E3],
    "suite-tol": ["suite", "mou-unit", "--samples", "1", *TOL_1E3],
    "verify-duality-spec-depth": ["tower", "verify-duality", "--spec", "corner:3",
                                  "--levels", "1", "--samples", "1", "--depth", "3"],
    **{f"{name}-depth": ["suite", name, "--samples", "1", "--depth", "2"]
       for name in ["norm-sandwich", "mou-unit", "choi-effros", "dual-equivalences",
                    "feasibility-oracle"]},
    **{f"{name}-levels": ["suite", name, "--samples", "1", "--levels", "2"]
       for name in ["norm-sandwich", "mou-unit", "dual-equivalences", "feasibility-oracle"]},
}


@pytest.mark.parametrize("case", sorted(UNREAD_SETTINGS))
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, case):
    # each of these settings used to be accepted and then read by nothing
    # (a suite or --spec dropped the flag, a command never drew randomness
    # or compared against a tolerance)
    files = {"EYE": la.encode_matrix(np.eye(2)), "RIESZ": {"riesz": la.encode_matrix(np.eye(2))}}
    for key, payload in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(payload))
    argv = [str(tmp_path / f"{a}.json") if a in files else a for a in UNREAD_SETTINGS[case]]
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and argv[-2] in captured.err


@pytest.mark.parametrize("argv, usage", [
    (["tower", "build", "--spec", "matrix-doubling:2", "--seed", "1"], "opsys tower build"),
    (["suite", "mou-unit", "--depth", "3"], "opsys suite"),
    (["tower", "verify-duality", "--spec", "corner:3", "--depth", "3"],
     "opsys tower verify-duality"),
    (["dual", "check-cp", "--system", "full:2"], "opsys dual check-cp"),
    (["tower"], "opsys tower"),
    (["frobnicate"], "opsys"),
], ids=["unrecognized", "suite-flag", "exclusive", "missing", "no-subcommand", "top-level"])
def test_usage_error_prints_the_failed_commands_usage(capsys, argv, usage):
    # every usage error used to print the top-level usage line
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage: {usage} [-h]" in err
    if usage != "opsys":
        assert "usage: opsys [-h]" not in err


def test_report_deterministic_modulo_elapsed(capsys):
    argv = ["suite", "mou-unit", "--seed", "5", "--json"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_env_tol_override(tmp_path, capsys, monkeypatch):
    # a loose enough OPSYS_TOL lets a slightly negative element pass the cone
    elem = tmp_path / "near.json"
    elem.write_text(json.dumps(la.encode_matrix(np.diag([1.0, -1e-4]))))
    assert run(["cone", "--system", "diag:2", "--element", str(elem)]) == EXIT_FAIL
    monkeypatch.setenv("OPSYS_TOL", "1e-3")
    assert run(["cone", "--system", "diag:2", "--element", str(elem)]) == EXIT_OK
    # the explicit flag wins over the environment
    assert run(["cone", "--system", "diag:2", "--element", str(elem),
                "--tol", "1e-8"]) == EXIT_FAIL


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
def test_tolerance_must_be_positive_and_finite(tmp_path, capsys, monkeypatch, bad, via):
    # a NaN tolerance used to put the identity outside the cone (exit 2)
    eye = tmp_path / "eye.json"
    eye.write_text(json.dumps(la.encode_matrix(np.eye(2))))
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"riesz": la.encode_matrix(np.eye(2))}))
    commands = [["cone", "--system", "pauli-span", "--element", str(eye)],
                ["dual", "check-cp", "--system", "pauli-span", "--functional", str(f)]]
    if via == "env":
        monkeypatch.setenv("OPSYS_TOL", bad)
    for argv in commands:
        assert run(argv + (["--tol", bad] if via == "flag" else [])) == EXIT_DATA


SEEDED_COMMANDS = {
    "suite": ["suite", "mou-unit"],
    "choi-effros": ["dual", "choi-effros", "--system", "toeplitz:3"],
    "verify-duality": ["tower", "verify-duality"],
}
BAD_COUNTS = [("--seed", "-1"), ("--samples", "0"), ("--samples", "-3"),
              ("--levels", "0"), ("--levels", "-1"), ("--depth", "0"), ("--depth", "-1")]


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command in SEEDED_COMMANDS for flag, value in BAD_COUNTS
    if not (command == "choi-effros" and flag == "--depth")  # takes no depth
])
def test_negative_seed_and_nonpositive_counts_are_usage_errors(capsys, command, flag, value):
    # a negative seed used to crash the generator (exit 1), and a zero or
    # negative count to check nothing and report pass
    assert run(SEEDED_COMMANDS[command] + [flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected an integer >= " in captured.err


def test_check_cp_tolerance_default_and_env(tmp_path, capsys, monkeypatch):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"riesz": la.encode_matrix(np.eye(2))}))
    argv = ["dual", "check-cp", "--system", "pauli-span", "--functional", str(f), "--json"]
    code, report = run_json(capsys, argv)
    assert code == EXIT_OK and report["config"]["tol"] == 1e-7
    monkeypatch.setenv("OPSYS_TOL", "1e-6")
    code, report = run_json(capsys, argv)
    assert code == EXIT_OK and report["config"]["tol"] == 1e-6
