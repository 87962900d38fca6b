import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from legendrian_lab import cli


def run_cli(args):
    return cli.main(args)


def test_verify_torus_passes(tmp_path):
    out = tmp_path / "v"
    code = run_cli(["verify", "--surface", "legendrian-torus", "--theta", "0",
                    "--grid", "32", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert rep["S_max_dev"] <= 1e-9
    assert (out / "report.txt").exists()


def test_verify_clifford_records_non_legendrian(tmp_path):
    out = tmp_path / "v"
    code = run_cli(["verify", "--surface", "clifford-s3", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["legendrian"] is False
    assert rep["alpha_u_dev"] <= 1e-12


@pytest.mark.parametrize("surface", ["clifford-s3", "veronese-s4"])
def test_non_legendrian_verify_checks_the_tangent_frame_alone(surface, tmp_path):
    """With no normal frame to check, frame_orthonormality reads E1 and E2."""
    out = tmp_path / "v"
    assert run_cli(["verify", "--surface", surface, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["legendrian"] is False
    assert rep["frame_orthonormality"] <= 1e-12


def test_verify_equatorial_and_veronese(tmp_path):
    for surface in ("equatorial-legendrian-sphere", "veronese-s4"):
        out = tmp_path / surface
        assert run_cli(["verify", "--surface", surface, "--out", str(out)]) == 0


def test_verify_grid_seven_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--surface", "legendrian-torus", "--grid", "7",
                 "--out", str(tmp_path)])
    assert err.value.code == 2


def test_verify_unknown_surface_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--surface", "torus-of-revolution", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_verify_perturbed_fd4_orders(tmp_path):
    out = tmp_path / "p"
    code = run_cli(["verify", "--surface", "legendrian-torus", "--epsilon", "0.02",
                    "--scheme", "fd4", "--grid", "16", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    for key in ("reeb_pairing_order", "closedness_order", "omega_commutation_order",
                "weitzenbock_order"):
        assert rep[key] >= 3.5
    for key in cli._SPECTRAL_FLOOR:  # fd schemes keep the N/2N order fit, no floors
        assert {f"{key}_res_N", f"{key}_res_2N", f"{key}_order"} <= rep.keys()
        assert f"{key}_floor" not in rep
    assert "frame_orthonormality_N" in rep  # reported for every Legendrian grid, not gated


@pytest.mark.parametrize("seed", [2, 16])
def test_fd4_verify_at_64_fits_its_orders_on_half_n(seed, tmp_path):
    """Seed 16 has the lowest (32, 64) fd4 order of seeds 0-31 (3.83), seed 2 that of (16, 32)."""
    code = run_cli(["verify", "--epsilon", "0.02", "--scheme", "fd4", "--grid", "64",
                    "--seed", str(seed), "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    for key in cli._SPECTRAL_FLOOR:
        assert {f"{key}_res_N", f"{key}_res_halfN"} <= rep.keys()
        assert rep[f"{key}_order"] >= 3.5
    assert not [key for key in rep if key.endswith("_res_2N")]


def test_spectral_verify_fails_an_unresolved_grid_at_n(tmp_path):
    """At epsilon 0.3, N = 16 every residual (1.3e-2 to 2.4e-1) is far above its floor."""
    code = run_cli(["verify", "--epsilon", "0.3", "--grid", "16", "--out", str(tmp_path)])
    assert code == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["failed"].split(",") == [f"{key}_res_N" for key in cli._SPECTRAL_FLOOR]
    for key in cli._SPECTRAL_FLOOR:
        assert rep[f"{key}_res_N"] > rep[f"{key}_floor"]


@pytest.mark.parametrize("grid", [32, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_verify_passes_resolved_grids_at_n_alone(grid, seed, tmp_path):
    """Seed 2 holds the largest floor ratios at N = 32 among seeds 0-31."""
    code = run_cli(["verify", "--epsilon", "0.02", "--grid", str(grid), "--seed", str(seed),
                    "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    for key in cli._SPECTRAL_FLOOR:
        assert rep[f"{key}_res_N"] <= rep[f"{key}_floor"]
    assert not [key for key in rep if key.endswith(("_res_2N", "_order"))]


def test_verify_perturbed_fd2_orders_at_32(tmp_path):
    out = tmp_path / "p2"
    code = run_cli(["verify", "--surface", "legendrian-torus", "--epsilon", "0.02",
                    "--scheme", "fd2", "--grid", "32", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["reeb_pairing_order"] >= 1.8


def test_under_resolved_verify_trips_the_jh_tangency_guard(tmp_path, capsys):
    """fd2 at N=8 leaves J0 H off the tangent plane by 2.5e-3, above JH_TANGENCY_ABORT."""
    code = run_cli(["verify", "--epsilon", "0.02", "--grid", "8", "--scheme", "fd2",
                    "--out", str(tmp_path)])
    assert code == 1
    assert "JH tangency error" in capsys.readouterr().err


def test_verify_that_trips_the_jh_tangency_guard_still_writes_its_report(tmp_path, capsys):
    """Spectral N=16 at epsilon 0.3, seed 1: the residual pack aborts, the report names why."""
    code = run_cli(["verify", "--epsilon", "0.3", "--grid", "16", "--seed", "1",
                    "--out", str(tmp_path)])
    assert code == 1
    assert "JH tangency error" in capsys.readouterr().err
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["failed"] == "residual_pack_error" and rep["passed"] is False
    assert rep["residual_pack_error"].startswith("JH tangency error")


def test_integrals_torus(tmp_path):
    out = tmp_path / "i"
    assert run_cli(["integrals", "--surface", "legendrian-torus", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["I1"]) <= 1e-8
    assert abs(rep["Sigma_Simons"]) <= 1e-8


def test_integrals_clifford(tmp_path):
    out = tmp_path / "i"
    assert run_cli(["integrals", "--surface", "clifford-s3", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["I3"]) <= 1e-8


def test_integrals_perturbed_reports_simons(tmp_path):
    out = tmp_path / "i"
    assert run_cli(["integrals", "--surface", "legendrian-torus", "--epsilon", "0.02",
                    "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["Sigma_Simons"]) <= 1e-3


def test_flow_command_converges_and_writes_csv(tmp_path):
    out = tmp_path / "f"
    code = run_cli(["flow", "--surface", "legendrian-torus", "--epsilon", "0.02",
                    "--grid", "32", "--tol", "1e-4", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["converged"] is True
    with open(out / "flow.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "tau", "area", "div_JH_l2", "legendrian_residual",
                       "halvings", "frame", "rel_area_drop"]
    assert len(rows) == 1 + rep["steps"]


def test_flow_epsilon_zero_converges_at_step_zero(tmp_path):
    out = tmp_path / "f0"
    code = run_cli(["flow", "--epsilon", "0", "--grid", "16", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["steps"] == 0


def test_flow_failure_still_writes_reports(tmp_path):
    out = tmp_path / "fx"
    code = run_cli(["flow", "--epsilon", "0.02", "--grid", "16", "--max-steps", "3",
                    "--out", str(out)])
    assert code == 1
    assert (out / "flow.csv").exists()
    rep = json.loads((out / "report.json").read_text())
    assert rep["converged"] is False


def test_flow_whose_start_is_not_a_graph_still_writes_its_report(tmp_path, capsys):
    """Spectral N=16 at epsilon 0.3, seed 0: the start is refused, the report says why."""
    code = run_cli(["flow", "--epsilon", "0.3", "--grid", "16", "--seed", "0",
                    "--out", str(tmp_path)])
    assert code == 1
    assert "error: h is not a Legendrian graph" in capsys.readouterr().err
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["converged"] is False
    assert rep["start_error"].startswith("h is not a Legendrian graph")
    assert (rep["command"], rep["grid"], rep["epsilon"]) == ("flow", 16, 0.3)
    assert not (tmp_path / "flow.csv").exists()


@pytest.mark.parametrize("epsilon, grid, message", [
    ("2", "32", "Lagrangian angle leaves its branch"),
    ("5", "16", "degenerate or non-finite induced metric"),
])
def test_flow_whose_start_potential_is_refused_still_writes_its_report(epsilon, grid, message,
                                                                       tmp_path, capsys):
    """fd2 seed 0: a graph whose angle or det g start_flow refuses is a start_error too."""
    code = run_cli(["flow", "--epsilon", epsilon, "--grid", grid, "--scheme", "fd2",
                    "--seed", "0", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["converged"] is False
    assert rep["start_error"].startswith(message)
    assert (rep["command"], rep["grid"], rep["scheme"]) == ("flow", int(grid), "fd2")
    assert not (tmp_path / "flow.csv").exists()


def test_fd4_16_flow_stops_under_resolved_with_every_step_written(tmp_path):
    out = tmp_path / "f16"
    code = run_cli(["flow", "--epsilon", "0.02", "--grid", "16", "--scheme", "fd4",
                    "--out", str(out)])
    assert code == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["stop_reason"] == "under-resolved" and rep["steps"] > 0
    assert "error" not in rep
    with open(out / "flow.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + rep["steps"]
    assert float(rows[-1][2]) == rep["final_area"]


def test_reports_byte_identical_across_runs(tmp_path):
    args = ["integrals", "--surface", "legendrian-torus", "--epsilon", "0.02",
            "--seed", "0", "--grid", "16"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def _run_first_in_a_new_interpreter(argv, out):
    """The op's exit code when it is the first op of its process."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "legendrian_lab.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True).returncode


def test_main_keeps_no_state_between_in_process_calls(tmp_path):
    """flow, verify, integrals and verify again in one process write what each writes run first.

    build_parser runs once per process, and each parse returns a fresh
    namespace: a verify parsed after a flow carries none of the flow's
    options, which _validate reads with getattr defaults.
    """
    ops = {kind: [kind, "--epsilon", "0.02", "--grid", "16"]
           for kind in ("flow", "verify", "integrals")}
    codes = {kind: _run_first_in_a_new_interpreter(argv, tmp_path / f"first-{kind}")
             for kind, argv in ops.items()}
    for k, kind in enumerate(("flow", "verify", "integrals", "verify")):
        first, out = tmp_path / f"first-{kind}", tmp_path / f"{k}-{kind}"
        assert run_cli(ops[kind] + ["--out", str(out)]) == codes[kind]
        names = sorted(path.name for path in first.iterdir())
        assert {"report.json", "report.txt"} <= set(names)
        assert names == sorted(path.name for path in out.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (first / name).read_bytes(), (kind, name)
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    parser.parse_args(ops["flow"])
    args = parser.parse_args(ops["verify"])
    assert not any(hasattr(args, name) for name in ("tau0", "max_steps", "tol"))


def test_flow_csv_byte_identical_across_runs(tmp_path):
    # spectral N=16 is under-resolved for the default tol: the flow exits 1
    args = ["flow", "--epsilon", "0.02", "--grid", "16"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 1
    assert run_cli(args + ["--out", str(out2)]) == 1
    assert json.loads((out1 / "report.json").read_text())["stop_reason"] == "under-resolved"
    for name in ("report.json", "report.txt", "flow.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("argv,message", [
    (["verify", "--grid", "6"], "--grid must be even"),
    (["verify", "--grid", "514"], "--grid must be even"),
    (["flow", "--tol", "0"], "--tol must be positive"),
    (["flow", "--tau0", "-1"], "--tau0 must be positive"),
    (["verify", "--epsilon", "-1"], "--epsilon must be nonnegative"),
    (["integrals", "--epsilon", "0.02", "--surface", "clifford-s3"],
     "--epsilon applies to the legendrian-torus family only"),
    (["flow", "--max-steps", "0"], "--max-steps must be at least 1"),
    (["flow", "--surface", "clifford-s3"], "flow runs on the legendrian-torus family only"),
    (["flow", "--grid", "16", "--tol", "nan"], "--tol must be finite"),
    (["flow", "--grid", "16", "--epsilon", "nan"], "--epsilon must be finite"),
    (["flow", "--grid", "16", "--tau0", "nan", "--epsilon", "0.02"], "--tau0 must be finite"),
    (["verify", "--grid", "16", "--theta", "nan"], "--theta must be finite"),
    (["integrals", "--epsilon", "inf"], "--epsilon must be finite"),
    (["verify", "--surface", "clifford-s3", "--theta", "1.0"],
     "--theta applies to the legendrian-torus family only"),
    (["integrals", "--tol", "1e-3"], "unrecognized arguments"),
    (["verify", "--seed", "-1"], "--seed must be nonnegative"),
    (["integrals", "--epsilon", "0.02", "--seed", "-5"], "--seed must be nonnegative"),
])
def test_usage_errors_exit_2_without_reports(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--out", str(tmp_path)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("surface", ["equatorial-legendrian-sphere", "veronese-s4"])
def test_integrals_on_a_surface_that_is_not_doubly_periodic_is_a_usage_error(surface, tmp_path,
                                                                            capsys):
    """Grid operators need a torus; verify runs its pointwise suite on these surfaces instead."""
    with pytest.raises(SystemExit) as err:
        run_cli(["integrals", "--surface", surface, "--grid", "32", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert capsys.readouterr().err == (
        f"error: integrals needs a doubly periodic surface: {surface} is not a torus\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, epsilon", [
    ("verify", "1e308"), ("integrals", "1e200"), ("flow", "1e308"),
])
def test_an_overflowing_epsilon_is_one_error_line(command, epsilon, tmp_path, capsys):
    """A finite --epsilon whose Hamiltonian or exponential overflows: no traceback, no warning.

    Every command still writes its report, with the refusal as start_error.
    """
    message = f"exp(J0 M) of the contact Hamiltonian of max |f| = {float(epsilon):.3e} overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a float warning fails the test
        code = run_cli([command, "--epsilon", epsilon, "--grid", "16", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["start_error"].startswith(message)
    if command == "flow":
        assert rep["converged"] is False
        assert not (tmp_path / "flow.csv").exists()
    else:
        assert (rep["passed"], rep["failed"]) == (False, "start_error")


@pytest.mark.parametrize("epsilon, message", [
    ("100", "degenerate or non-finite induced metric"),
    ("500", "|E q|^2 of exp(J0 M) of the contact Hamiltonian of max |f| = 5.000e+02 overflows"),
])
@pytest.mark.parametrize("command", ["verify", "integrals"])
def test_a_start_that_cannot_be_built_is_reported_as_start_error(command, epsilon, message,
                                                                tmp_path, capsys):
    """verify and integrals write the refusal as their one failure, as the flow does.

    An overflowing exp(J0 M) (epsilon 1e308) is the test above.
    """
    code = run_cli([command, "--epsilon", epsilon, "--grid", "16", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["start_error"].startswith(message)
    assert (rep["passed"], rep["failed"]) == (False, "start_error")
    assert (rep["command"], rep["grid"], rep["seed"]) == (command, 16, 0)
    assert (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("command", ["verify", "integrals", "flow"])
def test_out_naming_a_file_is_a_usage_error_before_any_work(command, tmp_path, capsys,
                                                            monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    monkeypatch.setattr(cli, "_build_grid", lambda *a, **k: pytest.fail("work started"))
    monkeypatch.setattr(cli, "_pointwise_suite", lambda *a: pytest.fail("work started"))
    for out in (taken, taken / "sub"):
        with pytest.raises(SystemExit) as err:
            run_cli([command, "--out", str(out)])
        assert err.value.code == 2
        assert f"--out {str(out)!r}" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"
