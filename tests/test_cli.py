"""End-to-end command line coverage, in process via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import threshlab
import threshlab.cli
from threshlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv):
    """main's return value, or the status of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def triangles4(tmp_path, capsys):
    path = tmp_path / "t4.txt"
    code, _, _ = run(capsys, "gen", "triangles", "4", "--out", str(path))
    assert code == 0
    return str(path)


def test_gen_writes_readable_text(tmp_path, capsys):
    path = tmp_path / "s3.txt"
    code, out, _ = run(capsys, "gen", "singletons", "3", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == "n 3\n0\n1\n2\n"


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "singletons", "2")
    assert code == 0
    assert out == "n 2\n0\n1\n"


def test_gen_unknown_family_fails(capsys):
    code, _, err = run(capsys, "gen", "widgets", "3")
    assert code == 2
    assert "error:" in err


def test_gen_wrong_arity_fails(capsys):
    code, _, err = run(capsys, "gen", "triangles")
    assert code == 2
    assert "error:" in err


def test_qsmall_fixed_q(triangles4, capsys):
    code, out, _ = run(capsys, "qsmall", triangles4, "--q", "0.5")
    assert code == 0
    assert "q-small" in out and "not q-small" not in out
    assert "min cover weight = 0.5" in out


def test_qsmall_default_reports_max_small_q(triangles4, capsys):
    code, out, _ = run(capsys, "qsmall", triangles4)
    assert code == 0
    value = float(out.split("=")[1])
    assert abs(value - 0.5) <= 1e-6


def test_qsmall_trivial_instance(tmp_path, capsys):
    path = tmp_path / "trivial.txt"
    path.write_text("n 2\n-\n")
    code, out, _ = run(capsys, "qsmall", str(path))
    assert code == 0
    assert "trivial" in out
    # at a fixed q the question still has an answer: the forced cover {{}}
    code, out, _ = run(capsys, "qsmall", str(path), "--q", "0.5")
    assert code == 0
    assert "not q-small" in out
    assert "min cover weight = 1" in out


def test_certificate_round_trip(triangles4, tmp_path, capsys):
    cert = tmp_path / "cover.json"
    code, out, _ = run(
        capsys, "qsmall", triangles4, "--q", "0.5", "--cert", str(cert)
    )
    assert code == 0 and "certificate written" in out
    code, out, _ = run(capsys, "check-cert", triangles4, str(cert))
    assert code == 0
    assert out == "PASS certificate valid\n"


def test_tampered_certificate_rejected(triangles4, tmp_path, capsys):
    cert = tmp_path / "cover.json"
    run(capsys, "qsmall", triangles4, "--q", "0.5", "--cert", str(cert))
    doc = json.loads(cert.read_text())
    doc["weight"] = doc["weight"] / 2
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check-cert", triangles4, str(cert))
    assert code == 1
    assert "FAIL certificate rejected" in out
    assert "differs from recomputed" in out
    doc["weight"] = float("nan")  # json writes and reads it as NaN
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check-cert", triangles4, str(cert))
    assert code == 1
    assert "stored weight nan differs from recomputed" in out


def test_certificate_member_outside_ground_set_is_a_fail(triangles4, tmp_path, capsys):
    cert = tmp_path / "cover.json"
    run(capsys, "qsmall", triangles4, "--q", "0.5", "--cert", str(cert))
    doc = json.loads(cert.read_text())
    doc["edges"].append([0, 6])
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check-cert", triangles4, str(cert))
    assert code == 1
    assert "FAIL certificate rejected" in out
    assert "member {0, 6} outside ground set of size 6" in out


def test_oversized_inputs_are_format_errors(triangles4, tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("n 10000000000\n")
    code, _, err = run(capsys, "qsmall", str(huge))
    assert code == 2 and "exceeds the limit" in err
    cert = tmp_path / "cover.json"
    cert.write_text(json.dumps(
        {"ground_size": 10**12, "q": 0.5, "weight": 0.5, "edges": [[10**12 - 1]]}
    ))
    code, _, err = run(capsys, "check-cert", triangles4, str(cert))
    assert code == 2 and "bad certificate" in err
    # Inside the ground-size cap, many members on the top vertex still add up.
    top = (1 << 20) - 1
    huge.write_text(f"n {top + 1}\n" + f"{top}\n" * 300)
    code, _, err = run(capsys, "qsmall", str(huge))
    assert code == 2 and "bits in total" in err
    cert.write_text(json.dumps(
        {"ground_size": top + 1, "q": 0.5, "weight": 0.5, "edges": [[top]] * 300}
    ))
    code, _, err = run(capsys, "check-cert", triangles4, str(cert))
    assert code == 2 and "bits in total" in err


def test_spread_output(triangles4, capsys):
    code, out, _ = run(capsys, "spread", triangles4)
    assert code == 0
    kappa = float(out.splitlines()[0].split("=")[1])
    assert abs(kappa - 4 ** (1 / 3)) <= 1e-9
    assert "witness = [0, 1, 3]" in out
    assert "1 of 4 edges" in out


def test_pc_exact(tmp_path, capsys):
    path = tmp_path / "s2.txt"
    run(capsys, "gen", "singletons", "2", "--out", str(path))
    code, out, _ = run(capsys, "pc", str(path))
    assert code == 0
    value = float(out.split("=")[1])
    assert abs(value - (1 - 2 ** (-1 / 2))) <= 1e-7


def test_pc_mc_is_deterministic(triangles4, capsys):
    argv = ("pc", triangles4, "--mc", "--trials", "512", "--seed", "9")
    code, first, _ = run(capsys, *argv)
    assert code == 0 and "samples)" in first
    _, second, _ = run(capsys, *argv)
    assert first == second


def run_on_two_singletons(tmp_path, *argv):
    """Run `threshlab <argv[0]> <two-singleton file> <argv[1:]>` in a
    subprocess with a timeout, which turns a hang into a failure."""
    path = tmp_path / "s2.txt"
    path.write_text("n 2\n0\n1\n")
    src = str(Path(threshlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "threshlab", argv[0], str(path), *argv[1:]],
        capture_output=True, text=True, timeout=30, env=env,
    )


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_pc_nonpositive_tol_exits_2(tmp_path, tol):
    # Such a tol once made the exact bisection spin forever on adjacent floats.
    proc = run_on_two_singletons(tmp_path, "pc", "--tol", tol)
    assert proc.returncode == 2
    assert "tol must be finite and positive" in proc.stderr


@pytest.mark.parametrize("command, answer", [("pc", 0.2928932188134524), ("qsmall", 0.25)])
def test_tol_below_float_spacing_ends(tmp_path, command, answer):
    # 1e-20 is below the float spacing at either answer: the bisection once
    # spun there forever, and now stops on adjacent floats.
    proc = run_on_two_singletons(tmp_path, command, "--tol", "1e-20")
    assert proc.returncode == 0
    assert float(proc.stdout.split("=")[1]) == answer


@pytest.mark.parametrize(
    "command, tol",
    [("pc", "nan"), ("pc", "inf"), ("qsmall", "nan"), ("qsmall", "inf"), ("qsmall", "0")],
)
def test_bad_tol_exits_2(triangles4, capsys, command, tol):
    # nan or inf once ended the bisection before its first step, printing 0.5
    code, out, err = run(capsys, command, triangles4, "--tol", tol)
    assert code == 2 and out == ""
    assert "tol must be finite and positive" in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_pc_mc_bad_tol_exits_2(triangles4, capsys, tol):
    # the Monte Carlo bisection once ran on such a tol and exited 0
    code, out, err = run(
        capsys, "pc", triangles4, "--mc", "--trials", "64", "--tol", tol
    )
    assert code == 2 and out == ""
    assert "tol must be finite and positive" in err


def test_explicit_zero_trials_exits_2(triangles4, tmp_path, capsys):
    code, _, err = run(capsys, "pc", triangles4, "--mc", "--trials", "0")
    assert code == 2 and "trials must be positive" in err
    code, _, err = run(capsys, "verify", "fragweight", triangles4, "--trials", "0")
    assert code == 2 and "trials must be positive" in err
    # the exact route never samples, but an explicit 0 is still refused
    path = tmp_path / "s8.txt"
    run(capsys, "gen", "sunflower", "0", "8", "2", "--out", str(path))
    code, out, err = run(
        capsys, "verify", "highprob", str(path), "--eps", "0.5", "--trials", "0"
    )
    assert code == 2 and out == "" and "trials must be positive" in err


def test_pc_refuses_large_ground(tmp_path, capsys):
    path = tmp_path / "big.txt"
    run(capsys, "gen", "sunflower", "0", "13", "2", "--out", str(path))
    code, _, err = run(capsys, "pc", str(path))
    assert code == 2
    assert "resource limit:" in err


def test_search_budgets_are_fixed_and_exit_2(tmp_path, capsys):
    # One 24-vertex edge: a fragment round needs 2^23 submask visits (budget
    # 2^22) and the cover search's pool 2^24 (budget 2^18).
    path = tmp_path / "wide.txt"
    path.write_text("n 24\n" + " ".join(map(str, range(24))) + "\n")
    code, _, err = run(capsys, "run-halving", str(path), "--q", "0.001")
    assert code == 2 and "resource limit:" in err
    code, _, err = run(capsys, "qsmall", str(path))
    assert code == 2 and "resource limit:" in err
    with pytest.raises(SystemExit) as exc:
        main(["run-halving", str(path), "--q", "0.001", "--budget", "1"])
    assert exc.value.code == 2


def test_run_halving_summary_line(tmp_path, capsys):
    path = tmp_path / "s8.txt"
    run(capsys, "gen", "sunflower", "0", "8", "2", "--out", str(path))
    code, out, _ = run(
        capsys, "run-halving", str(path), "--q", "0.01", "--seed", "1"
    )
    assert code == 0
    assert out.startswith("variant=halving found=False")
    assert "undercovers=True" in out


def test_run_halving_json_is_reproducible(tmp_path, capsys):
    path = tmp_path / "s8.txt"
    run(capsys, "gen", "sunflower", "0", "8", "2", "--out", str(path))
    argv = ("run-halving", str(path), "--q", "0.01", "--seed", "1", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    assert doc["variant"] == "halving"
    assert doc["found"] is False and doc["u_undercovers"] is True


def test_run_retry_csv_to_file(tmp_path, capsys):
    path = tmp_path / "s8.txt"
    run(capsys, "gen", "sunflower", "0", "8", "2", "--out", str(path))
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "run-retry", str(path), "--q", "0.05", "--eps", "0.5",
        "--seed", "1", "--csv", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == (
        "index,ell,ground_remaining,w_size,exiled_count,exiled_weight,"
        "per_t_weight,threshold,outcome,survivor_count"
    )
    assert len(lines) >= 2


def test_run_retry_requires_eps(tmp_path, capsys):
    path = tmp_path / "s2.txt"
    run(capsys, "gen", "singletons", "2", "--out", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["run-retry", str(path), "--q", "0.1"])
    assert exc.value.code == 2


def test_run_restart_summary(tmp_path, capsys):
    path = tmp_path / "s8.txt"
    run(capsys, "gen", "sunflower", "0", "8", "2", "--out", str(path))
    code, out, _ = run(
        capsys, "run-restart", str(path), "--q", "0.04", "--eps", "0.5",
        "--seed", "0",
    )
    assert code == 0
    assert out.startswith("variant=restart found=True")


def test_verify_constants(capsys):
    code, out, _ = run(capsys, "verify", "constants")
    assert code == 0
    assert out.startswith("PASS constant_check")


def test_verify_threshold_and_firstmoment(tmp_path, capsys):
    path = tmp_path / "s5.txt"
    run(capsys, "gen", "singletons", "5", "--out", str(path))
    code, out, _ = run(capsys, "verify", "threshold", str(path))
    assert code == 0 and out.startswith("PASS threshold_bound s5.txt")
    code, out, _ = run(capsys, "verify", "firstmoment", str(path))
    assert code == 0 and out.startswith("PASS first_moment s5.txt")


def test_verify_fragweight(tmp_path, capsys):
    path = tmp_path / "t5.txt"
    run(capsys, "gen", "triangles", "5", "--out", str(path))
    code, out, _ = run(
        capsys, "verify", "fragweight", str(path), "--trials", "200",
        "--seed", "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS fragment_weight_t") for line in lines)


def test_verify_spreadsmall(triangles4, capsys):
    code, out, _ = run(capsys, "verify", "spreadsmall", triangles4)
    assert code == 0
    assert out.startswith("PASS spread_not_small")


def test_verify_highprob_exact_route(tmp_path, capsys):
    path = tmp_path / "s8.txt"
    run(capsys, "gen", "sunflower", "0", "8", "2", "--out", str(path))
    code, out, _ = run(
        capsys, "verify", "highprob", str(path), "--eps", "0.5",
        "--q", "0.004",
    )
    assert code == 0
    # rate 48 * 0.004 * log2(4) = 0.384 < 1, so the exact route runs:
    # 1 - (1 - 0.384^2)^8, not the p >= 1 shortcut
    assert out == (
        "PASS highprob_bound s8.txt: lhs=0.7209163345710285 rhs=0.5 tol=0.0\n"
    )


def test_verify_needs_a_path(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "threshold"])
    assert exc.value.code == 2
    assert "required: path" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "threshold", "{h}", "--eps", "0.9"),
        ("verify", "constants", "{h}"),
        ("verify", "spreadsmall", "{h}", "--trials", "5"),
        ("run-restart", "{h}", "--q", "0.04", "--eps", "0.5", "--L", "1.5"),
        ("qsmall", "{h}", "--cert", "{cert}"),
        ("qsmall", "{h}", "--q", "0.3", "--tol", "1e-3"),
        ("pc", "{h}", "--trials", "64"),
        ("pc", "{h}", "--seed", "3"),
    ],
    ids=lambda argv: " ".join(argv).format(h="H", cert="c.json"),
)
def test_option_no_code_reads_exits_2(triangles4, tmp_path, capsys, argv):
    cert = tmp_path / "c.json"
    code = exit_code([a.format(h=triangles4, cert=cert) for a in argv])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not cert.exists()


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```", 2)[1]
    return [
        line.split("#", 1)[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("threshlab ")
    ]


def test_readme_commands_parse_and_run(tmp_path, capsys, monkeypatch):
    # Every command line the README shows must still be one the parser
    # accepts and main runs: none may exit 2.  The suite line only needs
    # its arguments checked, so run_suite is replaced by a stub.
    calls = []

    def fake_suite(*args, **kwargs):
        calls.append((args, kwargs))
        return SimpleNamespace(summary_text="", passed=True)

    monkeypatch.setattr(threshlab.cli, "run_suite", fake_suite)
    monkeypatch.chdir(tmp_path)
    assert exit_code(["gen", "triangles", "5", "--out", "H.txt"]) == 0
    assert exit_code(["qsmall", "H.txt", "--q", "0.3", "--cert", "c.json"]) == 0
    commands = _readme_commands()
    assert len(commands) >= 15
    for argv in commands:
        assert exit_code(argv) != 2, " ".join(argv)
        capsys.readouterr()
    assert len(calls) == 1


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "qsmall", "/nonexistent/H.txt")
    assert code == 2
    assert "error" in err.lower()


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s8.txt"
    run(capsys, "gen", "sunflower", "0", "8", "2", "--out", str(path))
    argv = ("run-halving", str(path), "--q", "0.01", "--json")
    monkeypatch.setenv("THRESHLAB_SEED", "1")
    _, via_env, _ = run(capsys, *argv)
    monkeypatch.delenv("THRESHLAB_SEED")
    _, via_flag, _ = run(capsys, *argv, "--seed", "1")
    assert via_env == via_flag


def test_pc_env_defaults_with_and_without_mc(triangles4, capsys, monkeypatch):
    _, exact, _ = run(capsys, "pc", triangles4)
    _, via_flags, _ = run(
        capsys, "pc", triangles4, "--mc", "--trials", "128", "--seed", "5"
    )
    monkeypatch.setenv("THRESHLAB_SEED", "5")
    monkeypatch.setenv("THRESHLAB_TRIALS", "128")
    assert run(capsys, "pc", triangles4) == (0, exact, "")
    assert run(capsys, "pc", triangles4, "--mc") == (0, via_flags, "")


def test_zero_trials_env_exits_2(triangles4, capsys, monkeypatch):
    # 0 is a value like any other: refused as --trials 0 is, not taken as unset
    monkeypatch.setenv("THRESHLAB_TRIALS", "0")
    code, out, err = run(capsys, "pc", triangles4, "--mc")
    assert code == 2 and out == "" and "trials must be positive" in err
    code, _, err = run(capsys, "verify", "fragweight", triangles4)
    assert code == 2 and "trials must be positive" in err


def test_bad_seed_env_is_reported(capsys, monkeypatch):
    monkeypatch.setenv("THRESHLAB_SEED", "soon")
    code, _, err = run(capsys, "verify", "constants")
    assert code == 2
    assert "THRESHLAB_SEED" in err


def test_suite_single_criterion_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run(
        capsys, "suite", "--only", "1", "--out", str(out_dir)
    )
    assert code == 0
    assert "criterion  1: PASS" in out and "suite: PASS" in out
    for name in ("records.csv", "records.json", "summary.txt"):
        assert (out_dir / name).is_file()
    doc = json.loads((out_dir / "records.json").read_text())
    assert doc["records"] and all(r["criterion"] == 1 for r in doc["records"])
