"""End-to-end tests of the command line interface (in-process)."""

import json

import pytest

from meshperm.cli import EXIT_CAP, EXIT_FAILED, EXIT_OK, EXIT_USAGE, main


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    monkeypatch.delenv("MESHPERM_MAX_N", raising=False)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_csv(capsys):
    code, out, err = run(capsys, ["dist", "--pattern", "123|", "--n", "4"])
    assert code == EXIT_OK
    assert out.splitlines() == ["n,k,count", "4,0,14", "4,1,6", "4,2,3", "4,4,1"]
    assert err == ""


def test_dist_json(capsys):
    code, out, _ = run(capsys, ["dist", "--pattern", "123|", "--n", "4", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out) == {
        "pattern": "123|",
        "n": 4,
        "counts": {"0": 14, "1": 6, "2": 3, "4": 1},
    }


def test_joint_csv(capsys):
    code, out, _ = run(
        capsys, ["joint", "--pattern", "123|", "--pattern2", "132|", "--n", "3"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["n,k,l,count", "3,0,0,4", "3,0,1,1", "3,1,0,1"]


def test_avoid(capsys):
    code, out, _ = run(
        capsys, ["avoid", "--pattern", "123|0/1,0/2,1/0,2/0", "--max-n", "5"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["n,count", "0,1", "1,1", "2,2", "3,5", "4,17", "5,75"]


def test_check_pair_by_id(capsys):
    code, out, _ = run(capsys, ["check-pair", "--pair-id", "23", "--max-n", "6", "--expect-equal"])
    assert code == EXIT_OK
    assert json.loads(out) == {
        "verdict": "equidistributed",
        "first_divergence_n": None,
        "max_n": 6,
    }


def test_check_pair_divergent_patterns(capsys):
    argv = [
        "check-pair",
        "--pattern",
        "123|1/1,1/2,2/1,2/2",
        "--pattern2",
        "132|1/1,1/2,2/1,2/2",
        "--max-n",
        "5",
    ]
    code, out, _ = run(capsys, argv + ["--expect-equal"])
    assert code == EXIT_FAILED
    assert json.loads(out) == {"verdict": "diverges", "first_divergence_n": 4, "max_n": 5}
    # Without --expect-equal the command reports but does not fail.
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "diverges"


def test_apply(capsys):
    code, out, _ = run(
        capsys, ["apply", "--pair-id", "23", "--perm", "9,11,4,12,8,10,5,7,1,3,13,6,2"]
    )
    assert code == EXIT_OK
    assert out == "9,12,4,11,5,13,8,6,1,2,10,7,3\n"


def test_apply_without_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--pair-id", "76", "--perm", "1,2,3"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_verify(capsys):
    code, out, _ = run(capsys, ["verify", "--pair-id", "1", "--n", "3"])
    assert code == EXIT_OK
    assert json.loads(out) == {
        "pair_id": 1,
        "n": 3,
        "bijective": True,
        "joint_swap": True,
        "involution": True,
        "counterexample": None,
    }


def test_verify_has_no_skip_involution_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pair-id", "46", "--n", "4", "--skip-involution"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_catalog_validate(capsys):
    code, out, _ = run(capsys, ["catalog-validate"])
    assert code == EXIT_OK
    assert out == "catalog OK (138 entries)\n"


def test_sequences(capsys):
    code, out, _ = run(capsys, ["sequences", "--name", "catalan", "--max-n", "8"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,1"
    assert lines[-1] == "8,1430"
    code, out, _ = run(capsys, ["sequences", "--name", "stirling1", "--max-n", "4"])
    assert code == EXIT_OK
    assert out.splitlines()[-4:] == ["4,0,6", "4,1,11", "4,2,6", "4,3,1"]
    code, out, _ = run(capsys, ["sequences", "--name", "bell", "--max-n", "5"])
    assert out.splitlines()[-1] == "5,52"


def test_scan_is_deterministic(capsys, tmp_path):
    code, out1, err1 = run(capsys, ["scan", "--max-n", "4"])
    assert code == EXIT_OK
    assert len(out1.splitlines()) == 1024
    assert err1.strip().endswith("equidistributed shadings: 256 / 1024 (n <= 4)")
    code, out2, _ = run(capsys, ["scan", "--max-n", "4"])
    assert out2 == out1
    out_file = tmp_path / "scan.jsonl"
    code, out3, _ = run(capsys, ["scan", "--max-n", "4", "--out", str(out_file)])
    assert code == EXIT_OK
    assert out_file.read_text() == out1
    first = json.loads(out1.splitlines()[0])
    assert first == {"shading": "", "verdict": "diverges", "first_divergence_n": 4}


def test_cap_exceeded_exit_code(capsys):
    code, out, err = run(capsys, ["dist", "--pattern", "123|", "--n", "9"])
    assert code == EXIT_CAP
    assert out == ""
    assert "error: n = 9 exceeds the active cap of 8" in err
    code, _, err = run(capsys, ["verify", "--pair-id", "1", "--n", "9"])
    assert code == EXIT_CAP


def test_verify_limit_holds_above_raised_cap(capsys, monkeypatch):
    monkeypatch.setenv("MESHPERM_MAX_N", "10")
    code, out, err = run(capsys, ["verify", "--pair-id", "1", "--n", "9"])
    assert code == EXIT_CAP
    assert out == ""
    assert "error: n = 9 exceeds the verification cap of 8" in err


def test_bad_literals_are_usage_errors(capsys):
    for argv in (
        ["dist", "--pattern", "122|", "--n", "3"],
        ["dist", "--pattern", "123|9/9", "--n", "3"],
        ["apply", "--pair-id", "23", "--perm", "1,1,2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("MESHPERM_MAX_N", "9")
    code, out, _ = run(capsys, ["dist", "--pattern", "123|2/0,2/1,2/2,2/3", "--n", "9"])
    assert code == EXIT_OK
    assert out.splitlines()[1] == "9,0,21147"


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "meshperm", "sequences", "--name", "catalan", "--max-n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines() == ["n,value", "0,1", "1,1", "2,2", "3,5"]
