"""End-to-end tests of the command line interface (in-process)."""

import dataclasses
import json

import numpy as np
import pytest

from meshperm import bijections, cli, engine
from meshperm.catalog import entry_by_id
from meshperm.cli import EXIT_CAP, EXIT_FAILED, EXIT_OK, EXIT_USAGE, main


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


def faulty_map(monkeypatch, transform):
    """Make ``transform`` (host -> image) entry 46's map: nine_box's block
    map becomes one that maps each block host by host."""
    def block_map(n, first, shading):
        return np.array([transform(host) for host in engine.perm_block(n, first).tolist()], dtype=np.int8)

    nine_box = bijections._BY_NAME["nine_box"]
    monkeypatch.setitem(bijections._BY_NAME, "nine_box", dataclasses.replace(nine_box, block_map=block_map))


def test_verify_failure_names_the_counterexample(capsys, monkeypatch):
    code, _, err = run(capsys, ["verify", "--pair-id", "46", "--n", "4"])
    assert (code, err) == (EXIT_OK, "")
    # the identity does not swap the counts of host 1234
    faulty_map(monkeypatch, tuple)
    code, out, err = run(capsys, ["verify", "--pair-id", "46", "--n", "4"])
    assert code == EXIT_FAILED
    assert json.loads(out)["counterexample"] == [1, 2, 3, 4]
    assert err == "counterexample: host [1, 2, 3, 4] has counts (1, 0); its image [1, 2, 3, 4] has counts (1, 0)\n"
    faulty_map(monkeypatch, lambda p: (*p, 4))
    code, out, err = run(capsys, ["verify", "--pair-id", "46", "--n", "3"])
    assert code == EXIT_FAILED
    assert err == "counterexample: host [1, 2, 3] has counts (1, 0); its image [1, 2, 3, 4] is outside S_3\n"


def test_verify_failure_names_the_error_of_the_map(capsys, monkeypatch):
    transform = bijections.transform_for(entry_by_id(46).family, entry_by_id(46).patterns()[0].shading)

    def partial(p):
        if tuple(p) == (1, 2, 3, 4):
            raise ValueError("no image")
        return transform(p)

    faulty_map(monkeypatch, partial)
    code, out, err = run(capsys, ["verify", "--pair-id", "46", "--n", "4"])
    assert code == EXIT_FAILED
    assert json.loads(out)["bijective"] is False
    assert json.loads(out)["counterexample"] == [1, 2, 3, 4]
    assert err == "counterexample: host [1, 2, 3, 4] has counts (1, 0); the map raised ValueError: no image\n"


def test_apply_reports_a_failing_map_as_a_defect(capsys, monkeypatch):
    code, out, err = run(capsys, ["apply", "--pair-id", "41", "--perm", "2,5,1,3,4,6,8,7,9"])
    assert (code, out, err) == (EXIT_OK, "2,5,1,4,3,9,7,8,6\n", "")
    build = bijections.transform_for

    def transform_for(family, shading):
        transform = build(family, shading)

        def partial(p):
            if tuple(p) == (2, 5, 1, 3, 4, 6, 8, 7, 9):
                raise ValueError("no image")
            return transform(p)
        return partial

    monkeypatch.setattr(bijections, "transform_for", transform_for)
    code, out, err = run(capsys, ["apply", "--pair-id", "41", "--perm", "2,5,1,3,4,6,8,7,9"])
    assert (code, out) == (EXIT_FAILED, "")
    assert err == "error: the map of entry 41 failed on 2,5,1,3,4,6,8,7,9: ValueError: no image\n"
    # a shading the family does not support is still a usage error

    def unsupported(family, shading):
        raise bijections.UnsupportedShadingError("not this shading")

    monkeypatch.setattr(bijections, "transform_for", unsupported)
    code, out, err = run(capsys, ["apply", "--pair-id", "41", "--perm", "1,2,3"])
    assert (code, out, err) == (EXIT_USAGE, "", "error: not this shading\n")


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


def test_verify_obeys_the_shared_cap(capsys, monkeypatch):
    monkeypatch.setenv("MESHPERM_MAX_N", "10")
    for argv in (["verify", "--pair-id", "1", "--n", "11"], ["dist", "--pattern", "123|", "--n", "11"]):
        code, out, err = run(capsys, argv)
        assert code == EXIT_CAP
        assert out == ""
        assert err == "error: n = 11 exceeds the active cap of 10\n"


def test_verify_at_nine_under_raised_cap(capsys, monkeypatch):
    monkeypatch.setenv("MESHPERM_MAX_N", "9")
    # entry 41's map has hosts with several tail blocks first at n = 9
    for pair_id in (13, 41):
        code, out, err = run(capsys, ["verify", "--pair-id", str(pair_id), "--n", "9"])
        assert (code, err) == (EXIT_OK, ""), pair_id
        assert json.loads(out) == {
            "pair_id": pair_id,
            "n": 9,
            "bijective": True,
            "joint_swap": True,
            "involution": True,
            "counterexample": None,
        }


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


def test_malformed_env_cap_is_a_usage_error(capsys, monkeypatch):
    # not "verification failed" (1) or "over the cap" (3): one line naming the variable
    for raw, n in (("abc", "3"), ("-2", "0")):
        monkeypatch.setenv("MESHPERM_MAX_N", raw)
        expected = f"error: MESHPERM_MAX_N must be a non-negative integer, got {raw!r}\n"
        assert run(capsys, ["dist", "--pattern", "123|", "--n", n]) == (EXIT_USAGE, "", expected), raw


def test_sequence_requests_over_the_cap_are_refused_up_front(capsys, monkeypatch):
    monkeypatch.setenv("MESHPERM_MAX_N", "9")
    for argv in (
        ["avoid", "--pattern", "123|0/0", "--max-n", "10"],
        ["check-pair", "--pair-id", "23", "--max-n", "10"],
    ):
        assert run(capsys, argv) == (EXIT_CAP, "", "error: n = 10 exceeds the active cap of 9\n"), argv


def test_scan_jobs_below_one_is_a_usage_error(capsys):
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--max-n", "3", "--jobs", jobs])
        assert exc.value.code == EXIT_USAGE
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err


def test_main_calls_in_one_process_share_one_parser(capsys):
    # usage errors (exit 2) from the parser and after it come before valid
    # calls; the calls that follow a shared parser print what each prints
    # on a parser of its own
    argvs = [
        ["verify", "--pair-id", "1", "--n", "-1"],
        ["dist", "--pattern", "122|", "--n", "3"],
        ["verify", "--pair-id", "76", "--n", "4"],
        ["verify", "--pair-id", "1", "--n", "4"],
        ["dist", "--pattern", "123|", "--n", "4", "--format", "json"],
        ["dist", "--pattern", "123|", "--n", "4"],
        ["scan", "--max-n", "3", "--jobs", "0"],
        ["joint", "--pattern", "123|", "--pattern2", "132|", "--n", "3"],
        ["check-pair", "--pair-id", "23", "--max-n", "5", "--expect-equal"],
        ["apply", "--pair-id", "23", "--perm", "2,1,3,4"],
        ["verify", "--pair-id", "41", "--n", "5"],
        ["sequences", "--name", "catalan", "--max-n", "3"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(call(argv))
    shared = [call(argv) for argv in argvs]
    assert shared == alone
    assert [code for code, _, _ in shared] == [EXIT_USAGE] * 3 + [EXIT_OK] * 3 + [EXIT_USAGE] + [EXIT_OK] * 5
    info = cli._build_parser.cache_info()
    assert (info.hits, info.misses) == (len(argvs), 1)


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
