import io
import json

import pytest

from mdlab.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    main,
    parse_config,
    run,
)


def test_defaults():
    cfg = parse_config([])
    assert cfg.suites == ["qdilog", "integrals", "symbolic", "representation"]
    assert cfg.b == 0.83
    assert cfg.omega1 == 0.83
    assert cfg.omega2 == pytest.approx(1 / 0.83)
    assert cfg.seed == 42
    assert cfg.trials == 20
    assert cfg.gl_rank == 3


def test_flag_overrides():
    cfg = parse_config(["--suite", "symbolic", "--max-N", "3", "--b", "0.5"])
    assert cfg.suites == ["symbolic"]
    assert cfg.max_N == 3
    assert cfg.b == 0.5


def test_repeatable_suite():
    cfg = parse_config(["--suite", "qdilog", "--suite", "integrals"])
    assert cfg.suites == ["qdilog", "integrals"]


def test_tol_override():
    cfg = parse_config(["--tol", "integrals=1e-8"])
    assert cfg.tolerances == {"integrals": 1e-8}
    for bad in ("-1", "nan", "inf"):
        with pytest.raises(UsageError):
            parse_config(["--tol", f"integrals={bad}"])
    with pytest.raises(UsageError):
        parse_config(["--tol", "nosuite=1e-8"])
    with pytest.raises(UsageError):
        parse_config(["--tol", "garbage"])


def test_config_file_and_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "b = 0.7\n"
        "suites = qdilog, integrals\n"
        "trials = 5\n"
        "tol.integrals = 1e-7\n"
    )
    cfg = parse_config(["--config", str(cfg_file)])
    assert cfg.b == 0.7
    assert cfg.suites == ["qdilog", "integrals"]
    assert cfg.trials == 5
    assert cfg.tolerances["integrals"] == 1e-7
    # flags beat the file
    cfg = parse_config(["--config", str(cfg_file), "--b", "1.2", "--suite", "symbolic"])
    assert cfg.b == 1.2
    assert cfg.suites == ["symbolic"]


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not key value\n")
    with pytest.raises(UsageError):
        parse_config(["--config", str(bad)])
    bad.write_text("unknown_key = 3\n")
    with pytest.raises(UsageError):
        parse_config(["--config", str(bad)])


# Arguments that keep a run short should a bad input get through.
SHORT_RUN = ["--suite", "representation", "--gl-rank", "2", "--trials", "1"]


@pytest.mark.parametrize("flag, line", [
    (["--b", "abc"], "b = abc"),
    (["--tol", "nosuite=1e-8"], "tol.nosuite = 1e-8"),
    (["--tol", "symbolic=1e-3"], "tol.symbolic = 1e-3"),
    (["--b", "nan"], "b = nan"),
    (["--omega1", "inf"], "omega1 = inf"),
    (["--b", "1e200"], "b = 1e200"),
    (["--b", "1e-200"], "b = 1e-200"),
])
def test_bad_input_exits_usage_by_flag_and_file(tmp_path, monkeypatch, capsys, flag, line):
    monkeypatch.setenv("MDLAB_REPORT_DIR", str(tmp_path))
    assert main(flag + SHORT_RUN) == EXIT_USAGE
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    assert main(["--config", str(cfg_file)] + SHORT_RUN) == EXIT_USAGE
    assert not (tmp_path / "mdlab_report.json").exists()


def test_bad_file_value_names_file_and_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 1.5\n")
    with pytest.raises(UsageError, match=rf"{cfg_file}: seed: bad value '1.5'"):
        parse_config(["--config", str(cfg_file)])


def test_validation_errors():
    with pytest.raises(UsageError):
        parse_config(["--b", "-0.5"])
    with pytest.raises(UsageError):
        parse_config(["--trials", "0"])


def test_usage_exit_codes(capsys):
    assert main(["--b", "-1"]) == EXIT_USAGE
    assert main(["--workers", "2"]) == EXIT_USAGE
    assert main(["--gl-rank", "1"]) == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        parse_config(["--no-such-flag"])
    assert exc.value.code == 2


def test_run_writes_report_and_exit_zero(tmp_path):
    cfg = RunConfig(
        suites=["qdilog"], b=0.9, report_path=str(tmp_path / "rep.json")
    )
    out = io.StringIO()
    assert run(cfg, out=out) == EXIT_OK
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == len(payload["checks"])
    assert payload["config"]["b"] == 0.9
    assert set(payload["libraries"]) == {"python", "numpy", "sympy"}
    for check in payload["checks"]:
        assert {"identity_id", "params", "rel_error", "tolerance", "passed"} <= set(check)
    assert "[PASS]" in out.getvalue()


def test_run_failure_exit(tmp_path):
    cfg = RunConfig(
        suites=["qdilog"],
        tolerances={"qdilog": 1e-16},
        report_path=str(tmp_path / "rep.json"),
    )
    assert run(cfg, out=io.StringIO()) == EXIT_CHECK_FAILURE
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["summary"]["failed"] > 0


def test_qdilog_suite_at_small_b(tmp_path):
    # b = 0.3 puts the pole -11b next to -1/b; the residue oracle must
    # sample inside that gap, so the suite passes.
    report = str(tmp_path / "rep.json")
    assert main(["--suite", "qdilog", "--b", "0.3", "--report", report]) == EXIT_OK


def test_qdilog_suite_at_degenerate_b(tmp_path):
    # b = 0.2 makes qtilde^2 = 1, so the closed-form residue is singular:
    # the residues check fails with the singular factor named, the six
    # other checks pass, and the report is written.
    report = tmp_path / "rep.json"
    with pytest.warns(RuntimeWarning, match="nearly degenerate"):
        code = main(["--suite", "qdilog", "--b", "0.2", "--report", str(report)])
    assert code == EXIT_CHECK_FAILURE
    checks = json.loads(report.read_text())["checks"]
    failed = [c for c in checks if not c["passed"]]
    assert [c["identity_id"] for c in failed] == ["residues"]
    assert "qtilde^2 = 1" in failed[0]["detail"]
    assert len(checks) == 7


def test_report_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MDLAB_REPORT_DIR", str(tmp_path / "sub"))
    cfg = RunConfig(suites=["representation"], gl_rank=2, trials=2)
    assert run(cfg, out=io.StringIO()) == EXIT_OK
    assert (tmp_path / "sub" / "mdlab_report.json").exists()


def test_gl_rank_beyond_three(tmp_path):
    cfg = RunConfig(
        suites=["representation"], gl_rank=4, trials=1,
        report_path=str(tmp_path / "rep.json"),
    )
    assert run(cfg, out=io.StringIO()) == EXIT_OK
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert {c["params"]["N"] for c in payload["checks"]} == {2, 3, 4}


def test_gl_rank_seven(tmp_path):
    report = tmp_path / "rep.json"
    argv = ["--suite", "representation", "--gl-rank", "7", "--trials", "3", "--report", str(report)]
    assert main(argv) == EXIT_OK
    payload = json.loads(report.read_text())
    assert {c["params"]["N"] for c in payload["checks"]} == set(range(2, 8))


def _numeric_part(payload):
    return [
        (c["identity_id"], c["rel_error"], c["passed"]) for c in payload["checks"]
    ]


def test_determinism_across_runs(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        cfg = RunConfig(
            suites=["representation"], gl_rank=2, trials=3, seed=7,
            report_path=str(path),
        )
        assert run(cfg, out=io.StringIO()) == EXIT_OK
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    assert _numeric_part(a) == _numeric_part(b)
