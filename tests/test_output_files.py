"""main opens every output before the command runs, and a failing run
leaves nothing behind.

A missing output file is created before the command runs; an existing one
is opened without truncation and keeps its bytes.  On exit 2 or 3, or when an
exception such as KeyboardInterrupt escapes the command, main removes
exactly the files this run created, never a path that existed before.
Warnings reach stderr as one `warning:` line each, on exit 0 only.  Two
outputs that are one regular file are refused with exit 2, and so is an
output that is the regular file on stdout of a command that prints there.
"""

import json
import os
import subprocess
import sys
import warnings

import pytest

import sidephase
from sidephase import cli
from sidephase.cli import main

MC = [
    "montecarlo", "--variance", "3000", "--tau-c", "1e-3", "--t-max", "0.01",
    "--n-trajectories", "20", "--grid-points", "5",
]
MC_OK = MC + ["--n-steps", "400"]
MC_REJECTED = MC + ["--n-steps", "2"]  # under-resolved: exit 3
SWEEP = ["sweep", "--channel", "hyperfine", "--param", "tau1", "--grid", "1:1e4:3:log"]
LONG = "x" * 300  # longer than a file name may be (ENAMETOOLONG)
OLD = b"existing bytes\n"
DILUTE = "concentration times cutoff volume >= 1; the dilute expansion is unreliable"


def _one_line(capsys, prefix):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(prefix), lines[0]
    return lines[0], captured.out


@pytest.mark.parametrize(
    "command,good,bad",
    [
        (MC_OK, "--out", "--summary-out"),
        (["channel", "hyperfine", "--t-max", "0.002"], "--out", "--profile-out"),
    ],
    ids=["montecarlo-summary-out", "channel-profile-out"],
)
def test_second_output_that_cannot_open_leaves_no_first(tmp_path, capsys, command, good, bad):
    long_name = tmp_path / (LONG + ".out")
    argv = command + [good, str(tmp_path / "first"), bad, str(long_name)]
    assert main(argv) == 2
    line, out = _one_line(capsys, "error: [Errno ")
    assert str(long_name) in line
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,code,prefix",
    [
        (["channel", "hyperfine", "--config", "{dir}/absent.ini", "--out", "{out}"],
         2, "error: config file not found: "),
        (SWEEP + ["--config", "{dir}/absent.ini", "--out", "{out}"],
         2, "error: config file not found: "),
        (MC_REJECTED + ["--out", "{out}"], 3, "plan rejected: "),
        (MC_REJECTED + ["--out", "{dir}/new.csv", "--summary-out", "{out}"], 3, "plan rejected: "),
    ],
    ids=["channel-missing-config", "sweep-missing-config", "montecarlo-rejected",
         "montecarlo-rejected-summary"],
)
def test_existing_output_keeps_its_bytes_on_failure(tmp_path, capsys, argv, code, prefix):
    out = tmp_path / "existing"
    out.write_bytes(OLD)
    assert main([a.format(dir=tmp_path, out=out) for a in argv]) == code
    _one_line(capsys, prefix)
    assert out.read_bytes() == OLD
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_failure_never_removes_the_null_device(tmp_path, capsys):
    argv = ["channel", "hyperfine", "--config", str(tmp_path / "absent.ini"), "--out", os.devnull]
    assert main(argv) == 2
    _one_line(capsys, "error: config file not found: ")
    assert os.path.exists(os.devnull)


def test_failure_removes_the_file_a_dangling_link_created(tmp_path, capsys):
    link = tmp_path / "link.json"
    try:
        link.symlink_to("target.json")
    except OSError:
        pytest.skip("no symbolic links here")
    argv = ["channel", "hyperfine", "--config", str(tmp_path / "absent.ini"), "--out", str(link)]
    assert main(argv) == 2
    _one_line(capsys, "error: config file not found: ")
    assert [p.name for p in tmp_path.iterdir()] == ["link.json"]
    assert link.is_symlink()


@pytest.mark.parametrize("where", ["directory", "missing_parent", "parent_file"])
def test_constants_output_is_opened_like_the_others(tmp_path, capsys, where):
    if where == "directory":
        target = tmp_path / "taken"
        target.mkdir()
        message = f"error: --out {target} is a directory"
    else:
        if where == "parent_file":
            (tmp_path / "taken").write_bytes(OLD)
        target = tmp_path / "taken" / "out"
        message = f"error: --out {target}: no such directory {target.parent}"
    assert main(["constants", "--out", str(target)]) == 2
    line, out = _one_line(capsys, "error: ")
    assert line == message and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if where == "missing_parent" else ["taken"])


def test_outputs_exist_before_the_command_runs(tmp_path, monkeypatch):
    seen = []
    report, profile = tmp_path / "r.json", tmp_path / "p.csv"
    build_channel = cli.build_channel

    def spy(kind, params):
        seen.append((report.exists(), profile.exists()))
        return build_channel(kind, params)

    monkeypatch.setattr(cli, "build_channel", spy)
    argv = ["channel", "hyperfine", "--t-max", "1e-3", "--out", str(report),
            "--profile-out", str(profile)]
    assert main(argv) == 0
    assert seen == [(True, True)]


def test_created_output_is_removed_when_the_command_fails(tmp_path, capsys):
    argv = ["sweep", "--channel", "hyperfine", "--param", "a0", "--grid", "1e8:1e200:5:log",
            "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    _one_line(capsys, "error: hyperfine channel: an input is too large")
    assert list(tmp_path.iterdir()) == []


def test_montecarlo_outputs_on_one_file_are_refused(tmp_path, capsys):
    # the summary would replace the CSV; refused before the plan is checked
    both = str(tmp_path / "mc.out")
    for command in (MC_OK, MC_REJECTED):
        assert main(command + ["--out", both, "--summary-out", both]) == 2
        line, out = _one_line(capsys, "error: ")
        assert line == f"error: --out {both} and --summary-out {both} are the same file"
        assert out == "" and list(tmp_path.iterdir()) == []
    (tmp_path / "mc.out").write_bytes(OLD)
    assert main(MC_OK + ["--out", both, "--summary-out", both]) == 2
    assert (tmp_path / "mc.out").read_bytes() == OLD  # it existed before this run


@pytest.mark.parametrize("linked", [False, True], ids=["same-path", "symlink"])
def test_one_file_for_report_and_profile_is_refused(tmp_path, capsys, linked):
    report = tmp_path / "r.txt"
    profile = report
    if linked:
        profile = tmp_path / "link.txt"
        try:
            profile.symlink_to("r.txt")
        except OSError:
            pytest.skip("no symbolic links here")
    argv = ["channel", "hyperfine", "--t-max", "1e-3", "--out", str(report),
            "--profile-out", str(profile)]
    assert main(argv) == 2
    line, out = _one_line(capsys, "error: ")
    assert line == f"error: --out {report} and --profile-out {profile} are the same file"
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == (["link.txt"] if linked else [])


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_null_device_may_take_both_outputs(capsys):
    # only a regular file loses the first output to the second
    argv = ["channel", "hyperfine", "--t-max", "1e-3", "--out", os.devnull,
            "--profile-out", os.devnull]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", ["paramagnetic", "nuclear"])
def test_dilute_warning_is_one_line(tmp_path, capsys, kind):
    config = tmp_path / "ch.ini"
    config.write_text(f"[{kind}]\nconcentration = 1e29\n")
    assert main(["channel", kind, "--config", str(config)]) == 0
    line, out = _one_line(capsys, "warning: ")
    assert line == f"warning: {DILUTE}"
    assert json.loads(out)["channel"] == kind


def test_failing_run_prints_only_its_error(tmp_path, capsys, monkeypatch):
    def warn_then_fail(kind, params):
        warnings.warn("a warning before the error")
        raise ValueError("the error")

    monkeypatch.setattr(cli, "build_channel", warn_then_fail)
    argv = SWEEP + ["--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    line, _ = _one_line(capsys, "error: ")
    assert line == "error: the error"
    assert list(tmp_path.iterdir()) == []


def _interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "where,existing",
    [("write_profile_csv", False), ("write_profile_csv", True), ("build_channel", True)],
    ids=["profile-write-new", "profile-write-existing", "before-any-write-existing"],
)
def test_interrupted_run_removes_what_it_created(tmp_path, monkeypatch, where, existing):
    # An interrupt in the profile write comes after the report is written:
    # an existing report is overwritten by then, but not removed.  One before
    # any write leaves it with its bytes.
    report, profile = tmp_path / "r.json", tmp_path / "p.csv"
    if existing:
        report.write_bytes(OLD)
    monkeypatch.setattr(cli, where, _interrupt)
    argv = ["channel", "hyperfine", "--t-max", "0.002", "--out", str(report),
            "--profile-out", str(profile)]
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert [p.name for p in tmp_path.iterdir()] == (["r.json"] if existing else [])
    if where == "build_channel":
        assert report.read_bytes() == OLD


SRC = os.path.dirname(os.path.dirname(os.path.abspath(sidephase.__file__)))


def _run_to_file(argv, stdout_path):
    """Run the CLI in a new interpreter with stdout on a regular file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(stdout_path, "wb") as fh:
        return subprocess.run(
            [sys.executable, "-m", "sidephase.cli", *argv],
            stdout=fh, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize(
    "argv,flag",
    [
        (["audit", "--out", "/dev/stdout"], "--out"),
        (["channel", "hyperfine", "--t-max", "1e-3", "--profile-out", "/dev/stdout"],
         "--profile-out"),
    ],
    ids=["audit-out", "channel-profile-out"],
)
def test_output_on_the_commands_own_stdout_is_refused(tmp_path, argv, flag):
    # Both writes would land in one file, the second over the first.
    proc = _run_to_file(argv, tmp_path / "f.txt")
    assert proc.returncode == 2
    assert proc.stderr == f"error: stdout and {flag} /dev/stdout are the same file\n"
    assert (tmp_path / "f.txt").read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_on_stdout_of_a_command_that_does_not_print_there(tmp_path):
    # sweep writes only its --out, so /dev/stdout is one more file for it.
    proc = _run_to_file(SWEEP + ["--out", "/dev/stdout"], tmp_path / "f.csv")
    assert proc.returncode == 0, proc.stderr
    assert main(SWEEP + ["--out", str(tmp_path / "s.csv")]) == 0
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()
