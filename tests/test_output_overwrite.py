"""An existing output is overwritten in place and trimmed to its new length.

main opens each output once, without truncating it, and writes it through
that one handle.  After the write a regular file is cut where the write
ended, so a rerun into a longer or a shorter old file leaves the fresh
bytes, and a write that fails or is interrupted leaves exactly the bytes
written so far; an output not yet written keeps its old bytes.  Files that
are not regular (the null device) are never cut.
"""

import hashlib
import json
import os

import pytest
from test_cli_digests import INVOCATIONS, MANIFEST, _write_config

from sidephase import cli
from sidephase.cli import main

OUTPUT_FLAGS = ("--out", "--profile-out", "--summary-out")
OLD = b"existing bytes\n"
STALE = b"stale tail\n"
SWEEP = ["sweep", "--channel", "hyperfine", "--param", "tau1", "--grid", "1:1e4:3:log"]
MC = [
    "montecarlo", "--variance", "3000", "--tau-c", "1e-3", "--t-max", "0.01",
    "--n-steps", "400", "--n-trajectories", "20", "--grid-points", "5",
]
LABELS = [
    "profile-hyperfine", "profile-phonon", "profile-paramagnetic", "profile-nuclear",
    "sweep-phonon-temperature-lin-csv", "sweep-hyperfine-ratio-log-json",
    "audit", "mc-quasistatic-w1",
]


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def _output_names(argv):
    return [argv[i + 1] for i, arg in enumerate(argv) if arg in OUTPUT_FLAGS]


@pytest.mark.parametrize("label", LABELS)
def test_rerun_over_a_longer_and_a_shorter_file_has_the_manifest_bytes(
    tmp_path, monkeypatch, manifest, label
):
    monkeypatch.chdir(tmp_path)
    _write_config()
    argv = INVOCATIONS[label]
    names = _output_names(argv)
    assert main(argv) == manifest[f"{label} exit"] == 0
    fresh = {name: (tmp_path / name).read_bytes() for name in names}
    prefills = {
        "longer": {name: data + STALE * 1000 for name, data in fresh.items()},
        "shorter": {name: STALE * max(1, len(data) // (2 * len(STALE))) for name, data in fresh.items()},
    }
    for case, old in prefills.items():
        for name, data in old.items():
            assert (len(data) > len(fresh[name])) == (case == "longer")
            (tmp_path / name).write_bytes(data)
        assert main(argv) == 0
        for name in names:
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == manifest[f"{label} file {name}"], f"{label} over a {case} {name}"


def _write_part_then_interrupt(part):
    def writer(fh, *columns):
        fh.write(part)
        raise KeyboardInterrupt

    return writer


def test_interrupted_profile_holds_exactly_its_partial_bytes(tmp_path, monkeypatch):
    report, profile = tmp_path / "r.json", tmp_path / "p.csv"
    report.write_bytes(OLD * 1000)
    profile.write_bytes(OLD * 1000)
    part = "t,gamma\n0,0\n"
    monkeypatch.setattr(cli, "write_profile_csv", _write_part_then_interrupt(part))
    argv = ["channel", "hyperfine", "--t-max", "0.002", "--out", str(report),
            "--profile-out", str(profile)]
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert profile.read_bytes() == part.encode()
    assert json.loads(report.read_bytes())["channel"] == "hyperfine"  # written before, trimmed


def test_interrupted_first_output_leaves_the_second_unwritten(tmp_path, monkeypatch):
    table, summary = tmp_path / "mc.csv", tmp_path / "mc.json"
    table.write_bytes(OLD * 1000)
    summary.write_bytes(OLD)
    part = "t,re_mean\n"
    monkeypatch.setattr(cli, "write_csv", _write_part_then_interrupt(part))
    with pytest.raises(KeyboardInterrupt):
        main(MC + ["--out", str(table), "--summary-out", str(summary)])
    assert table.read_bytes() == part.encode()
    assert summary.read_bytes() == OLD


def test_each_output_is_opened_once_without_truncation(tmp_path, monkeypatch):
    report, profile = tmp_path / "r.json", tmp_path / "p.csv"
    report.write_bytes(OLD)
    calls = []
    os_open = os.open

    def spy(path, flags, *args, **kwargs):
        calls.append((os.fspath(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", spy)
    argv = ["channel", "hyperfine", "--t-max", "1e-3", "--out", str(report),
            "--profile-out", str(profile)]
    assert main(argv) == 0
    monkeypatch.undo()
    assert [path for path, _ in calls] == [str(report), str(profile)]
    for _, flags in calls:
        assert flags & (os.O_TRUNC | os.O_APPEND) == 0
    assert report.read_bytes() != OLD and profile.stat().st_size > 0


def test_hard_link_keeps_its_file_and_sees_the_new_bytes(tmp_path, capsys):
    out, link = tmp_path / "s.csv", tmp_path / "link.csv"
    out.write_bytes(OLD * 1000)
    try:
        os.link(out, link)
    except OSError:
        pytest.skip("no hard links here")
    inode = out.stat().st_ino
    assert main(SWEEP + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.stat().st_ino == inode
    assert link.read_bytes() == out.read_bytes()
    assert out.read_bytes().startswith(b"tau1,")


def test_created_output_removed_by_another_hand_does_not_break_the_cleanup(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "s.csv"

    def remove_then_fail(kind, params):
        out.unlink()
        raise cli.UsageError("the run fails")

    monkeypatch.setattr(cli, "build_channel", remove_then_fail)
    assert main(SWEEP + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the run fails\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
@pytest.mark.parametrize(
    "argv",
    [
        SWEEP + ["--out", os.devnull],
        SWEEP + ["--format", "json", "--out", os.devnull],
        ["channel", "hyperfine", "--t-max", "1e-3", "--profile-out", os.devnull],
    ],
    ids=["sweep-csv", "sweep-json", "channel-profile"],
)
def test_null_device_is_written_and_never_cut(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
