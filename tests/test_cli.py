import json
import pathlib
import subprocess
import sys

import pytest

from ionet import serialize_net
from ionet.cli import main
from tests.conftest import FIXTURES, ring17

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent /
     "src" / "ionet" / "schemas" / "verdict.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "bimo_siphon.net"))
    assert code == 0
    assert "ord-bimo" in out

    code, out, _ = run(capsys, "classify", str(FIXTURES / "io_fragile.net"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["io"] and data["ordinary"] and data["finest"] == "ord-io"


def test_live_command_verdicts(capsys):
    pump = str(FIXTURES / "bimo_pump.net")
    code, out, _ = run(capsys, "live", pump, "--marking", "2,0,0,0,0")
    assert code == 0 and "live" in out
    code, out, _ = run(capsys, "live", pump, "--marking", "1,0,0,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "nonlive"
    assert data["witness"]["t_dead"]
    assert data["witness"]["conditions"]["sound"]


def test_live_command_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    pump = str(FIXTURES / "bimo_pump.net")
    ring = tmp_path / "ring17.net"
    ring.write_text(serialize_net(ring17(), (1,) + (0,) * 16))
    # a place named like the dummy place, beside a transition without pre-places
    clash = tmp_path / "clash.net"
    clash.write_text("net clash\nplace __dummy\nplace p2\nplace p3 tokens=1\n"
                     "trans t1 pre p3:2 post __dummy p3\ntrans spawn0\n")
    for path, marking in ((pump, "1,0,0,0,0"), (pump, "0,0,0,0,1"),
                          (str(ring), None), (str(clash), None)):
        argv = ("live", path, "--json") + (("--marking", marking) if marking else ())
        code, out, _ = run(capsys, *argv)
        assert code == 0, path
        data = json.loads(out)
        jsonschema.validate(data, SCHEMA)
        assert data["method"] in SCHEMA["properties"]["method"]["enum"]
    # the last input: its capped search builds the relaxed arcs
    assert (data["verdict"], data["method"]) == ("nonlive", "capped-search")
    _, out, _ = run(capsys, "slp", pump, "--json")
    jsonschema.validate(json.loads(out), SCHEMA)


def test_live_command_bad_marking(capsys):
    code, _, err = run(capsys, "live", str(FIXTURES / "bimo_pump.net"),
                       "--marking", "1,2")
    assert code == 2 and "error" in err


def test_live_uses_stored_marking(capsys):
    code, out, _ = run(capsys, "live", str(FIXTURES / "io_fragile.net"))
    assert code == 0 and ": live" in out


def test_slp_command(capsys):
    code, out, _ = run(capsys, "slp", str(FIXTURES / "bimo_pump.net"))
    assert code == 0 and "structurally_live" in out
    code, out, _ = run(capsys, "slp", str(FIXTURES / "bimo_pump.net"),
                       "--candidates", "1")
    assert code == 3


def test_slp_json_reports_siphon_settled(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(capsys, "slp", str(FIXTURES / "io_fragile.net"), "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMA)
    # 28 candidates up to the certificate, 21 of them refuted by a siphon
    assert data["certificate"] == [0, 1, 0, 1, 0, 1]
    assert (data["stats"]["candidates_tested"], data["stats"]["siphon_settled"]) == (28, 21)
    data["stats"]["siphon_settled"] = -1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, SCHEMA)


def test_witness_and_truncate_commands(capsys):
    code, out, _ = run(capsys, "witness", str(FIXTURES / "bimo_siphon.net"),
                       "--marking", "4,0,0,0,0,1", "--json")
    assert code == 0
    assert json.loads(out)["witness"]["t_dead"]
    code, out, _ = run(capsys, "truncate", str(FIXTURES / "io_fragile.net"),
                       "--marking", "44,0,1,0,0,13")
    assert code == 0 and out.strip() == "12,0,1,0,0,12"


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", str(FIXTURES / "io_fragile.net"), "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["first"], data["second"]) == (1, 12)


def test_ordinarize_command(tmp_path, capsys):
    out_file = tmp_path / "ring.net"
    code, _, _ = run(capsys, "ordinarize", str(FIXTURES / "weighted_single.net"),
                     "--out", str(out_file))
    assert code == 0
    want = (FIXTURES / "weighted_single_ord.net").read_text()
    got = out_file.read_text()
    # identical modulo the comment header of the hand-written fixture
    assert got == "".join(l for l in want.splitlines(keepends=True)
                          if not l.startswith("#")).lstrip()


def test_lba_and_reduction_commands(tmp_path, capsys):
    spec = str(FIXTURES / "lba" / "even_a_2.lba")
    out_file = tmp_path / "nbar.net"
    code, _, _ = run(capsys, "lba", spec, "ab", "--stage", "Nbar",
                     "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "check-reduction", spec, "ab", "--skip-slp", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["accepts"] is False and data["marked_live"] is False
    assert data["agree"]


def test_check_reduction_text_output(capsys, monkeypatch):
    """Both text lines, with the machine's answer taken from the one run
    inside the reduction check."""
    import ionet.lba

    runs = []
    simulate = ionet.lba.simulate_lba

    def counting(*args, **kwargs):
        runs.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(ionet.lba, "simulate_lba", counting)
    spec = str(FIXTURES / "lba" / "even_a_2.lba")
    code, out, _ = run(capsys, "check-reduction", spec, "ab", "--skip-slp")
    assert code == 0
    assert out.splitlines() == [
        "word 'ab': machine=reject marked-net=nonlive slp=skipped",
        "agree: True",
    ]
    assert len(runs) == 1


def test_gen_command_deterministic(tmp_path, capsys):
    a = tmp_path / "a.net"
    b = tmp_path / "b.net"
    run(capsys, "gen", "--class", "io", "--places", "4", "--seed", "7",
        "--out", str(a))
    run(capsys, "gen", "--class", "io", "--places", "4", "--seed", "7",
        "--out", str(b))
    assert a.read_text() == b.read_text()


def test_invalid_file(capsys, tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("place p\nplace p\n")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    ("gen", "--out", "missing_dir/x.net"),
    ("lba", "missing.lba", "ab"),
    ("check-reduction", "missing.lba", "ab"),
    ("live", "missing.net"),
])
def test_missing_path_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [("classify",), ("live",), ("lba", "ab")])
def test_non_utf8_file_exit_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.net"
    bad.write_bytes(b"\xff\xfe" + bytes(range(256)))
    code, _, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 2
    assert err.startswith("error:") and "UTF-8" in err


def test_resource_limits_exit_3(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    spec = str(FIXTURES / "lba" / "even_a_2.lba")
    code, _, err = run(capsys, "check-reduction", spec, "bb", "--skip-slp",
                       "--budget", "5")
    assert code == 3 and "budget" in err
    code, out, _ = run(capsys, "check-reduction", spec, "bb", "--skip-slp",
                       "--budget", "5", "--json")
    assert code == 3
    data = json.loads(out)
    jsonschema.validate(data, SCHEMA)
    assert data["verdict"] == "budget_exceeded"

    # non-conservative, so too large for the reachability-graph fallback
    wide = tmp_path / "wide.net"
    run(capsys, "gen", "--class", "bimo", "--places", "17", "--trans", "5",
        "--wmax", "2", "--seed", "1", "--out", str(wide))
    marking = ",".join(["3"] * 17)
    code, _, err = run(capsys, "live", str(wide), "--marking", marking)
    assert code == 3 and "subset cap" in err
    code, out, _ = run(capsys, "live", str(wide), "--marking", marking, "--json")
    assert code == 3
    data = json.loads(out)
    jsonschema.validate(data, SCHEMA)
    assert data["verdict"] == "budget_exceeded"


@pytest.mark.parametrize("raw", ["abc", "-3", "0"])
def test_bad_budget_rejected(monkeypatch, capsys, raw):
    monkeypatch.setenv("IONET_BUDGET", raw)
    with pytest.raises(SystemExit) as exc:
        main(["live", str(FIXTURES / "io_fragile.net")])
    assert exc.value.code == 2
    assert "IONET_BUDGET" in capsys.readouterr().err
    # only subcommands that explore read the budget
    code, out, _ = run(capsys, "classify", str(FIXTURES / "io_fragile.net"))
    assert code == 0 and "ord-io" in out
    monkeypatch.setenv("IONET_BUDGET", "7")
    code, out, _ = run(capsys, "live", str(FIXTURES / "io_fragile.net"))
    assert code == 0 and ": live" in out


@pytest.mark.parametrize("argv", [
    ("live", "io_fragile.net", "--out", "x.net"),
    ("classify", "io_fragile.net", "--budget", "5"),
    ("slp", "bimo_pump.net", "--candidates", "0"),
    ("slp", "bimo_pump.net", "--subset-cap", "-1"),
    ("witness", "bimo_pump.net", "--subset-cap", "0"),
])
def test_unread_or_nonpositive_flags_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    cmd, name, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([cmd, str(FIXTURES / name), *flags])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "x.net").exists()


@pytest.mark.parametrize("flags", [
    ("--places", "0"), ("--trans", "-1"), ("--wmax", "0"), ("--places", "x"),
])
def test_gen_rejects_nonpositive_counts(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["gen", *flags, "--out", "x.net"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flags[0]} must be a positive integer" in err and "Traceback" not in err
    assert not (tmp_path / "x.net").exists()


@pytest.mark.parametrize("kind", ["accept", "reject"])
def test_lba_bare_single_state_line_exit_2(tmp_path, capsys, kind):
    text = (FIXTURES / "lba" / "even_a_2.lba").read_text()
    spec = tmp_path / "bad.lba"
    spec.write_text("".join(kind + "\n" if raw.startswith(kind + " ") else raw
                            for raw in text.splitlines(keepends=True)))
    code, out, err = run(capsys, "lba", str(spec), "ab")
    assert code == 2 and not out
    assert err.startswith("error:") and f"expected: {kind} <state>" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [("--candidates", "0"), ("--budget", "-3")])
def test_fixture_report_rejects_nonpositive_counts(flags):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "fixture_report.py"
    proc = subprocess.run([sys.executable, str(script), *flags],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "must be a positive integer" in proc.stderr and not proc.stdout


def test_fixture_report_prints_machines():
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "fixture_report.py"
    proc = subprocess.run([sys.executable, str(script), "--candidates", "3000"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    fixtures = sorted(path.name for path in FIXTURES.glob("*.net"))
    # every fixture is inside the subset cap, so each has an index line
    assert len(lines) == 2 * len(fixtures) + 8
    assert [line.split()[0] for line in lines[:2 * len(fixtures):2]] == fixtures
    index = {}
    for name, line in zip(fixtures, lines[1:2 * len(fixtures):2]):
        head, _, counts = line.partition("witness index: ")
        assert not head.strip() and counts, line
        fields = dict(field.split("=") for field in counts.split())
        assert list(fields) == ["memo", "clean", "longest_clean", "entries",
                                "build_ms", "lookups"], line
        memo, clean, longest, entries = (int(fields[k]) for k in list(fields)[:4])
        assert longest <= clean <= memo, line
        assert entries > 0 and float(fields["build_ms"]) >= 0, line
        index[name] = memo, clean, longest, entries, int(fields["lookups"])
    assert min(index["bio_dense.net"]) > 0
    assert index["bio_dense.net"][3] == 440
    machines = [line for line in lines if " machine " in line]
    assert [line.split()[0] for line in machines] == [
        "accept_all_2/aa", "accept_all_2/ab", "accept_all_2/ba", "accept_all_2/bb",
        "even_a_2/aa", "even_a_2/bb", "flip_2/aa", "flip_2/ba"]
    for line in machines:
        assert " structurally_live cert=" in line, line
        assert ("candidates=1624 siphon_settled=1623 " in line
                or "candidates=2947 siphon_settled=2946 " in line), line


@pytest.mark.parametrize("argv", [
    ("ordinarize", str(FIXTURES / "weighted_single.net")),
    ("lba", str(FIXTURES / "lba" / "even_a_2.lba"), "ab"),
    ("gen", "--class", "bimo", "--wmax", "2", "--seed", "3"),
])
def test_commands_write_stdout_without_out(tmp_path, capsys, argv):
    out_file = tmp_path / "out.net"
    code, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == out_file.read_text() != ""


@pytest.mark.parametrize("argv,code,stdout", [
    (("witness", str(FIXTURES / "io_fragile.net")), 0, "no witness at this marking\n"),
    (("witness", str(FIXTURES / "io_fragile.net"), "--json"), 0,
     json.dumps({"witness": None}, indent=2) + "\n"),
    (("live", str(FIXTURES / "bimo_pump.net"), "--marking", "1,x,0,0,0"), 2, ""),
    (("live", "{unmarked}"), 2, ""),
    (("check-reduction", str(FIXTURES / "lba" / "even_a_2.lba"), "ab",
      "--candidates", "1"), 3, None),
    (("check-reduction", str(FIXTURES / "lba" / "loop_2.lba"), "aa", "--skip-slp"), 2, ""),
])
def test_command_outcomes(tmp_path, capsys, argv, code, stdout):
    unmarked = tmp_path / "unmarked.net"
    unmarked.write_text("place p\ntrans t pre p post p\n")
    argv = [a.format(unmarked=unmarked) for a in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    if stdout is not None:
        assert out == stdout
    if code == 2:
        assert err.startswith("error: ")

