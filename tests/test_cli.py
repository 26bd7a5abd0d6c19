"""CLI: exit codes, file artifacts, reproducibility, error paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sboxsim import cli
from sboxsim.cli import main
from sboxsim.gf import DEFAULT_PARAMS, FieldParams
from sboxsim.netlist import CostTable, DEFAULT_COSTS

# A path no file can be created at: its parent is not a directory.
UNWRITABLE = os.path.join(os.devnull, "out")
NAN = float("nan")


def _costs_with(kind, entry):
    """The default cost table's JSON document with one gate entry
    replaced."""
    doc = DEFAULT_COSTS.to_json_dict()
    return {**doc, "gates": {**doc["gates"], kind: entry}}


def test_verify_default_params(capsys):
    assert main(["verify"]) == 0
    assert "all 256 bytes" in capsys.readouterr().out


def test_python_m_sboxsim_runs_the_cli_from_a_source_tree():
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "sboxsim", "verify"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "all 256 bytes" in done.stdout


def test_verify_corrupted_params(tmp_path, capsys):
    rows = list(DEFAULT_PARAMS.delta)
    rows[0] ^= 0x01
    bad = FieldParams(lam=DEFAULT_PARAMS.lam, phi=DEFAULT_PARAMS.phi,
                      delta=tuple(rows), delta_inv=DEFAULT_PARAMS.delta_inv)
    p = tmp_path / "bad.json"
    p.write_text(bad.to_json())
    assert main(["verify", "--params", str(p)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "0x" in out


def test_verify_reports_params_that_do_not_synthesize(tmp_path, capsys):
    p = tmp_path / "params.json"
    p.write_text(json.dumps({**DEFAULT_PARAMS.to_json_dict(),
                             "affine_a": [1]}))
    assert main(["verify", "--params", str(p)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_missing_params_file_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--params", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["campaign", "--design", "warp", "--fault", "transient"])
    assert e.value.code == 2


@pytest.mark.parametrize("command,option", [
    ("verify", ["--costs", "costs.json"]),
    ("verify", ["--stages", "5"]),
    ("verify", ["--seed", "7"]),
    ("campaign", ["--exhaustive"]),
])
def test_options_a_command_does_not_read_are_rejected(command, option,
                                                       capsys):
    with pytest.raises(SystemExit) as e:
        main([command] + option)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0
    assert option[0] not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["report", "--stages", "99"],
    ["report", "--stages", "0"],
    ["campaign", "--design", "hfs", "--fault", "transient", "--sample", "0"],
    ["campaign", "--design", "hfs", "--fault", "transient", "--sample", "-1"],
    ["campaign", "--design", "hfs", "--fault", "transient",
     "--sites", "bogus"],
    ["campaign", "--design", "hfs", "--fault", "transient",
     "--durations", "0"],
    ["campaign", "--design", "hfs", "--fault", "transient", "--starts", "-1"],
    ["simulate", "--design", "hfs", "--fault-site", "gate:999"],
    ["simulate", "--design", "hfs", "--fault-site", "gate:60",
     "--fault-duration", "x"],
    ["campaign", "--design", "hfs", "--fault", "transient",
     "--durations", "1,0", "--sample", "3"],
    # A campaign config file's document is the last item; the test writes
    # it to a file and passes that file's path.
    pytest.param(["campaign", "--config",
                  {"scheme": "original", "fault_class": "bogus", "sample": 3}],
                 id="campaign --config fault_class bogus"),
    pytest.param(["campaign", "--config",
                  {"scheme": "original", "fault_class": "transient",
                   "sample": "3"}],
                 id="campaign --config sample string"),
    pytest.param(["campaign", "--config", [{"scheme": "original"}]],
                 id="campaign --config list"),
    pytest.param(["report", "--costs", {"gates": {"NAND2": [1, 1]}}],
                 id="report --costs missing kinds"),
    pytest.param(["report", "--costs", {"gates": []}],
                 id="report --costs gates list"),
    pytest.param(["report", "--costs", [1]], id="report --costs list"),
    pytest.param(["verify", "--params", [1]], id="verify --params list"),
    pytest.param(["synth", "--params",
                  {**DEFAULT_PARAMS.to_json_dict(), "affine_a": [1]}],
                 id="synth --params does not synthesize"),
    pytest.param(["SBOXSIM_SEED=abc", "verify"],
                 id="SBOXSIM_SEED=abc verify"),
    ["simulate", "--design", "original", "--count", "-1"],
    pytest.param(["report", "--costs", {**DEFAULT_COSTS.to_json_dict(),
                                        "register_bit_ge": "x"}],
                 id="report --costs register_bit_ge string"),
    pytest.param(["report", "--costs", {**DEFAULT_COSTS.to_json_dict(),
                                        "register_bit_ge": -4}],
                 id="report --costs register_bit_ge negative"),
    pytest.param(["report", "--costs", {**DEFAULT_COSTS.to_json_dict(),
                                        "register_bit_ge": True}],
                 id="report --costs register_bit_ge bool"),
    pytest.param(["report", "--costs", _costs_with("XOR2", [NAN, 1.0])],
                 id="report --costs XOR2 GE NaN"),
    pytest.param(["report", "--costs", _costs_with("XOR2", [True, 1.0])],
                 id="report --costs XOR2 GE bool"),
    pytest.param(["report", "--costs", _costs_with("XOR2", [2.33, NAN])],
                 id="report --costs XOR2 delay NaN"),
    ["synth", "--output", UNWRITABLE],
    ["simulate", "--design", "original", "--count", "2",
     "--trace", UNWRITABLE],
    ["campaign", "--design", "hfs", "--fault", "transient", "--sample", "3",
     "--out-json", UNWRITABLE],
    ["campaign", "--design", "hfs", "--fault", "transient", "--sample", "3",
     "--out-csv", UNWRITABLE],
    ["report", "--output", UNWRITABLE],
    pytest.param(["campaign", "--config",
                  {"scheme": "hfs", "durations": [1.5], "sample": 3}],
                 id="campaign --config durations float"),
    pytest.param(["campaign", "--config",
                  {"scheme": "hfs", "durations": [True], "sample": 3}],
                 id="campaign --config durations bool"),
    pytest.param(["campaign", "--config",
                  {"scheme": "hfs", "start_cycles": [2.0], "sample": 3}],
                 id="campaign --config start_cycles float"),
    pytest.param(["campaign", "--config",
                  {"scheme": "hfs", "seed": "x", "sample": 3}],
                 id="campaign --config seed string"),
    pytest.param(["campaign", "--config",
                  {"scheme": "hfs", "stream_hex": ""}],
                 id="campaign --config empty stream"),
    ["campaign", "--design", "hfs", "--fault", "transient", "--sample", "3",
     "--workers", "0"],
    ["campaign", "--design", "hfs", "--fault", "transient", "--sample", "3",
     "--workers", "-1"],
    ["campaign", "--design", "hfs", "--fault", "transient", "--sample", "3",
     "--sites", "gate,voter"],
    ["simulate", "--design", "hfs", "--count", "1000"],
    ["simulate", "--design", "hfs", "--fault-site", "du:1:5:9"],
    ["simulate", "--design", "hfs", "--fault-site", "gate:60:0:7"],
    # A fault window that opens after the run has ended is never injected.
    ["campaign", "--design", "original", "--fault", "transient",
     "--sample", "20", "--starts", "100000"],
    ["simulate", "--design", "hfs", "--fault-site", "gate:60",
     "--fault-start", "100000"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_input_exits_2_with_one_line(argv, tmp_path, monkeypatch,
                                         capsys):
    # A leading NAME=VALUE item sets an environment variable, and a JSON
    # document in place of an argument is written to a file whose path is
    # passed instead.
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(arg))
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    if UNWRITABLE in argv:
        assert UNWRITABLE in lines[0]


@pytest.mark.parametrize("option", ["--out-json", "--out-csv"])
def test_campaign_checks_output_paths_before_running(option, monkeypatch,
                                                     capsys):
    # An unwritable result path must fail before the campaign runs, not
    # after a full grid has been simulated for nothing.
    def run_campaign(*args, **kwargs):
        raise AssertionError("the campaign ran before its paths were checked")
    monkeypatch.setattr(cli, "run_campaign", run_campaign)
    assert main(["campaign", "--design", "tmr", "--fault", "transient",
                 option, UNWRITABLE]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert UNWRITABLE in lines[0]


def test_campaign_output_check_leaves_paths_as_they_were(tmp_path, capsys):
    # Checking a path first neither changes the bytes a campaign writes
    # over an existing file nor leaves a new file behind when the run
    # then fails.
    argv = ["campaign", "--design", "hfs", "--fault", "transient",
            "--sample", "20", "--seed", "3"]
    files = {}
    for tag in ("fresh", "existing"):
        j, c = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        if tag == "existing":
            j.write_text("x" * 100_000)
            c.write_text("x" * 100_000)
        assert main(argv + ["--out-json", str(j), "--out-csv", str(c)]) == 0
        files[tag] = (j.read_bytes(), c.read_bytes())
    assert files["existing"] == files["fresh"]
    left = tmp_path / "left.json"
    assert main(["campaign", "--design", "hfs", "--fault", "transient",
                 "--sample", "0", "--out-json", str(left)]) == 2
    assert not left.exists()


def test_synth_writes_design_json(tmp_path, capsys):
    out = tmp_path / "design.json"
    assert main(["synth", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_stages"] == 5
    assert doc["meta"]["tool_version"]
    assert doc["meta"]["params_sha256"] == DEFAULT_PARAMS.sha256()
    assert len(doc["cuts"]) == 5
    assert doc["netlist"]["gates"]


def test_simulate_fault_free_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["simulate", "--design", "original", "--count", "6",
                 "--trace", str(trace)]) == 0
    lines = trace.read_text().strip().split("\n")
    head = json.loads(lines[0])
    assert head["design"] == "original"
    recs = [json.loads(l) for l in lines[1:]]
    assert all(set(r) == {"cycle", "input", "accepted", "err", "Err",
                          "output"} for r in recs)
    outs = [r["output"] for r in recs if r["output"] is not None]
    assert len(outs) == 6


def test_simulate_with_fault(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["simulate", "--design", "hfs", "--count", "10",
                 "--fault-site", "reg:1:2:0", "--fault-model", "flip",
                 "--fault-start", "6", "--fault-duration", "3",
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "detected_corrected" in out
    recs = [json.loads(l) for l in trace.read_text().strip().split("\n")[1:]]
    assert any(r["Err"] for r in recs)
    outs = [r["output"] for r in recs if r["output"] is not None]
    assert len(outs) == 10


@pytest.mark.parametrize("model", ["sa0", "sa1", "flip"])
def test_comparator_fault_trace_prints_err_as_booleans(model, tmp_path,
                                                       capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["simulate", "--design", "hfs", "--count", "10",
                 "--fault-site", "du:2", "--fault-model", model,
                 "--fault-start", "6", "--fault-duration", "3",
                 "--trace", str(trace)]) == 0
    recs = [json.loads(l) for l in trace.read_text().splitlines()[1:]]
    errs = [e for r in recs for e in r["err"]]
    assert errs and all(type(e) is bool for e in errs)
    assert any(errs) == (model != "sa0")


def test_simulate_explicit_hex_input(capsys):
    assert main(["simulate", "--design", "ttr", "--input-hex", "0053"]) == 0
    assert "outputs=2" in capsys.readouterr().out


def test_simulate_bad_site_is_config_error(capsys):
    assert main(["simulate", "--design", "hfs", "--fault-site", "gibberish",
                 "--count", "2"]) == 2


def test_campaign_guarantee_held_and_artifacts(tmp_path, capsys):
    j = tmp_path / "r.json"
    c = tmp_path / "r.csv"
    rc = main(["campaign", "--design", "hfs", "--fault", "transient",
               "--sample", "60", "--seed", "21",
               "--out-json", str(j), "--out-csv", str(c)])
    assert rc == 0
    assert "guarantee HELD" in capsys.readouterr().out
    doc = json.loads(j.read_text())
    assert doc["counts"]["sdc"] == 0
    assert doc["meta"]["seed"] == 21
    assert c.read_text().startswith("site,model,duration,start,")


def test_campaign_unprotected_violates(capsys):
    rc = main(["campaign", "--design", "original", "--fault", "transient",
               "--sample", "80", "--seed", "21"])
    assert rc == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_campaign_repeat_same_seed_byte_identical(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        j = tmp_path / f"{tag}.json"
        c = tmp_path / f"{tag}.csv"
        assert main(["campaign", "--design", "tmr", "--fault", "transient",
                     "--sample", "40", "--seed", "77",
                     "--out-json", str(j), "--out-csv", str(c)]) == 0
        blobs.append((j.read_bytes(), c.read_bytes()))
    assert blobs[0] == blobs[1]


def test_report_formats_agree(tmp_path, capsys):
    assert main(["report", "--format", "csv",
                 "--output", str(tmp_path / "r.csv")]) == 0
    assert main(["report", "--format", "json",
                 "--output", str(tmp_path / "r.json")]) == 0
    csv_lines = (tmp_path / "r.csv").read_text().strip().split("\n")
    doc = json.loads((tmp_path / "r.json").read_text())
    header = csv_lines[0].split(",")
    for line, jrow in zip(csv_lines[1:], doc["rows"]):
        for key, cell in zip(header, line.split(",")):
            assert str(jrow[key]) == cell
    assert doc["meta"]["cost_table_sha256"]


def test_report_text_to_stdout(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    for name in ("original", "tmr", "ttr", "hfs"):
        assert name in out


def test_custom_cost_table_flows_through(tmp_path, capsys):
    costs = CostTable(entries=dict(DEFAULT_COSTS.entries),
                      register_bit_ge=5.0)
    p = tmp_path / "costs.json"
    p.write_text(json.dumps(costs.to_json_dict()))
    assert main(["report", "--costs", str(p), "--format", "json",
                 "--output", str(tmp_path / "r.json")]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["meta"]["cost_table_sha256"] == costs.sha256()
    rows = {r["design"]: r for r in doc["rows"]}
    assert rows["original"]["area_ge"] < rows["ttr"]["area_ge"] \
        < rows["hfs"]["area_ge"] < rows["tmr"]["area_ge"]
