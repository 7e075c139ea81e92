import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import mirrored, pd_text, state_sum_bracket, transfer_bracket
from skeinquant import cli, errors, jones, knotstate
from skeinquant.diagrams import BraidWord, braid_to_diagram
from skeinquant.jones import KnotPresentation, colored_jones_exact
from skeinquant.roots import RootContext

RUN = [sys.executable, "-m", "skeinquant.cli"]
SRC = str(Path(cli.__file__).resolve().parents[1])   # the child imports the same package


def run_cli(*args, check=True, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, env=env,
                          timeout=timeout)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_tqft_matrices_shape(tmp_path):
    out = tmp_path / "tq.json"
    run_cli("tqft", "--r", "5", "--emit", "matrices", "--out", str(out))
    doc = json.loads(out.read_text())
    rep_t = doc["result"]["rep_T"]
    rep_s = doc["result"]["rep_S"]
    assert len(rep_t) == 5 and all(len(row) == 5 for row in rep_t)
    assert len(rep_s) == 5 and all(len(row) == 5 for row in rep_s)
    assert all(isinstance(entry, list) and len(entry) == 2
               for row in rep_s for entry in row)
    # rep_T diagonal
    assert all(rep_t[i][j] == [0.0, 0.0] for i in range(5) for j in range(5) if i != j)
    assert doc["manifest"]["conventions_version"] == "1"


def test_jones_exact_string():
    proc = run_cli("jones", "--knot", "figure-eight", "--n", "2", "--exact")
    doc = json.loads(proc.stdout)
    assert doc["result"]["polynomial"] == "t^-2 - t^-1 + 1 - t + t^2"


def test_jones_numeric_schema():
    proc = run_cli("jones", "--knot", "trefoil", "--n", "2", "--r", "4")
    res = json.loads(proc.stdout)["result"]
    assert set(res) == {"knot", "n", "r", "re", "im", "backend"}
    assert res["backend"] == "catalog"


def test_braid_input():
    proc = run_cli("jones", "--braid", "1 1 1", "--strands", "2", "--n", "2",
                   "--r", "4", "--backend", "rmatrix")
    res = json.loads(proc.stdout)["result"]
    proc2 = run_cli("jones", "--knot", "trefoil", "--n", "2", "--r", "4")
    res2 = json.loads(proc2.stdout)["result"]
    assert abs(res["re"] - res2["re"]) < 1e-9
    assert abs(res["im"] - res2["im"]) < 1e-9


def test_bracket_pd_file(tmp_path):
    pd = tmp_path / "trefoil.pd"
    pd.write_text("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n")
    proc = run_cli("bracket", "--pd", str(pd))
    res = json.loads(proc.stdout)["result"]
    assert res["crossings"] == 3 and res["components"] == 1
    assert "A" in res["bracket"]


def test_bracket_braid_equals_state_sum():
    # links, a strand no generator touches, and words up to 14 crossings on 4 strands
    rng = random.Random(5)
    words = [((1, -2, 1, -2), 3), ((1, 1), 3), ((2, -1, 2, 2, -1), 3),
             (tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(14)), 4),
             (tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(12)), 4)]
    for word, strands in words:
        proc = run_cli("bracket", "--braid", " ".join(map(str, word)), "--strands", str(strands))
        braid = BraidWord(word, strands)
        diagram = braid_to_diagram(braid)
        # the state sum up to its 12 crossings, the transfer past them
        oracle = state_sum_bracket(diagram) if len(word) <= 12 else transfer_bracket(braid)
        assert json.loads(proc.stdout)["result"] == {
            "bracket": oracle.format("A"),
            "crossings": diagram.num_crossings, "components": diagram.num_components}


def test_bracket_braid_past_the_state_sum_guard():
    rng = random.Random(30)
    word = tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(30))
    res = json.loads(run_cli("bracket", "--braid", " ".join(map(str, word)),
                             "--strands", "4").stdout)["result"]
    assert res["crossings"] == 30
    assert res["bracket"] == transfer_bracket(BraidWord(word, 4)).format("A")


@pytest.mark.parametrize("crossings", (30, 40))
def test_bracket_pd_is_independent_of_crossing_order_and_labels(tmp_path, crossings):
    rng = random.Random(crossings)
    word = tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(crossings))
    braid = BraidWord(word, 4)
    diagram = braid_to_diagram(braid)
    lines = pd_text(diagram).splitlines()
    rng.shuffle(lines)
    arcs = diagram.arcs()
    relabel = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs)), len(arcs))))
    pd = tmp_path / "closure.pd"
    pd.write_text("".join("X " + " ".join(str(relabel[int(a)]) for a in line.split()[1:]) + "\n"
                          for line in lines))
    t0 = time.perf_counter()
    via_pd = json.loads(run_cli("bracket", "--pd", str(pd)).stdout)["result"]
    elapsed = time.perf_counter() - t0
    via_braid = json.loads(run_cli("bracket", "--braid", " ".join(map(str, word)),
                                   "--strands", "4").stdout)["result"]
    assert via_pd == via_braid
    assert via_pd["bracket"] == transfer_bracket(braid).format("A")
    assert elapsed < 1.0, elapsed   # a whole CLI process, from a cold start


def test_knot_state_evaluates_jones_once(monkeypatch, capsys):
    calls = {"catalog": 0, "rmatrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(jones, "catalog_jones_values",
                        counted("catalog", jones.catalog_jones_values))
    monkeypatch.setattr(jones, "colored_jones_rmatrix",
                        counted("rmatrix", jones.colored_jones_rmatrix))
    assert cli.main(["knot-state", "--knot", "trefoil", "--r", "40"]) == 0
    assert calls == {"catalog": 1, "rmatrix": 0}
    assert cli.main(["knot-state", "--braid", "1 1 1 2 -1 2", "--strands", "3", "--r", "8"]) == 0
    assert calls == {"catalog": 1, "rmatrix": 8}   # one per color n = 1..8


def test_knot_state_runs_through_knot_state(monkeypatch, capsys):
    # the command takes the state and its norm from the public knot_state, which
    # evaluates J once for both
    calls = {"knot_state": 0, "catalog": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "knot_state", counted("knot_state", knotstate.knot_state))
    monkeypatch.setattr(jones, "catalog_jones_values",
                        counted("catalog", jones.catalog_jones_values))
    assert cli.main(["knot-state", "--knot", "figure-eight", "--r", "12"]) == 0
    assert calls == {"knot_state": 1, "catalog": 1}
    result = json.loads(capsys.readouterr().out)["result"]
    state = knotstate.knot_state(KnotPresentation.from_catalog("figure-eight"), 12)
    assert result["norm_sq"] == state.norm.norm_sq
    assert result["argmax_n"] == state.norm.argmax_n


@pytest.mark.parametrize("argv", (
    ["jones", "--knot", "trefoil", "--braid", "1 -2 1 -2", "--strands", "3", "--n", "3",
     "--r", "8"],
    ["knot-state", "--knot", "trefoil", "--braid", "1 1 1", "--strands", "2", "--r", "8"],
    ["volume-seq", "--knot", "trefoil", "--braid", "1 1 1", "--strands", "2", "--r-min", "5",
     "--r-max", "6", "--out", "{out}"],
    ["bracket", "--pd", "{pd}", "--braid", "1 1 1", "--strands", "2"],
))
def test_two_inputs_exit_2_with_one_line(tmp_path, argv):
    # a second input is refused, not silently dropped
    pd = tmp_path / "trefoil.pd"
    pd.write_text("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n")
    argv = [a.format(out=tmp_path / "v.csv", pd=pd) for a in argv]
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2 and proc.stdout == "", proc.stdout
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "give one input" in proc.stderr, proc.stderr
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("argv, key, value", (
    (["jones", "--braid", "", "--strands", "1", "--n", "3", "--exact"], "polynomial", "1"),
    (["bracket", "--braid", "", "--strands", "1"], "bracket", "-A^-2 - A^2"),
))
def test_empty_braid_is_the_unknot(capsys, argv, key, value):
    # the empty word on one strand closes to the unknot: an input, not a missing one
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"][key] == value


@pytest.mark.parametrize("argv, message", (
    (["jones", "--knot", "trefoil", "--braid", "", "--n", "2"], "give one input"),
    (["jones", "--braid", "", "--strands", "2", "--n", "2", "--exact"], "has 2 components"),
))
def test_empty_braid_is_refused_as_an_input(capsys, argv, message):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_empty_tqft_word_is_the_identity(capsys):
    # the empty mapping class word is an input, as the empty braid is
    assert cli.main(["tqft", "--r", "3", "--word", ""]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["word"] == [] and res["word_matrix"] == [[1, 0], [0, 1]]
    assert res["rep_word"] == [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]


def test_rmatrix_budget_exits_2():
    proc = run_cli("jones", "--braid", "1 2 3 4 5 6 1 2 3 4 5 6", "--strands", "7", "--n", "6",
                   "--r", "20", check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert ("has 24017 states and needs 161528777768 bytes (154046 MiB), over the "
            "268435456-byte (256 MiB) budget\n") in proc.stderr


@pytest.mark.parametrize("argv", (
    ["tqft", "--r", "5000"],
    ["geom-verify", "--r", "1500", "--tau", "i"],
    ["jones", "--braid", "1 -2 1 -2", "--strands", "3", "--n", "1000", "--r", "1000",
     "--backend", "rmatrix"],
))
def test_budgets_refuse_before_building(argv):
    # each count is a closed form, checked before the first array of its run; the
    # timeout kills a child that builds instead
    proc = run_cli(*argv, check=False, timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "MiB" in proc.stderr and (argv[0] == "jones" or f"r = {argv[2]}" in proc.stderr)


def test_tqft_refusal_reads_over_the_budget(monkeypatch, capsys):
    # r = 1365 with a word is 16 bytes over: the count and the budget print in bytes
    monkeypatch.setattr(cli, "rep_T", lambda r: pytest.fail("a matrix was built"))
    assert cli.main(["tqft", "--r", "1365", "--word", "S"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: tqft at r = 1365 needs 268435472 bytes (256 MiB), over the "
                   "268435456-byte (256 MiB) budget\n"), err


def test_memory_error_in_a_command_exits_2(monkeypatch, capsys):
    def exhausted(r):
        raise MemoryError

    monkeypatch.setattr(cli, "rep_S", exhausted)
    assert cli.main(["tqft", "--r", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: out of memory\n"


@pytest.mark.parametrize("word", (None, "S T S"))
@pytest.mark.parametrize("r", (20, 100, pytest.param(300, marks=pytest.mark.slow)))
def test_tqft_counts_its_traced_peak(monkeypatch, tmp_path, r, word):
    # the matrices and the writer's row of text stay within the count (over half
    # of it from r = 100); one byte less refuses before a matrix
    argv = ["tqft", "--r", str(r), "--out", str(tmp_path / "t.json")]
    argv += ["--word", word] if word else []
    count = cli._tqft_bytes(r, 3 if word else 2)
    cli.main(["tqft", "--r", "3"] + argv[3:])   # the parser, built once per process
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= count and (r < 100 or count < 2 * peak), (peak, count)
    monkeypatch.setattr(errors, "BYTE_BUDGET", count - 1)
    monkeypatch.setattr(cli, "rep_T", lambda r: pytest.fail("a matrix was built"))
    assert cli.main(argv) == 2


def test_knot_state_exact_backend_matches_the_catalog():
    coeffs = {}
    for backend in ("exact", "auto"):
        proc = run_cli("knot-state", "--braid", "1 -2 1 -2", "--strands", "3", "--r", "8",
                       "--backend", backend)
        coeffs[backend] = [complex(c["re"], c["im"])
                           for c in json.loads(proc.stdout)["result"]["coeffs"]]
    assert len(coeffs["exact"]) == 8
    assert all(abs(a - b) <= 1e-10 * max(1.0, abs(b))
               for a, b in zip(coeffs["exact"], coeffs["auto"]))


def test_rt_command():
    proc = run_cli("rt", "--surgery", "unknot", "--framing", "0", "--r", "4")
    val = json.loads(proc.stdout)["result"]["value"]
    assert abs(val["re"] - 1.0) < 1e-9 and abs(val["im"]) < 1e-9


def test_rt_at_a_far_framing_equals_its_twin(capsys):
    # 10^12 + 7 = 63 mod 2(2r+1) at r = 5, and the twist power is reduced in integers
    values = []
    for framing in ("1000000000007", "63"):
        assert cli.main(["rt", "--surgery", "trefoil", "--framing", framing, "--r", "5"]) == 0
        values.append(json.loads(capsys.readouterr().out)["result"]["value"])
    assert values[0] == values[1]


def test_geom_verify_exit_status(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("geom-verify", "--r", "3", "--tau", "i",
                   "--skip-modular", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["pass"] is True
    assert all(v < 1e-6 for v in doc["result"]["residuals"].values())


@pytest.mark.parametrize("argv", [
    ["jones", "--knot", "trefoil", "--n", "2"],
    ["bracket", "--braid", "1 1 1", "--strands", "2"],
    ["tqft", "--r", "3"],
    ["rt", "--r", "3"],
    ["geom-verify", "--r", "3"],
    ["knot-state", "--knot", "trefoil", "--r", "3"],
], ids=lambda argv: argv[0])
def test_a_command_returns_its_result_and_main_writes_it(capsys, tmp_path, monkeypatch, argv):
    # the handler, given _parse's namespace, returns its result and writes nothing; main
    # writes that result under its manifest
    monkeypatch.chdir(tmp_path)
    command, values = cli._parse(argv)
    result = cli._COMMANDS[command][0](SimpleNamespace(**values))
    assert isinstance(result, dict)
    assert capsys.readouterr() == ("", "") and not any(tmp_path.iterdir())
    assert cli.main(argv) == 0
    doc = {"manifest": cli._manifest(command, values), "result": result}
    assert capsys.readouterr() == ("".join(cli._json_chunks(doc, "")) + "\n", "")


def test_volume_seq_writes_its_files_and_returns_none(capsys, tmp_path):
    out = tmp_path / "seq.csv"
    command, values = cli._parse(["volume-seq", "--knot", "trefoil", "--r-min", "40",
                                  "--r-max", "40", "--out", str(out)])
    assert cli._COMMANDS[command][0](SimpleNamespace(**values)) is None
    assert capsys.readouterr() == (f"wrote 1 rows to {out}\n", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seq.csv", "seq.csv.manifest.json"]
    manifest = json.loads((tmp_path / "seq.csv.manifest.json").read_text())
    assert manifest == cli._manifest(command, values)
    assert len(out.read_text().splitlines()) == 2


def test_volume_seq_csv_and_manifest(tmp_path):
    out = tmp_path / "seq.csv"
    run_cli("volume-seq", "--knot", "figure-eight", "--r-min", "10",
            "--r-max", "30", "--step", "10", "--out", str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,norm_sq,v_r,argmax_n,ref_vol,rel_err"
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "seq.csv.manifest.json").read_text())
    assert manifest["command"] == "volume-seq"
    assert manifest["conventions_version"] == "1"


@pytest.mark.parametrize("argv, csv", [
    (["--knot", "figure-eight", "--r-min", "1100", "--r-max", "1100"],
     b"r,norm_sq,v_r,argmax_n,ref_vol,rel_err\r\n"
     b"1100,inf,2.03746634340099,1100,2.02988321281931,0.0037357472261439\r\n"),
    (["--knot", "trefoil", "--r-min", "40", "--r-max", "50"],
     b"r,norm_sq,v_r,argmax_n,ref_vol,rel_err\r\n"
     b"40,27,0.25885442214174,40,0,0.25885442214174\r\n"
     b"50,34,0.221567766360864,50,0,0.221567766360864\r\n"),
    (["--knot", "figure-eight", "--r-min", "295", "--r-max", "295"],
     b"r,norm_sq,v_r,argmax_n,ref_vol,rel_err\r\n"
     b"295,4.45696295399622e+83,2.05118343934682,295,2.02988321281931,0.0104933261150168\r\n"),
    # the 50-digit references are 58.000...0 and 80.000...0 (mpmath's Habiro products at
    # 400 bits), and v_r 0.14832858060758900391... and 0.1147211890277189267...
    (["--knot", "trefoil", "--r-min", "86", "--r-max", "86"],
     b"r,norm_sq,v_r,argmax_n,ref_vol,rel_err\r\n"
     b"86,58,0.148328580607589,86,0,0.148328580607589\r\n"),
    (["--knot", "trefoil", "--r-min", "120", "--r-max", "120"],
     b"r,norm_sq,v_r,argmax_n,ref_vol,rel_err\r\n"
     b"120,80,0.114721189027719,120,0,0.114721189027719\r\n"),
])
def test_volume_seq_csv_bytes(tmp_path, capsys, argv, csv):
    # the bytes the csv module's excel dialect wrote: CRLF line ends, no field quoted
    out = tmp_path / "seq.csv"
    assert cli.main(["volume-seq", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == csv


def test_volume_seq_without_out_exits_2_before_computing(monkeypatch, capsys):
    def no_rows(*args, **kwargs):
        raise AssertionError("volume-seq computed its rows before checking --out")

    monkeypatch.setattr(cli, "volume_sequence", no_rows)
    assert cli.main(["volume-seq", "--knot", "figure-eight", "--r-min", "10",
                     "--r-max", "30", "--step", "10"]) == 2
    err = capsys.readouterr().err
    assert err == "error: volume-seq requires --out CSV path\n"


def test_volume_seq_past_the_float_range_writes_the_values_row(monkeypatch, tmp_path):
    # a float pass out of range leaves the row to the certified values, which write
    # their own last digits (the float pass writes 1.58623332714075e+66 and ...013)
    monkeypatch.setitem(jones.CATALOG, "figure-eight",
                        jones.CATALOG["figure-eight"]._replace(norm=lambda r: None))
    out = tmp_path / "seq.csv"
    assert cli.main(["volume-seq", "--knot", "figure-eight", "--r-min", "233",
                     "--r-max", "233", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"r,norm_sq,v_r,argmax_n,ref_vol,rel_err\r\n"
        b"233,1.5862333271407e+66,2.05527546527506,233,2.02988321281931,0.0125092184099011\r\n")


def test_volume_seq_uncertified_value_exits_2(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-300)
    out = tmp_path / "seq.csv"
    assert cli.main(["volume-seq", "--knot", "figure-eight", "--r-min", "100",
                     "--r-max", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_volume_seq_uncertified_trefoil_norm_takes_the_values_and_exits_2(monkeypatch, capsys,
                                                                         tmp_path):
    # the norm pass's integer certificate fails, and the values' own then raises
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-300)
    out = tmp_path / "seq.csv"
    assert cli.main(["volume-seq", "--knot", "trefoil", "--r-min", "100",
                     "--r-max", "100", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: trefoil J(1) at r=100 misses 1e-300\n"


@pytest.mark.parametrize("argv", (
    ["--braid", "1 1 1 2 -1 2", "--strands", "3", "--ref-vol=nan"],
    ["--braid", "1 1 1 2 -1 2", "--strands", "3", "--ref-vol=inf"],
    ["--braid", "1 1 1 2 -1 2", "--strands", "3", "--ref-vol=-2"],
    ["--knot", "figure-eight", "--ref-vol", "7"],
    ["--braid", "1 -2 1 -2", "--strands", "3", "--ref-vol", "2.03"],   # the catalog's word
    ["--braid", "-2 1 -2 1", "--strands", "3", "--ref-vol", "2.0298832128193074"],   # rotated
    ["--braid", "-2 2 2 1 2 -2 -1 1", "--strands", "3", "--ref-vol", "0"],   # the unknot
    ["--braid", "-1 -1 -1", "--strands", "2", "--ref-vol", "0"],   # the trefoil's mirror
))
def test_volume_seq_bad_ref_vol_exits_2_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "seq.csv"
    assert cli.main(["volume-seq", *argv, "--r-min", "8", "--r-max", "8",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("r", ("12", "20", "30"))
def test_volume_seq_reads_a_rotated_catalog_word_from_the_catalog(tmp_path, capsys, r):
    rows = []
    for argv in (["--knot", "figure-eight"], ["--braid", "-2 1 -2 1", "--strands", "3"]):
        out = tmp_path / "seq.csv"
        assert cli.main(["volume-seq", *argv, "--r-min", r, "--r-max", r, "--out", str(out)]) == 0
        rows.append(out.read_bytes())
    assert rows[0] == rows[1]


@pytest.mark.parametrize("knot, braid, strands", (("trefoil", "1 1 1 2", "3"),
                                                  ("figure-eight", "1 -2 1 -2 3", "4")))
def test_volume_seq_reads_a_stabilized_catalog_word_from_the_catalog(tmp_path, capsys, knot,
                                                                     braid, strands):
    rows = []
    for argv in (["--knot", knot], ["--braid", braid, "--strands", strands]):
        out = tmp_path / "seq.csv"
        assert cli.main(["volume-seq", *argv, "--r-min", "30", "--r-max", "30",
                         "--out", str(out)]) == 0
        rows.append(out.read_bytes())
    assert rows[0] == rows[1]


def test_volume_seq_reads_a_cancelled_unknot_word_from_the_catalog(tmp_path, capsys):
    # its normal form is the empty word on one strand; as typed it wrote v_30 = 2.116
    rows = []
    for argv in (["--knot", "unknot"], ["--braid", "-2 2 2 1 2 -2 -1 1", "--strands", "3"]):
        out = tmp_path / "seq.csv"
        assert cli.main(["volume-seq", *argv, "--r-min", "12", "--r-max", "30", "--step", "18",
                         "--out", str(out)]) == 0
        rows.append(out.read_bytes())
    assert rows[0] == rows[1] == b"r,norm_sq,v_r,argmax_n,ref_vol,rel_err\r\n" + \
        b"12,1,0,1,0,0\r\n30,1,0,1,0,0\r\n"


def test_knot_state_of_a_cancelled_trefoil_word_is_the_catalog_state(capsys):
    # -1 2 2 2 2 -1 -2 1 cancels to 2 2 2 -1 and destabilizes to the catalog trefoil;
    # as typed it ran the R-matrix on 3 strands, 6.7e-9 off at n = 8
    results = []
    for argv in (["--knot", "trefoil"], ["--braid", "-1 2 2 2 2 -1 -2 1", "--strands", "3"]):
        assert cli.main(["knot-state", *argv, "--r", "8"]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0]["coeffs"] == results[1]["coeffs"]
    assert results[0]["norm_sq"] == results[1]["norm_sq"]


def test_volume_seq_reads_the_trefoil_mirror_as_the_trefoil_row(tmp_path, capsys):
    # |J(K*)| = |J(K)| at |t| = 1; on the R-matrix the mirror wrote v_30 = 1.71317
    rows = []
    for argv in (["--knot", "trefoil"], ["--knot", "trefoil-mirror"],
                 ["--braid", "-1 -1 -1", "--strands", "2"]):
        out = tmp_path / "seq.csv"
        assert cli.main(["volume-seq", *argv, "--r-min", "30", "--r-max", "30",
                         "--out", str(out)]) == 0
        rows.append(out.read_bytes())
    assert rows[0] == rows[1] == rows[2] == b"r,norm_sq,v_r,argmax_n,ref_vol,rel_err\r\n" + \
        b"30,20,0.313712350090636,30,0,0.313712350090636\r\n"


def test_knot_state_of_the_trefoil_mirror_conjugates_the_trefoil_state(capsys):
    results = []
    for argv in (["--knot", "trefoil"], ["--braid", "-1 -1 -1", "--strands", "2"]):
        assert cli.main(["knot-state", *argv, "--r", "8"]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[1]["coeffs"] == [{"im": -c["im"], "re": c["re"]}
                                    for c in results[0]["coeffs"]]
    assert results[0]["norm_sq"] == results[1]["norm_sq"]


@pytest.mark.parametrize("knot", ("trefoil", "trefoil-mirror"))
def test_catalog_refusal_names_the_knot_asked_for(monkeypatch, capsys, knot):
    # 2r+1 = 17 divides the color, where Morton's denominator vanishes: its value's own
    # certificate fails under a tolerance no sum meets
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-300)
    assert cli.main(["jones", "--knot", knot, "--n", "17", "--r", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {knot} J(17) at r=8 misses 1e-300\n"


@pytest.mark.parametrize("n", range(1, 6))
def test_exact_jones_of_the_trefoil_mirror_is_the_mirrored_polynomial(capsys, n):
    assert cli.main(["jones", "--knot", "trefoil-mirror", "--n", str(n), "--exact"]) == 0
    got = json.loads(capsys.readouterr().out)["result"]["polynomial"]
    trefoil = colored_jones_exact(KnotPresentation.from_catalog("trefoil"), n)
    assert got == mirrored(trefoil).format("t")


def test_exact_jones_of_a_catalog_knot_runs_no_engine(capsys, monkeypatch):
    monkeypatch.setattr(jones, "_colored_jones_exact_cached",
                        lambda *args: pytest.fail("the sector engine ran"))
    assert cli.main(["jones", "--knot", "figure-eight", "--n", "4", "--exact"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["backend"] == "catalog"
    assert res["polynomial"] == ("t^-12 - t^-11 - t^-10 + 2t^-8 - 2t^-6 + 3t^-4 - 3t^-2 + 3"
                                 " - 3t^2 + 3t^4 - 2t^6 + 2t^8 - t^10 - t^11 + t^12")


def test_exact_backend_forces_the_engine_on_a_catalog_knot(capsys, monkeypatch):
    calls, engine = [], jones._colored_jones_exact_cached
    monkeypatch.setattr(jones, "_colored_jones_exact_cached",
                        lambda *args: calls.append(args) or engine(*args))
    argv = ["jones", "--knot", "figure-eight", "--n", "4", "--exact"]
    assert cli.main(argv + ["--backend", "exact"]) == 0
    forced = json.loads(capsys.readouterr().out)["result"]
    assert calls == [((1, -2, 1, -2), 3, 4)] and forced["backend"] == "exact"
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["polynomial"] == forced["polynomial"]
    assert len(calls) == 1


def test_exact_jones_past_the_budget_exits_2_before_the_sum(capsys, monkeypatch):
    monkeypatch.setattr(jones.LaurentPoly, "__mul__", lambda *args: pytest.fail("the sum ran"))
    assert cli.main(["jones", "--knot", "trefoil", "--n", "20000", "--exact"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: the trefoil sum at n=20000 holds 4 polynomials of "
                          "799960001 terms and needs "), err


def test_volume_seq_ref_vol_of_a_custom_braid(tmp_path, capsys):
    out = tmp_path / "seq.csv"
    assert cli.main(["volume-seq", "--braid", "1 1 1 2 -1 2", "--strands", "3", "--ref-vol",
                     "2.5", "--r-min", "8", "--r-max", "8", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == "2.5" and float(row[5]) == pytest.approx(abs(float(row[2]) - 2.5) / 2.5)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("knot-state", "--knot", "trefoil", "--r", "4", "--out", str(a))
    run_cli("knot-state", "--knot", "trefoil", "--r", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 6}))
    proc = run_cli("tqft", "--config", str(cfg))
    assert json.loads(proc.stdout)["result"]["r"] == 6
    proc = run_cli("tqft", "--config", str(cfg), "--r", "3")
    assert json.loads(proc.stdout)["result"]["r"] == 3


def test_config_file_in_process_leaves_the_next_call_alone(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 6, "n": 3}))   # tqft has no --n: ignored
    assert cli.main(["tqft", "--config", str(cfg)]) == 0
    from_config = json.loads(capsys.readouterr().out)
    assert cli.main(["tqft", "--r", "6"]) == 0
    assert json.loads(capsys.readouterr().out) == from_config
    assert cli.main(["tqft"]) == 2   # the first call's --config is gone
    assert "--r" in capsys.readouterr().err
    assert cli.main(["tqft", "--config", str(cfg), "--r", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["r"] == 3


@pytest.mark.parametrize("spelling", (["--config={}"], ["--conf", "{}"], ["--conf={}"],
                                      ["--c", "{}"]))
def test_config_file_spellings_argparse_accepts(tmp_path, capsys, spelling):
    # the flag in full with '=', and the prefixes argparse resolves to --config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 6, "word": "S T"}))
    flag = [a.format(cfg) for a in spelling]
    assert cli.main(["tqft", *flag]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["r"] == 6 and res["word"] == ["S", "T"]
    assert cli.main(["tqft", "--r", "3", *flag]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["r"] == 3 and res["word"] == ["S", "T"]


def test_config_file_store_true_and_dashed_values(tmp_path, capsys):
    def run(command, config, *argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(cfg), *argv]) == 0
        return json.loads(capsys.readouterr().out)

    assert run("jones", {"exact": True, "knot": "trefoil", "n": 2})["result"]["polynomial"] \
        == run("jones", {}, "--knot", "trefoil", "--n", "2", "--exact")["result"]["polynomial"]
    assert run("jones", {"exact": False, "knot": "trefoil", "n": 2})["result"]["backend"] \
        == "catalog"
    assert run("geom-verify", {"r": 3, "tau": "-1+2i", "skip_modular": True}) \
        == run("geom-verify", {}, "--r", "3", "--tau=-1+2i", "--skip-modular")


@pytest.mark.parametrize("value", ("false", "true", 0, 1, [], {}))
def test_config_switch_takes_json_true_or_false_alone(tmp_path, capsys, value):
    # bool("false") is True: read as a truth value, the string turned --exact on
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exact": value}))
    assert cli.main(["jones", "--knot", "trefoil", "--n", "3", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --exact takes true or false, not {json.dumps(value)}\n"


def test_error_exit_codes(tmp_path):
    proc = run_cli("jones", "--n", "2", check=False)
    assert proc.returncode == 2
    assert "provide --knot or --braid" in proc.stderr
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps(["--r", "3"]))
    framed = tmp_path / "framed.pd"   # the PD format has crossing lines only
    framed.write_text("F 2\nX 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n")
    for argv in (["jones", "--knot", "trefoil", "--n", "2", "--config"],
                 ["bracket", "--pd", str(framed)],
                 ["jones", "--braid", "1 1 1", "--n", "2"],
                 ["tqft", "--r", "3", "--config", str(listed)],
                 ["jones", "--braid", "1", "--strands", "3", "--n", "2"],
                 ["knot-state", "--knot", "trefoil", "--r", "2"],
                 ["geom-verify", "--r", "3", "--tau", "1-i"],
                 ["geom-verify", "--r", "3", "--tau", "x"],
                 ["tqft", "--r", "4", "--word", "Q"],
                 ["jones", "--knot", "trefoil", "--n", "0", "--r", "5"],
                 ["jones", "--knot", "trefoil", "--n", "2", "--exact", "--backend", "rmatrix"],
                 ["jones", "--braid", "1 1 1 2 -1 2", "--strands", "3", "--n", "2", "--exact",
                  "--backend", "catalog"]):
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", (
    [], ["frob"],
    ["jones", "--knot", "trefoil"],
    ["jones", "--knot", "trefoil", "--n", "x"],
    ["jones", "--knot", "granny", "--n", "2"],
    ["jones", "--knot", "trefoil", "--n", "2", "--bogus", "1"],
    ["volume-seq", "--r", "3"],
    ["jones", "--knot", "trefoil", "--n", "2", "--exact=1"],
    ["jones", "--knot", "trefoil", "--n"],
))
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", (
    ["knot-state", "--knot", "trefoil", "--r", "0"],
    ["knot-state", "--knot", "trefoil", "--r", "1"],
    ["knot-state", "--knot", "figure-eight", "--r", "-1"],
    ["volume-seq", "--knot", "figure-eight", "--r-min", "0", "--r-max", "2", "--step", "1",
     "--out", "v.csv"],
))
def test_levels_below_3_are_refused_before_any_catalog_sum(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    for name, entry in jones.CATALOG.items():
        monkeypatch.setitem(jones.CATALOG, name, entry._replace(
            values=lambda *args: pytest.fail("a catalog sum ran"),
            norm=lambda *args: pytest.fail("a catalog norm ran")))
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: level r must be >= 3\n")


@pytest.mark.parametrize("argv, spelled", (
    (["geom-verify", "--r", "3", "--tau", "-1+2i"], ["geom-verify", "--r", "3", "--tau=-1+2i"]),
    (["rt", "--surgery", "trefoil", "--framing", "-1", "--r", "5"],
     ["rt", "--surgery", "trefoil", "--framing=-1", "--r", "5"]),
    (["bracket", "--braid", "-1 2 -2", "--strands", "3"],
     ["bracket", "--braid=-1 2 -2", "--strands", "3"]),
))
def test_a_value_may_begin_with_a_dash(capsys, argv, spelled):
    # the token after a value flag is its value
    assert cli.main(argv) in (0, 1)
    first = capsys.readouterr()
    assert cli.main(spelled) in (0, 1)
    assert capsys.readouterr() == first and first.err == ""


COMMANDS = ("jones", "bracket", "tqft", "rt", "geom-verify", "knot-state", "volume-seq")


def test_help_names_every_command_and_flag(capsys):
    assert run_cli("-h").stdout == run_cli("--help").stdout   # the entry point exits 0
    assert cli.main(["-h"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and tuple(cli._COMMANDS) == COMMANDS
    for name, (_, about, _) in cli._COMMANDS.items():
        assert f"  {name:<12} {about}\n" in out, out
    for name, (_, _, flags) in cli._COMMANDS.items():
        flags = {**flags, **cli._COMMON}
        assert cli.main([name, "--help"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  --")}
        assert set(lines) == {"--" + dest.replace("_", "-") for dest in flags}, out
        for dest, flag in flags.items():
            line = lines["--" + dest.replace("_", "-")]
            assert all(c in line for c in flag.choices), line
            assert flag.convert is None or flag.default is None \
                or f"default: {flag.default}" in line, line


@pytest.mark.parametrize("r, tau", (("60", "i"), ("3", "0.3+50i")))
def test_geom_verify_passes_at_large_b_n(tmp_path, r, tau):
    # b N = 121 and 350: every theta q-part is at most 1 in modulus
    out = tmp_path / "report.json"
    proc = run_cli("geom-verify", "--r", r, "--tau", tau, "--out", str(out), check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["result"]["pass"] is True


@pytest.mark.parametrize("tau, message", (("nan+1i", "tau must be finite"),
                                          ("1e400i", "tau must be finite")))
def test_geom_verify_bad_tau_exits_2_with_one_line(tau, message):
    proc = run_cli("geom-verify", "--r", "3", "--tau", tau, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv, message", (
    # Im(-1/tau) = 1e-4: the S frame's window of about 5900 terms on the
    # 4220-point grid passes the byte budget
    (["--r", "40", "--tau", "10000i"], "S-frame pairing at r = 40, tau = 10000j"),
))
def test_geom_verify_unrunnable_context_exits_2_with_one_line(argv, message):
    proc = run_cli("geom-verify", *argv, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message in proc.stderr and "MiB) budget" in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv", (
    # Im(-1/tau) = 0.038 and 2e-5: wide S-frame windows, within the byte budget
    ["--r", "40", "--tau", "5+1i"],
    ["--r", "40", "--tau", "0.3+50i"],
    # b N = 3350: the holomorphy check reads section values, not the bare g
    ["--r", "33", "--tau", "0.3+50i", "--skip-modular"],
))
def test_geom_verify_passes_with_wide_windows(tmp_path, argv):
    out = tmp_path / "report.json"
    proc = run_cli("geom-verify", *argv, "--out", str(out), check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["result"]["pass"] is True


@pytest.mark.parametrize("tau", ("0.0001i", "0.0002i"))
def test_geom_verify_passes_with_holomorphy_at_its_rounding_floor(tmp_path, tau):
    # residuals of 1.3e-9/3.6e-9 and 6.5e-10/2.3e-9 lie within 1.2-2.0 rounding floors,
    # so the coarse/fine ratio (0.36 and 0.28) reads rounding, not truncation
    out = tmp_path / "report.json"
    assert cli.main(["geom-verify", "--r", "3", "--tau", tau, "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["pass"] is True and result["checks"]["holomorphy_residual_fine"] > 1e-9


@pytest.mark.parametrize("r", ("-1", "0", "1", "2"))
def test_tqft_rejects_a_level_below_3(r):
    proc = run_cli("tqft", "--r", r, check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: level r must be >= 3\n", proc.stderr


def test_volume_seq_step_0_exits_2_and_negative_steps_run(tmp_path, capsys):
    out = str(tmp_path / "v.csv")
    argv = ["volume-seq", "--knot", "trefoil", "--r-min", "9", "--r-max", "5", "--out", out]
    assert cli.main(argv + ["--step", "0"]) == 2
    assert capsys.readouterr().err == "error: --step must not be 0\n"
    assert cli.main(argv + ["--step", "-2"]) == 0
    with open(out) as fh:
        assert [line.split(",")[0] for line in fh.read().splitlines()[1:]] == ["5", "7", "9"]
    assert cli.main(argv + ["--step", "2"]) == 2   # no level from 9 up to 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_word_matrix_emission():
    proc = run_cli("tqft", "--r", "4", "--word", "S T S")
    res = json.loads(proc.stdout)["result"]
    assert res["word"] == ["S", "T", "S"]
    assert res["word_matrix"] == [[-1, 0], [1, -1]]
    assert len(res["rep_word"]) == 4


def test_precision_loss_exits_2():
    # the trefoil's surgery sum at framing 0 cancels to rounding: the value cannot be certified
    proc = run_cli("rt", "--surgery", "trefoil", "--framing", "0", "--r", "3", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", (
    ["--knot", "figure-eight", "--backend", "rmatrix"],
    ["--braid", "1 1 1 2 -1 2", "--strands", "3"],   # auto sends a non-catalog word there
))
def test_rmatrix_at_a_vanishing_quantum_integer_exits_2(argv):
    # [7] = 0 at r = 3: the trace over it is 0/0, refused with one line
    proc = run_cli("jones", *argv, "--n", "7", "--r", "3", check=False)
    assert proc.returncode == 2
    assert proc.stderr == "error: the R-matrix gives J(7) at r=3 as 0/0: [7] = 0\n", proc.stderr


def test_trefoil_color_past_2r_comes_from_its_class(capsys):
    # J(8) = J(1) at r = 3: the catalog folds the color onto 1..r before it sums
    assert cli.main(["jones", "--knot", "trefoil", "--n", "8", "--r", "3"]) == 0
    got = json.loads(capsys.readouterr().out)["result"]
    want = colored_jones_exact(KnotPresentation.from_catalog("trefoil"), 8).eval_at(
        RootContext(3).t_value)
    assert abs(complex(got["re"], got["im"]) - want) <= 1e-10 * abs(want)
    assert got["backend"] == "catalog"


def run_in_child(argv):
    """cli.main(argv) in a fresh interpreter: its exit code, the modules that importing
    the CLI loaded, and the modules loaded when it returned."""
    code = ("import sys\n"
            "from skeinquant import cli\n"
            "imported = list(sys.modules)\n"
            f"rc = cli.main({list(argv)!r})\n"
            "print(rc, ' '.join(imported), ' '.join(sys.modules), sep='\\n', file=sys.stderr)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    lines = proc.stderr.splitlines()
    # the command writes nothing to stderr: no warning, no message
    assert proc.returncode == 0 and len(lines) == 3, proc.stderr
    rc, imported, loaded = lines
    return int(rc), imported.split(), loaded.split()


def ran(lib, modules):
    # a lazily bound library sits in sys.modules before it runs; running it loads submodules
    return any(m.startswith(lib + ".") for m in modules)


def test_cli_import_leaves_out_dataclasses_fractions_and_csv():
    # with inspect and decimal they were about a fifth of a cold import; no command needs them,
    # and the flag table needs no argparse (nor its gettext)
    rc, imported, _ = run_in_child(["bracket", "--braid", "1 1 1", "--strands", "2"])
    assert rc == 0 and not {"dataclasses", "inspect", "fractions", "decimal", "csv", "argparse",
                            "gettext"} & set(imported)


def test_geom_verify_does_not_import_numpy_random():
    # the report draws its test vectors from random.Random; numpy.random
    # costs about 6 MiB and 13 ms of import per process
    rc, _, loaded = run_in_child(["geom-verify", "--r", "3", "--tau", "i"])
    assert rc == 0 and not [m for m in loaded if m.startswith("numpy.random")]


@pytest.mark.parametrize("argv, unrun", [
    (["volume-seq", "--knot", "trefoil", "--r-min", "5", "--r-max", "40"], ("numpy", "mpmath")),
    (["bracket", "--braid", "1 -2 1 -2", "--strands", "3"], ("numpy", "mpmath")),
    (["volume-seq", "--knot", "figure-eight", "--r-min", "5", "--r-max", "40"],
     ("numpy", "mpmath")),
    (["geom-verify", "--r", "3", "--tau", "i"], ("mpmath",)),
    (["jones", "--knot", "trefoil", "--n", "4", "--exact"], ("numpy", "mpmath")),
    (["jones", "--braid", "1 -2 1 -2", "--strands", "3", "--n", "4", "--r", "8",
      "--backend", "rmatrix"], ("mpmath",)),
    (["tqft", "--r", "5", "--emit", "matrices"], ("mpmath",)),
    (["rt", "--surgery", "trefoil", "--framing", "1", "--r", "10"], ("numpy", "mpmath")),
    (["jones", "--knot", "trefoil", "--n", "4", "--exact", "--backend", "exact"], ("mpmath",)),
])
def test_numpy_and_mpmath_run_only_where_used(tmp_path, argv, unrun):
    if argv[0] == "volume-seq":
        argv = argv + ["--out", str(tmp_path / "v.csv")]
    rc, imported, loaded = run_in_child(argv)
    assert not ran("numpy", imported) and not ran("mpmath", imported)
    assert rc == 0
    assert not [lib for lib in unrun if ran(lib, loaded)]


@pytest.mark.parametrize("argv", [
    ["jones", "--knot", knot, "--n", "4", *tail]
    for knot in ("trefoil", "figure-eight")
    for tail in ([], ["--exact"], ["--r", "8", "--backend", "rmatrix"])
] + [
    ["knot-state", "--knot", "figure-eight", "--r", "30"],
    ["volume-seq", "--knot", "trefoil", "--r-min", "5", "--r-max", "40"],
    ["volume-seq", "--knot", "figure-eight", "--r-min", "5", "--r-max", "40"],
    ["bracket", "--braid", "1 -2 1 -2", "--strands", "3"],
    ["tqft", "--r", "5", "--emit", "matrices"],
    ["rt", "--surgery", "figure-eight", "--framing", "1", "--r", "10"],
    ["geom-verify", "--r", "3", "--tau", "i"],
])
def test_every_command_runs_without_mpmath(tmp_path, argv):
    # a meta-path finder in front of all others refuses mpmath and its submodules
    if argv[0] == "volume-seq":
        argv = argv + ["--out", str(tmp_path / "v.csv")]
    code = ("import sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'mpmath':\n"
            "            raise ImportError('mpmath is refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from skeinquant import cli\n"
            f"sys.exit(cli.main({list(argv)!r}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr


@pytest.mark.parametrize("re_tau", ("1e6", "1e20", "1e300"))
def test_geom_verify_far_real_tau_exits_2(capsys, re_tau):
    # Im(-1/tau) is about Re(tau)^-2 (0 in floats at 1e300): the S frame's series
    # window passes the byte budget, counted before -1/tau is formed; no traceback
    assert cli.main(["geom-verify", "--r", "3", "--tau", f"{re_tau}+1i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"r = 3, tau = {complex(float(re_tau), 1)} needs " in err, err


def test_geom_verify_far_real_tau_without_modular_fails_a_check(capsys):
    # the phases pi Re(tau) m^2/N lose their digits: a check fails (exit 1)
    assert cli.main(["geom-verify", "--r", "3", "--tau", "1e10+1i", "--skip-modular"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["pass"] is False
