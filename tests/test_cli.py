import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import pd_text, state_sum_bracket, transfer_bracket
from skeinquant import cli, jones
from skeinquant.diagrams import BraidWord, braid_to_diagram

RUN = [sys.executable, "-m", "skeinquant.cli"]
SRC = str(Path(cli.__file__).resolve().parents[1])   # the child imports the same package


def run_cli(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, env=env)
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
    lines = pd_text(diagram).splitlines()[1:]   # the crossing lines, without framing
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
    assert cli.main(["knot-state", "--braid", "1 1 1 2", "--strands", "3", "--r", "8"]) == 0
    assert calls == {"catalog": 1, "rmatrix": 8}   # one per color n = 1..8


def test_rmatrix_budget_exits_2():
    proc = run_cli("jones", "--braid", "1 2 3 4 5 6", "--strands", "7", "--n", "6",
                   "--r", "20", check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "has 24017 states and needs 35206 MiB, over the 256 MiB sector budget" \
        in proc.stderr


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


def test_geom_verify_exit_status(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("geom-verify", "--r", "3", "--tau", "i",
                   "--skip-modular", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["pass"] is True
    assert all(v < 1e-6 for v in doc["result"]["residuals"].values())


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


def test_volume_seq_without_out_exits_2_before_computing(monkeypatch, capsys):
    def no_rows(*args, **kwargs):
        raise AssertionError("volume-seq computed its rows before checking --out")

    monkeypatch.setattr(cli, "volume_sequence", no_rows)
    assert cli.main(["volume-seq", "--knot", "figure-eight", "--r-min", "10",
                     "--r-max", "30", "--step", "10"]) == 2
    err = capsys.readouterr().err
    assert err == "error: volume-seq requires --out CSV path\n"


def test_volume_seq_uncertified_value_exits_2(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-300)
    out = tmp_path / "seq.csv"
    assert cli.main(["volume-seq", "--knot", "figure-eight", "--r-min", "100",
                     "--r-max", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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


def test_config_file_in_process_leaves_the_parser_alone(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 6, "n": 3}))   # tqft has no --n: ignored
    assert cli.main(["tqft", "--config", str(cfg)]) == 0
    from_config = json.loads(capsys.readouterr().out)
    assert cli.main(["tqft", "--r", "6"]) == 0
    assert json.loads(capsys.readouterr().out) == from_config
    with pytest.raises(SystemExit) as exc:   # the first call's --config is gone
        cli.main(["tqft"])
    assert exc.value.code == 2 and "--r" in capsys.readouterr().err
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
    # "--tau -1+2i" would read as an unknown flag; the config value is not one
    assert run("geom-verify", {"r": 3, "tau": "-1+2i", "skip_modular": True}) \
        == run("geom-verify", {}, "--r", "3", "--tau=-1+2i", "--skip-modular")


def test_error_exit_codes():
    proc = run_cli("jones", "--n", "2", check=False)
    assert proc.returncode == 2
    assert "provide --knot or --braid" in proc.stderr
    for argv in (["jones", "--knot", "trefoil", "--n", "2", "--config"],
                 ["jones", "--braid", "1", "--strands", "3", "--n", "2"],
                 ["knot-state", "--knot", "trefoil", "--r", "2"],
                 ["geom-verify", "--r", "3", "--tau", "1-i"],
                 ["geom-verify", "--r", "3", "--tau", "x"],
                 ["tqft", "--r", "4", "--word", "Q"],
                 ["jones", "--knot", "trefoil", "--n", "0", "--r", "5"]):
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_geom_verify_overflow_exits_2_with_one_line():
    # b N = 121 at r = 60, tau = i: the q-part products overflow on the
    # first grid, which raises instead of doubling on NaN with warnings
    proc = run_cli("geom-verify", "--r", "60", "--tau", "i", check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "r = 60" in proc.stderr and "n = 16" in proc.stderr, proc.stderr


@pytest.mark.parametrize("tau, message", (("nan+1i", "tau must be finite"),
                                          ("1e400i", "tau must be finite"),
                                          ("0.3+50i", "translation at r = 3")))
def test_geom_verify_bad_tau_exits_2_with_one_line(tau, message):
    # a finite tau past the float range overflows in the first translation
    proc = run_cli("geom-verify", "--r", "3", "--tau", tau, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message in proc.stderr, proc.stderr


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
    # color 2r+1 zeroes Morton's denominator: the value cannot be certified
    proc = run_cli("jones", "--knot", "trefoil", "--n", "7", "--r", "3", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


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


def test_geom_verify_does_not_import_numpy_random():
    # the report draws its test vectors from random.Random; numpy.random
    # costs about 6 MiB and 13 ms of import per process
    rc, _, loaded = run_in_child(["geom-verify", "--r", "3", "--tau", "i"])
    assert rc == 0 and not [m for m in loaded if m.startswith("numpy.random")]


@pytest.mark.parametrize("argv, unrun", [
    (["volume-seq", "--knot", "trefoil", "--r-min", "5", "--r-max", "40"], ("numpy", "mpmath")),
    (["bracket", "--braid", "1 -2 1 -2", "--strands", "3"], ("numpy", "mpmath")),
    (["volume-seq", "--knot", "figure-eight", "--r-min", "5", "--r-max", "40"], ("numpy",)),
    (["geom-verify", "--r", "3", "--tau", "i"], ("mpmath",)),
])
def test_numpy_and_mpmath_run_only_where_used(tmp_path, argv, unrun):
    if argv[0] == "volume-seq":
        argv = argv + ["--out", str(tmp_path / "v.csv")]
    rc, imported, loaded = run_in_child(argv)
    assert not ran("numpy", imported) and not ran("mpmath", imported)
    assert rc == 0
    assert not [lib for lib in unrun if ran(lib, loaded)]


@pytest.mark.parametrize("re_tau", ("1e6", "1e20", "1e300"))
def test_geom_verify_far_real_tau_exits_2(capsys, re_tau):
    # the curve operator leaves the alternating subspace: no value, no traceback
    assert cli.main(["geom-verify", "--r", "3", "--tau", f"{re_tau}+1i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
