import json
import subprocess
import sys

RUN = [sys.executable, "-m", "skeinquant.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True)
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
