"""The CLI's JSON writer gives the bytes of json.dumps(doc, sort_keys=True, indent=2)."""

import json
import math
import os
import random
import subprocess

import numpy as np
import pytest

from skeinquant import cli
from test_cli import RUN, SRC

CHARS = "az09 \"\\/\x00\x01\x1f\x7f\t\né 中\U0001f600"
FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-310, 1.7976931348623157e308,
          0.1, -2.5e-17, 1e16, 123456789.0)


def as_pairs(m):
    """A complex matrix as json gets it: rows of [re, im] pairs."""
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def plain(doc):
    """doc with every numpy matrix in it as its pair lists."""
    if isinstance(doc, dict):
        return {k: plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(v) for v in doc]
    return as_pairs(doc) if isinstance(doc, np.ndarray) else doc


def random_text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_float(rng):
    if rng.random() < 0.5:
        return rng.choice(FLOATS)
    return rng.uniform(-1e3, 1e3) * 10.0 ** rng.randrange(-20, 20)


def random_matrix(rng):
    rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
    m = np.array([[complex(random_float(rng), random_float(rng)) if rng.random() < 0.2
                   else complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(cols)]
                  for _ in range(rows)])
    if rng.random() < 0.5:
        m[rng.randrange(rows), rng.randrange(cols)] = rng.choice((math.nan, math.inf, -math.inf))
    return m.T if rng.random() < 0.3 else m   # a transpose is not C-ordered


def random_document(rng, depth=0):
    kind = rng.randrange(10 if depth < 4 else 5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice((0, -1, 7, 2 ** 64, -(3 ** 90), rng.randrange(-10 ** 6, 10 ** 6)))
    if kind == 2:
        return random_float(rng)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return random_matrix(rng)
    size = rng.randrange(5)
    if kind == 5:
        return {random_text(rng): random_document(rng, depth + 1) for _ in range(size)}
    if kind == 6:
        return [random_document(rng, depth + 1) for _ in range(size)]
    if kind == 7:
        return tuple(random_document(rng, depth + 1) for _ in range(size))
    if kind == 8:   # a regular float array
        cols = rng.randrange(4)
        return [[random_float(rng) for _ in range(cols)] for _ in range(size)]
    return [[random_float(rng) for _ in range(rng.randrange(4))] for _ in range(size)]


@pytest.mark.parametrize("seed", range(6))
def test_random_documents_match_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(500):
        doc = {random_text(rng): random_document(rng) for _ in range(rng.randrange(4))}
        doc = doc if rng.random() < 0.9 else random_document(rng)
        want = json.dumps(plain(doc), sort_keys=True, indent=2)
        assert "".join(cli._json_chunks(doc, "")) == want


@pytest.mark.parametrize("argv", [
    ["jones", "--knot", "trefoil", "--n", "4", "--exact"],
    ["jones", "--braid", "1 -2 1 -2", "--strands", "3", "--n", "4", "--r", "8",
     "--backend", "rmatrix"],
    ["jones", "--knot", "figure-eight", "--n", "3", "--r", "7"],
    ["bracket", "--braid", "1 -2 1 -2", "--strands", "3"],
    ["bracket", "--pd", "{pd}"],
    ["tqft", "--r", "7"],
    ["tqft", "--r", "6", "--word", "S T^-1 S"],
    ["rt", "--surgery", "figure-eight", "--framing", "1", "--r", "10"],
    ["geom-verify", "--r", "4", "--tau", "0.3+1.7i"],
    ["knot-state", "--knot", "figure-eight", "--r", "9"],
    ["volume-seq", "--knot", "trefoil", "--r-min", "5", "--r-max", "9", "--out", "{csv}"],
])
def test_every_command_writes_the_bytes_of_json_dumps(monkeypatch, capsys, tmp_path, argv):
    pd = tmp_path / "trefoil.pd"
    pd.write_text("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n")
    argv = [a.format(pd=pd, csv=tmp_path / "v.csv") for a in argv]
    docs = []
    write = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda doc, path=None: (docs.append(doc),
                                                                    write(doc, path)))
    assert cli.main(argv) == 0
    assert len(docs) == 1
    if argv[0] == "volume-seq":
        got = (tmp_path / "v.csv.manifest.json").read_text()
    else:
        got = capsys.readouterr().out
    assert got == json.dumps(plain(docs[0]), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["tqft", "--r", "5", "--word", "S T S"],
    ["geom-verify", "--r", "3", "--tau", "i"],
    ["knot-state", "--knot", "trefoil", "--r", "6"],
])
def test_out_file_and_stdout_give_the_same_bytes(capsys, tmp_path, argv):
    out = tmp_path / "doc.json"
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == "" and out.read_text() == printed


@pytest.mark.parametrize("r, lines", ((100, 1), (5, 0)))
def test_a_closed_stdout_ends_the_run_quietly(r, lines):
    # `tqft --r 100 | head -1`, and a reader gone before a short document's one write:
    # the run ends as one that wrote everything, with exit 0, nothing on stderr and
    # no "Exception ignored" at the interpreter's exit
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)   # stdout buffered, as in a shell pipe
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(RUN + ["tqft", "--r", str(r)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    for _ in range(lines):
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0 and err == b"", err
