"""Byte-identity of the CLI on a fixed-seed command set.

Each step runs one command in a shared working directory, with relative
paths so that stdout does not depend on where the directory lives. Its
digest is SHA-256 over the exit code, stdout and the bytes of every file
the step writes. The pinned digests are those of the code before the wire
formats (query encoding, proof header, truncated hash, reprogram-table
JSON, bound-report keys) were folded into one definition each, and for
the two no-pair steps those of the extractor before its single sorted
pass; a change here means some output byte changed.

One digest changed on purpose since then: ``simulate`` writes its
reprogram table grouped by commitment vector (the ``a`` hex list once,
then ``{i, c, z, y}`` points) instead of a list of full ``{key, y}``
records. The proof and stdout of that step are unchanged, and
``verify-table`` replays the new table with its digest unchanged.
``verify-table-list`` replays the list-format table the earlier
``simulate`` wrote for the same step (``data/simulate_table_list_format.json``)
and must give the same stdout and transcript, so the same digest.

Four more changed on purpose, those of the steps that write an oracle
transcript: ``prove-record``, ``verify-record``, ``verify-table`` and
``verify-table-list``. The transcript is grouped by commitment vector (a
``{"a": [hex, ...]}`` line each time the record order moves to another
vector, then ``{i, c, z, y}`` point lines) instead of repeating the ``a``
list on every line. Their proofs and stdout are unchanged, and so are the
digests of ``extract`` and ``extract-no-pair``, which read those files.
``extract-line-format`` reads the line-format transcript the earlier
``prove-record`` wrote (``data/prove_record_line_format.jsonl``) and must
give the same stdout as ``extract``, so the same digest.

Three more changed on purpose: ``simulate``, ``verify-table`` and
``verify-table-list``. The simulator takes each challenge by the prover's
rule, the first zero cell of its tilde row within T, where it used to
draw one uniformly among the zero cells; it no longer draws challenges
from the rng either, so the step's proof, table and stdout all differ,
and so does the transcript that replaying the table records. The
list-format table was re-rendered from the new ``simulate`` table by the
rule of ``list_table_text``, which gives the earlier fixture byte for byte
from the earlier table; ``test_list_table_is_simulate_table_as_list``
holds the fixture to that rule. Every other digest is unchanged.

The same three changed once more, with the fixture re-rendered by the same
rule: the simulator's tilde cells are read 256 // l to a SHA-256 block
instead of one cell per hash. The cells, and so the challenge law, are
distributed as before, but a given seed draws other cells, so the
step's proof, table and stdout differ, and so does the replayed
transcript. Every other digest is unchanged.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from fischlin.cli import main
from fischlin.oracle import ReprogramTable
from fischlin.sigma import GroupParams, protocol_for_challenge_space
from fischlin.transform import FischlinParams

GROUP = ["--p", "1019", "--q", "509", "--g", "4"]
KEYS = ["--instance", "inst.json"]
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
LIST_TABLE = os.path.join(DATA, "simulate_table_list_format.json")
LINE_TRANSCRIPT = os.path.join(DATA, "prove_record_line_format.jsonl")

# (step name, argv, files the step writes)
STEPS = [
    ("keygen", ["keygen", *GROUP, "--seed", "7", "--out-instance", "inst.json",
                "--out-witness", "wit.json"], ["inst.json", "wit.json"]),
    ("prove-c", ["prove", *KEYS, "--witness", "wit.json", "--k", "4", "--l", "3",
                 "--c", "2", "--seed", "3", "--out", "pc.bin"], ["pc.bin"]),
    ("prove-n", ["prove", *KEYS, "--witness", "wit.json", "--k", "3", "--l", "2",
                 "--n", "16", "--seed", "5", "--out", "pn.bin", "--json"], ["pn.bin"]),
    # N = 768 exceeds the toy group's 509 challenges: the two-copy protocol
    ("prove-record", ["prove", *KEYS, "--witness", "wit.json", "--k", "8", "--l", "6",
                      "--c", "4", "--seed", "2", "--out", "pr.bin",
                      "--record", "pr.jsonl"], ["pr.bin", "pr.jsonl"]),
    ("verify", ["verify", *KEYS, "--proof", "pc.bin", "--seed", "3"], []),
    ("extract", ["extract", *KEYS, "--proof", "pr.bin", "--transcript", "pr.jsonl"], []),
    # the same extraction from the transcript in its earlier line format
    ("extract-line-format", ["extract", *KEYS, "--proof", "pr.bin",
                             "--transcript", LINE_TRANSCRIPT], []),
    # the verifier's own queries: one entry per repetition, so no pair
    ("verify-record", ["verify", *KEYS, "--proof", "pr.bin", "--seed", "2",
                       "--record", "v.jsonl"], ["v.jsonl"]),
    ("extract-no-pair", ["extract", *KEYS, "--proof", "pr.bin", "--transcript", "v.jsonl"],
     []),
    ("simulate", ["simulate", *KEYS, "--k", "4", "--l", "3", "--n", "40", "--seed", "4",
                  "--out", "sim.bin", "--table-out", "table.json"],
     ["sim.bin", "table.json"]),
    ("verify-table", ["verify", *KEYS, "--proof", "sim.bin", "--table", "table.json",
                      "--seed", "4", "--record", "sim.jsonl"], ["sim.jsonl"]),
    # the same replay from the table in its earlier list format; it rewrites
    # sim.jsonl, which must come out byte-identical
    ("verify-table-list", ["verify", *KEYS, "--proof", "sim.bin", "--table", LIST_TABLE,
                           "--seed", "4", "--record", "sim.jsonl"], ["sim.jsonl"]),
    ("bounds-point", ["bounds", "--k", str(2 ** 30), "--l", "14", "--c", "1",
                      "--q", str(2 ** 20)], []),
    # outside the validity region: the chain is not applicable and warns
    ("bounds-point-vacuous", ["bounds", "--k", "4", "--l", "5", "--c", "1"], []),
    ("bounds-grid", ["bounds", "--grid", "k=2^2..2^40;l=5,14,16;c=0.5,1,4",
                     "--all-points", "--out", "grid.csv"], ["grid.csv"]),
    ("plan", ["plan", "--k", str(2 ** 30), "--c", "1", "--base-n", "509"], []),
    ("lab-comp-involution", ["lab", "comp-involution", "--l", "2"], []),
    ("lab-comp-zero-tail", ["lab", "comp-zero-tail", "--l", "5", "--k", "655",
                            "--gamma", "0.125"], []),
    ("lab-measure", ["lab", "measure", "--m", "2", "--n", "1", "--l", "1",
                     "--trials", "3", "--seed", "1"], []),
    ("lab-martingale", ["lab", "martingale", "--m", "2", "--l", "1", "--trials", "50",
                        "--seed", "1"], []),
    ("lab-chernoff", ["lab", "chernoff", "--num", "64", "--trials", "50",
                      "--seed", "1"], []),
    ("lab-query-smoke", ["lab", "query-smoke", "--l", "1", "--domain", "2"], []),
]

EXPECTED = {
    "keygen": "3d457fdb15e4b09d91d5cb0092e9500e8a8939887ffe6caf142097292629e8ce",
    "prove-c": "b0168f3b5fcc3c26e9164b5d2374daf73645ea848ff5f6ccb31deb513da8cb08",
    "prove-n": "1c613626a2458d774b3a0005a667d58fdae9dfcda4fc2eb3ff9f5cdbe69d1133",
    "prove-record": "90c22d4cebedbc34375fad73c5b5258969cb08126f3510f8e03b0ec4e37cfc25",
    "verify": "f67e83f458b50bafe7ebcc52c6e223b37d6933bbb7187e4840152950aea04ac5",
    "extract": "36acc8e8a3f1d879278dc888301bf758cdf86ec678e1c349fba2bc0968061b4c",
    "extract-line-format": "36acc8e8a3f1d879278dc888301bf758cdf86ec678e1c349fba2bc0968061b4c",
    "verify-record": "31f8298e2004e5001408f99b5356bdd5f53e1f7df6fe1cedd0f01315bcb635c1",
    "extract-no-pair": "4c7104c435b5ae045823f94cb1abab7c5b48b23aa564b247b9c0037b58980354",
    "simulate": "923ef92676b11d0d58db0b0a4c0484e82e6e21f2854d46eee5925bb33c9fffe3",
    "verify-table": "509ffdea89de398490bf056305267f81397670a660509c276d3442c6413726b8",
    "verify-table-list": "509ffdea89de398490bf056305267f81397670a660509c276d3442c6413726b8",
    "bounds-point": "8a7e39d33dbb2816aba111968183056a0b0f55210fece39f4b1db39ccea89140",
    "bounds-point-vacuous": "b62fedef14c3f2c74731a79dd69f4b0e920605aa6b0da1eafdb27a6da8d79a90",
    "bounds-grid": "c879ccb70ff387085fa93ba425ecaef32404be8ed71e623c011ad9c6995aa525",
    "plan": "f96bc1c54ae27722c25e3fe629b059ab32d968cad9c95db060b87342ed9ebd14",
    "lab-comp-involution": "e5e7adc34b2c483de77bc1fde4bbb92388a6f342cc4b76639472bf712fb5ec2e",
    "lab-comp-zero-tail": "ec3a9380e6c8a7d13e5e7669c2daefe5ba2e557cd79a66b766a583bd6de09294",
    "lab-measure": "4df4c9b206c7a028b87e43a81031f2dda74f7f4aafc7a6240ccdfbacf299b7e1",
    "lab-martingale": "5a1fbaab1551c421f8f66a7e71add4f18299a4e9d74b09bacd66d6ec57f9f875",
    "lab-chernoff": "98c459f341a249415472fbfd59007d746f7e9fd354b6f807dc88b320cc71a577",
    "lab-query-smoke": "967b40c5697eaf7cf6975c86e3fdaceb9a61dd2f30ef13fa420e790dfe1cbefe",
}


def run_steps(workdir) -> dict:
    """Run every step in ``workdir``; return step name -> hex digest."""
    out = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, written in STEPS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            h = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
            for path in written:
                with open(path, "rb") as fh:
                    h.update(b"\0" + path.encode() + b"\0" + fh.read())
            out[name] = h.hexdigest()
    finally:
        os.chdir(old)
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def digests(workdir):
    return run_steps(workdir)


def list_table_text(table_path) -> str:
    """The ``simulate`` step's grouped table in the earlier list format:
    ``json.dumps`` with indent 2 of ``{"key": prefix || tail hex, "y"}``
    records in programmed order."""
    params = FischlinParams(k=4, l=3, N=40, T=40)
    protocol = protocol_for_challenge_space(GroupParams(1019, 509, 4), params.N)
    with open(table_path) as fh:
        table = ReprogramTable.from_json(params, protocol, json.load(fh))
    return json.dumps([{"key": (prefix + tail).hex(), "y": y}
                       for (prefix, tail), y in table.overrides.items()], indent=2)


def test_steps_pinned():
    assert [name for name, _, _ in STEPS] == list(EXPECTED)


@pytest.mark.parametrize("step", list(EXPECTED))
def test_output_unchanged(digests, step):
    assert digests[step] == EXPECTED[step]


def test_list_table_replays_like_grouped_table(digests):
    assert digests["verify-table-list"] == digests["verify-table"]


def test_list_table_is_simulate_table_as_list(digests, workdir):
    with open(LIST_TABLE) as fh:
        assert fh.read() == list_table_text(workdir / "table.json")


def test_line_transcript_extracts_like_grouped(digests):
    assert digests["extract-line-format"] == digests["extract"]
