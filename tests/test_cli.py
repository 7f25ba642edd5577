import hashlib
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fischlin import cli
from fischlin.cli import _parse_grid, main
from fischlin.sigma import GroupParams, protocol_for_challenge_space
from fischlin.transform import FischlinParams, Proof, serialize_proof


# A full query key for k=2, l=2 (commitments 1 and 2, i=1, c=0, z=0), and
# reprogram tables in either format that program that point twice, to 0
# and to 1.
KEY = "46495331" "00000002" "00000002" "000101" "000102" "00000001" "00000000" "0000"
LIST_REPEAT = json.dumps([{"key": KEY, "y": 0}, {"key": KEY, "y": 1}])
GROUPED_REPEAT = json.dumps({"vectors": [{"a": ["01", "02"], "points": [
    {"i": 1, "c": 0, "z": "", "y": 0}, {"i": 1, "c": 0, "z": "", "y": 1}]}]})
# KEY with the repetition index 3, out of range at k = 2.
KEY_I3 = KEY[:-20] + "00000003" "00000000" "0000"

# A k=2, l=2, N=600 proof (the two-copy protocol on the toy group) whose
# first commitment packs three elements.
THREE_PART_PROOF = serialize_proof(
    FischlinParams(k=2, l=2, N=600, T=600),
    protocol_for_challenge_space(GroupParams(1019, 509, 4), 600),
    Proof(((4, 16, 64), (4, 16)), (0, 0), ((1, 2), (3, 4))))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def keypair(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    wit = tmp_path / "witness.json"
    code, out, _ = run(capsys, "keygen", "--p", "1019", "--q", "509", "--g", "4",
                       "--out-instance", str(inst), "--out-witness", str(wit),
                       "--seed", "7")
    assert code == 0
    return inst, wit


class TestKeygen:
    def test_files_satisfy_relation(self, keypair):
        inst, wit = keypair
        obj = json.loads(inst.read_text())
        w = int(json.loads(wit.read_text())["w"])
        assert pow(int(obj["g"]), w, int(obj["p"])) == int(obj["x"])
        assert w >= 1

    def test_deterministic(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            inst = tmp_path / f"i{tag}.json"
            wit = tmp_path / f"w{tag}.json"
            code, out, _ = run(capsys, "keygen", "--p", "1019", "--q", "509",
                               "--g", "4", "--out-instance", str(inst),
                               "--out-witness", str(wit), "--seed", "3")
            assert code == 0
            outs.append((inst.read_bytes(), wit.read_bytes(),
                         json.loads(out)["x"]))
        assert outs[0] == outs[1]

    def test_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FISCHLIN_SEED", "11")
        inst1, wit1 = tmp_path / "i1.json", tmp_path / "w1.json"
        run(capsys, "keygen", "--p", "1019", "--q", "509", "--g", "4",
            "--out-instance", str(inst1), "--out-witness", str(wit1))
        inst2, wit2 = tmp_path / "i2.json", tmp_path / "w2.json"
        run(capsys, "keygen", "--p", "1019", "--q", "509", "--g", "4",
            "--out-instance", str(inst2), "--out-witness", str(wit2),
            "--seed", "11")
        assert inst1.read_bytes() == inst2.read_bytes()

    def test_group_from_config(self, tmp_path, capsys, keypair):
        # a config's group entry gives the same statement as --p/--q/--g
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"group": {"p": "1019", "q": "509", "g": "4"}}))
        inst = tmp_path / "cfg-instance.json"
        code, out, _ = run(capsys, "keygen", "--config", str(cfg), "--out-instance", str(inst),
                           "--out-witness", str(tmp_path / "cfg-witness.json"), "--seed", "7")
        assert code == 0
        assert json.loads(out)["x"] == json.loads(keypair[0].read_text())["x"]
        assert inst.read_bytes() == keypair[0].read_bytes()

    def test_no_group_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "keygen", "--out-instance", str(tmp_path / "i.json"),
                             "--out-witness", str(tmp_path / "w.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: no group")

    def test_bad_group_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "keygen", "--p", "1019", "--q", "510",
                           "--g", "4", "--out-instance",
                           str(tmp_path / "i.json"), "--out-witness",
                           str(tmp_path / "w.json"))
        assert code == 2
        assert "error" in err


class TestProveVerifyPipeline:
    def test_roundtrip_and_tamper(self, tmp_path, capsys, keypair):
        inst, wit = keypair
        proof = tmp_path / "proof.bin"
        record = tmp_path / "transcript.jsonl"
        code, out, _ = run(capsys, "prove", "--instance", str(inst),
                           "--witness", str(wit), "--k", "2", "--l", "2",
                           "--n", "16", "--out", str(proof),
                           "--record", str(record), "--seed", "5")
        assert code == 0
        assert json.loads(out)["queries"] >= 2

        code, out, _ = run(capsys, "verify", "--instance", str(inst),
                           "--proof", str(proof), "--seed", "5")
        assert code == 0 and json.loads(out)["valid"]

        blob = bytearray(proof.read_bytes())
        blob[-1] ^= 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        code, out, _ = run(capsys, "verify", "--instance", str(inst),
                           "--proof", str(bad), "--seed", "5")
        assert code == 1 and not json.loads(out)["valid"]

    def test_prove_deterministic(self, tmp_path, capsys, keypair):
        inst, wit = keypair
        blobs = []
        for tag in ("a", "b"):
            proof = tmp_path / f"p{tag}.bin"
            rec = tmp_path / f"t{tag}.jsonl"
            run(capsys, "prove", "--instance", str(inst), "--witness", str(wit),
                "--k", "2", "--l", "2", "--n", "16", "--out", str(proof),
                "--record", str(rec), "--seed", "9")
            blobs.append((proof.read_bytes(), rec.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_extract_recovers_witness(self, tmp_path, capsys, keypair):
        inst, wit = keypair
        proof = tmp_path / "proof.bin"
        record = tmp_path / "transcript.jsonl"
        # l=2 makes second attempts likely; retry seeds until extraction
        # has a pair to work with, deterministically
        for seed in range(20):
            run(capsys, "prove", "--instance", str(inst), "--witness",
                str(wit), "--k", "4", "--l", "2", "--n", "32",
                "--out", str(proof), "--record", str(record),
                "--seed", str(seed))
            code, out, _ = run(capsys, "extract", "--instance", str(inst),
                               "--proof", str(proof),
                               "--transcript", str(record))
            if code == 0:
                got = json.loads(out)
                assert got["status"] == "Extracted"
                assert got["w"] == json.loads(wit.read_text())["w"]
                return
        pytest.fail("no extraction in 20 seeds")

    def test_pipeline_with_repeated_protocol(self, tmp_path, capsys, keypair):
        # N = 768 exceeds the toy group's 509 challenges, so the pipeline
        # runs the two-copy protocol; transcript entries then carry tuple
        # commitments and responses through the JSONL round trip
        inst, wit = keypair
        proof = tmp_path / "proof.bin"
        record = tmp_path / "transcript.jsonl"
        code, _, _ = run(capsys, "prove", "--instance", str(inst),
                         "--witness", str(wit), "--k", "8", "--l", "6",
                         "--c", "4", "--out", str(proof),
                         "--record", str(record), "--seed", "2")
        assert code == 0
        code, out, _ = run(capsys, "verify", "--instance", str(inst),
                           "--proof", str(proof), "--seed", "2")
        assert code == 0
        code, out, _ = run(capsys, "extract", "--instance", str(inst),
                           "--proof", str(proof), "--transcript", str(record))
        assert code == 0
        assert json.loads(out)["w"] == json.loads(wit.read_text())["w"]

    def test_leading_zero_commitment_verifies_as_before(self, tmp_path, capsys, keypair):
        # a 00 byte before the first commitment's first element decodes to
        # the same proof: verify encodes the prefix from the decoded
        # commitments, so it accepts under the prover's seed and rejects
        # under another, as for the plain blob
        inst, wit = keypair
        proof = tmp_path / "proof.bin"
        code, _, _ = run(capsys, "prove", "--instance", str(inst),
                         "--witness", str(wit), "--k", "8", "--l", "6",
                         "--c", "4", "--out", str(proof), "--seed", "2")
        assert code == 0
        blob = proof.read_bytes()
        outer, inner = (int.from_bytes(blob[at:at + 2], "big") for at in (16, 18))
        padded = tmp_path / "padded.bin"
        padded.write_bytes(blob[:16] + (outer + 1).to_bytes(2, "big")
                           + (inner + 1).to_bytes(2, "big") + b"\0" + blob[20:])
        for seed, code in (("2", 0), ("3", 1)):
            got = run(capsys, "verify", "--instance", str(inst),
                      "--proof", str(padded), "--seed", seed)
            assert got == (code, '{\n  "valid": %s\n}\n' % ("false", "true")[code == 0], "")

    @pytest.mark.parametrize("shift", [0, 1], ids=["same-y", "other-y"])
    def test_repeated_transcript_line(self, tmp_path, capsys, keypair, shift):
        # a transcript lists each query once: a repeated line with the same
        # y is dropped, so extraction finds what it finds without it, and
        # one with another y is malformed, named by its line number
        inst, wit = keypair
        proof, record = tmp_path / "proof.bin", tmp_path / "transcript.jsonl"
        code, _, _ = run(capsys, "prove", "--instance", str(inst),
                         "--witness", str(wit), "--k", "8", "--l", "6",
                         "--c", "4", "--out", str(proof),
                         "--record", str(record), "--seed", "2")
        assert code == 0
        argv = ["extract", "--instance", str(inst), "--proof", str(proof),
                "--transcript", str(record)]
        want = run(capsys, *argv)
        assert want[0] == 0 and json.loads(want[1])["status"] == "Extracted"
        lines = record.read_text().splitlines()
        rec = json.loads(lines[1])  # the first point line, after the vector line
        rec["y"] = (rec["y"] + shift) % 64
        record.write_text("\n".join([*lines, json.dumps(rec)]) + "\n")
        got = run(capsys, *argv)
        if shift:
            assert got[0] == 2 and got[1] == ""
            assert got[2].startswith(f"error: transcript line {len(lines) + 1}: ")
        else:
            assert got == want

    def test_config_file_params(self, tmp_path, capsys, keypair):
        inst, wit = keypair
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"params": {"k": 2, "l": 2, "n": 16},
                                   "seed": 5}))
        proof = tmp_path / "proof.bin"
        code, _, _ = run(capsys, "prove", "--config", str(cfg),
                         "--instance", str(inst), "--witness", str(wit),
                         "--out", str(proof))
        assert code == 0
        code, _, _ = run(capsys, "verify", "--config", str(cfg),
                         "--instance", str(inst), "--proof", str(proof))
        assert code == 0

    # Each case points one input file of verify (--proof, --table,
    # --instance), extract (--transcript) or prove (--witness, --config) at
    # a missing (None) or malformed file; a dict replaces fields of a
    # recorded transcript point written in the line format, and bytes are
    # written as they are. The bad file is passed last, so it overrides the
    # good one of the same flag.
    @pytest.mark.parametrize("flag,content", [
        ("--proof", None),
        ("--proof", THREE_PART_PROOF),
        ("--transcript", "null"),
        ("--transcript", "[1]"),
        ("--transcript", {"a": 5}),
        ("--transcript", {"i": "x"}),
        ("--transcript", {"c": 1.5}),
        ("--transcript", {"y": 4}),
        ("--table", "null"),
        ("--table", "[5]"),
        ("--table", '[{"key": "00", "y": 4}]'),
        ("--table", '[{"key": "00", "y": "0"}]'),
        ("--table", LIST_REPEAT),
        ("--table", GROUPED_REPEAT),
        ("--table", '[{"key": "4649533100", "y": 0}]'),
        ("--table", json.dumps([{"key": KEY_I3, "y": 0}])),
        ("--table", '{"vectors": [{"a": ["01"], "points": []}]}'),
        ("--table", '{"vectors": {}}'),
        ("--table", '{"vectors": [{"a": ["01", "02"], "points": 5}]}'),
        ("--instance", "null"),
        ("--instance", '{"p": "1019", "q": "509", "g": "4", "x": null}'),
        ("--instance", '{"p": [1019], "q": "509", "g": "4", "x": "80"}'),
        ("--witness", '{"w": null}'),
        ("--witness", "[7]"),
        ("--config", "[1]"),
        ("--config", '{"params": [1]}'),
        ("--config", '{"seed": null}'),
        ("--config", '{"oracle_seed": 5}'),
        *((flag, "[" * 100000) for flag in
          ("--table", "--transcript", "--instance", "--witness", "--config")),
    ], ids=["proof-missing", "proof-three-part-commitment", "transcript-null", "transcript-list", "transcript-a-int",
            "transcript-i-str", "transcript-c-float", "transcript-y-range",
            "table-null", "table-int-record", "table-y-range", "table-y-str",
            "table-list-repeat", "table-grouped-repeat", "table-key-unsplittable",
            "table-list-i-range",
            "table-a-length", "table-vectors-object", "table-points-int",
            "instance-null", "instance-x-null", "instance-p-list",
            "witness-w-null", "witness-list", "config-list", "config-params-list",
            "config-seed-null", "config-oracle-seed-int", "table-deep",
            "transcript-deep", "instance-deep", "witness-deep", "config-deep"])
    def test_bad_input_file_exits_2(self, tmp_path, capsys, keypair, flag, content):
        inst, wit = keypair
        proof, record = tmp_path / "proof.bin", tmp_path / "transcript.jsonl"
        code, _, _ = run(capsys, "prove", "--instance", str(inst),
                         "--witness", str(wit), "--k", "2", "--l", "2",
                         "--n", "16", "--out", str(proof),
                         "--record", str(record), "--seed", "5")
        assert code == 0
        bad = tmp_path / "bad"
        if isinstance(content, dict):
            # the vector line and the first point line, as one line-format line
            vector, point = record.read_text().splitlines()[:2]
            content = json.dumps({**json.loads(vector), **json.loads(point), **content})
        if isinstance(content, bytes):
            bad.write_bytes(content)
        elif content is not None:
            bad.write_text(content + "\n")
        argv = {
            "--transcript": ["extract", "--proof", str(proof), "--instance", str(inst)],
            "--witness": ["prove", "--instance", str(inst), "--witness", str(wit),
                          "--k", "2", "--l", "2", "--n", "16",
                          "--out", str(tmp_path / "again.bin")],
            "--config": ["prove", "--instance", str(inst), "--witness", str(wit),
                         "--k", "2", "--l", "2", "--n", "16",
                         "--out", str(tmp_path / "again.bin")],
        }.get(flag, ["verify", "--proof", str(proof), "--instance", str(inst)])
        code, _, err = run(capsys, *argv, flag, str(bad))
        assert code == 2 and "error" in err

    # A field that must hold an integer holds a number that is not finite
    # (1e999 overflows a float; Infinity and NaN are not JSON numbers) or
    # not an integer (a fraction, a bool, an integral float). The field
    # sits in the config, instance or witness file of a prove run; "@"
    # marks where the number's JSON text goes.
    @pytest.mark.parametrize("flag,fields,number", [
        ("--config", {"seed": "@"}, "1e999"),
        ("--config", {"seed": "@"}, "true"),
        ("--config", {"params": {"k": "@", "l": 2, "n": 16}}, "1e999"),
        ("--config", {"params": {"k": "@", "l": 2, "n": 16}}, "2.0"),
        ("--config", {"params": {"k": 2, "l": 2, "n": "@"}}, "1e999"),
        ("--config", {"params": {"k": 2, "l": 2, "n": 16, "t": "@"}}, "true"),
        ("--config", {"params": {"lambda": "@", "l": 2}}, "1e999"),
        ("--config", {"params": {"lambda": "@", "l": 2}}, "16.5"),
        ("--config", {"params": {"k": 2, "l": 2, "c": "@"}}, "NaN"),
        ("--instance", {"x": "@"}, "1e999"),
        ("--instance", {"p": "@"}, "1e999"),
        ("--instance", {"p": "@"}, "1019.0"),
        ("--instance", {"x": "@"}, "-Infinity"),
        ("--witness", {"w": "@"}, "1e999"),
        ("--witness", {"w": "@"}, "3.7"),
        ("--witness", {"w": "@"}, "true"),
    ], ids=["config-seed-inf", "config-seed-bool", "config-k-inf", "config-k-float",
            "config-n-inf", "config-t-bool", "config-lambda-inf", "config-lambda-float",
            "config-c-nan", "instance-x-inf", "instance-p-inf", "instance-p-float",
            "instance-x-minus-infinity", "witness-w-inf", "witness-w-fraction",
            "witness-w-bool"])
    def test_non_integer_number_exits_2(self, tmp_path, capsys, keypair, flag, fields,
                                        number):
        inst, wit = keypair
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"params": {"k": 2, "l": 2, "n": 16}}))
        files = {"--instance": inst, "--witness": wit, "--config": cfg}
        bad = tmp_path / "bad.json"
        good = json.loads(files[flag].read_text())
        bad.write_text(json.dumps({**good, **fields}).replace('"@"', number))
        files[flag] = bad
        code, out, err = run(capsys, "prove", *(a for f, path in files.items()
                                                 for a in (f, str(path))),
                             "--out", str(tmp_path / "proof.bin"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_three_part_response_in_transcript_exits_2(self, tmp_path, capsys, keypair):
        # N = 600: the two-copy protocol, whose responses pack two elements
        inst, wit = keypair
        proof, record = tmp_path / "proof.bin", tmp_path / "transcript.jsonl"
        code, _, _ = run(capsys, "prove", "--instance", str(inst),
                         "--witness", str(wit), "--k", "2", "--l", "2",
                         "--n", "600", "--out", str(proof),
                         "--record", str(record), "--seed", "5")
        assert code == 0
        vector, point, *rest = record.read_text().splitlines()
        rec = json.loads(point)
        rec["z"] += "000140"  # a third packed element, 0x40
        record.write_text("\n".join([vector, json.dumps(rec), *rest]) + "\n")
        code, out, err = run(capsys, "extract", "--proof", str(proof),
                             "--instance", str(inst), "--transcript", str(record))
        assert code == 2 and out == ""
        assert err.startswith("error: transcript line 2:")

    # A rate that makes N infinite, NaN or too big for the proof's u32
    # field, passed to prove or simulate by flag or by config.
    @pytest.mark.parametrize("command,argv", [
        ("prove", ["--c", "inf"]),
        ("prove", ["--c", "1e400"]),
        ("prove", ["--c", "1e10"]),
        ("prove", ["--n", str(1 << 32)]),
        ("prove", {"c": "inf"}),
        ("simulate", ["--c", "inf"]),
        ("simulate", ["--c", "1e400"]),
        ("simulate", {"c": "inf"}),
    ], ids=["prove-c-inf", "prove-c-1e400", "prove-n-past-u32", "prove-n-2^32",
            "prove-config-c-inf", "simulate-c-inf", "simulate-c-1e400",
            "simulate-config-c-inf"])
    def test_rate_out_of_range_exits_2(self, tmp_path, capsys, keypair, command, argv):
        inst, wit = keypair
        if isinstance(argv, dict):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"params": argv}))
            argv = ["--config", str(cfg)]
        files = ["--witness", str(wit)] if command == "prove" else \
            ["--table-out", str(tmp_path / "table.json")]
        code, out, err = run(capsys, command, "--instance", str(inst), *files,
                             "--k", "8", "--l", "6", *argv,
                             "--out", str(tmp_path / "proof.bin"))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    # float(True) is 1.0: a bool rate would pass for c = 1
    @pytest.mark.parametrize("command", ["prove", "simulate"])
    def test_bool_rate_in_config_exits_2(self, tmp_path, capsys, keypair, command):
        inst, wit = keypair
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"params": {"k": 2, "l": 2, "c": True}}))
        files = ["--witness", str(wit)] if command == "prove" else \
            ["--table-out", str(tmp_path / "table.json")]
        code, out, err = run(capsys, command, "--instance", str(inst), *files,
                             "--config", str(cfg), "--out", str(tmp_path / "proof.bin"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("c", [4, 4.0, "4", "4.0"])
    def test_config_rate_is_a_float(self, c):
        args = cli.build_parser(["prove"]).parse_args(
            ["prove", "--instance", "i", "--witness", "w", "--out", "p"])
        params = cli._params_from(args, {"params": {"k": 8, "l": 6, "c": c}})
        assert params == FischlinParams.explicit(8, 6, 4.0)
        assert type(params.c_rate) is float

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prove"])  # missing required flags
        assert exc.value.code == 2

    def test_lambda_params(self, tmp_path, capsys):
        # --lambda 16 --l 2 is FischlinParams.from_security(16, 2): k = 8,
        # N = 9; prove seed 0 proves for the keygen seed 1 statement
        inst, wit = tmp_path / "instance.json", tmp_path / "witness.json"
        run(capsys, "keygen", "--p", "1019", "--q", "509", "--g", "4", "--seed", "1",
            "--out-instance", str(inst), "--out-witness", str(wit))
        code, out, _ = run(capsys, "prove", "--instance", str(inst), "--witness", str(wit),
                           "--lambda", "16", "--l", "2", "--seed", "0",
                           "--out", str(tmp_path / "proof.bin"))
        assert code == 0
        want = FischlinParams.from_security(16, 2)
        assert (json.loads(out)["k"], json.loads(out)["N"]) == (want.k, want.N) == (8, 9)

    def test_lambda_needs_l(self, tmp_path, capsys, keypair):
        inst, wit = keypair
        code, out, err = run(capsys, "prove", "--instance", str(inst), "--witness", str(wit),
                             "--lambda", "16", "--out", str(tmp_path / "proof.bin"))
        assert code == 2 and out == ""
        assert err == "error: --lambda needs --l\n"

    # The prover with one attempt per repetition at l = 8, or the simulator
    # with two challenges at l = 16, finishes only if each of 4 rows finds
    # a zero, with probability 2^-32 or less on any seed, however the
    # oracle or the simulator's tilde cells are derived.
    @pytest.mark.parametrize("command,argv,what", [
        ("prove", ["--k", "4", "--l", "8", "--n", "16", "--t", "1"], "prover"),
        ("simulate", ["--k", "4", "--l", "16", "--n", "2"], "simulator"),
    ])
    def test_abort_exits_1(self, tmp_path, capsys, keypair, command, argv, what):
        inst, wit = keypair
        proof = tmp_path / "proof.bin"
        files = ["--witness", str(wit)] if command == "prove" else \
            ["--table-out", str(tmp_path / "table.json")]
        for seed in range(5):
            code, out, err = run(capsys, command, "--instance", str(inst), *files, *argv,
                                 "--seed", str(seed), "--out", str(proof))
            assert code == 1 and out == ""
            assert err.startswith(f"{what} aborted: ")
            assert not proof.exists()

    def test_simulate_challenges_below_t(self, tmp_path, capsys, keypair):
        # the simulator scans T cells, as the prover grinds T attempts: no
        # challenge reaches T = 3 of the N = 40, and each proof verifies
        inst, _ = keypair
        proof, table = tmp_path / "sim.bin", tmp_path / "table.json"
        simulated = 0
        for seed in range(10):
            code, out, _ = run(capsys, "simulate", "--instance", str(inst), "--k", "4",
                               "--l", "1", "--n", "40", "--t", "3", "--seed", str(seed),
                               "--out", str(proof), "--table-out", str(table))
            if code == 1:  # some row's first 3 cells hold no zero
                continue
            assert code == 0 and all(c < 3 for c in json.loads(out)["c"])
            assert run(capsys, "verify", "--instance", str(inst), "--proof", str(proof),
                       "--table", str(table), "--seed", str(seed))[0] == 0
            simulated += 1
        assert simulated >= 3


def line_format(text: str) -> str:
    """A grouped transcript in the earlier line format: each point line
    with its vector's ``a`` put first."""
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        if "a" in rec:
            a = rec["a"]
        else:
            out.append(json.dumps({"a": a, **rec}) + "\n")
    return "".join(out)


class TestProveMemory:
    def test_prove_keeps_nothing_per_query(self, tmp_path, capsys, keypair):
        # without --record the prover's oracle keeps no transcript: the
        # traced peak of a k=256, l=8, c=2 prove (61,764 queries) stays
        # under 1 MB, where a recording oracle's peak is about 7.4 MB
        inst, wit = keypair
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "prove", "--instance", str(inst), "--witness", str(wit),
                               "--k", "256", "--l", "8", "--c", "2", "--seed", "11",
                               "--out", str(tmp_path / "proof.bin"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["queries"] == 61764
        assert peak < 1_000_000

    def test_record_keeps_the_peak_small(self, tmp_path, capsys, keypair):
        # the grouped transcript of a k=256, l=8, c=2 prove is about 3.3 MB
        # and its traced peak about 17 MB; written in the line format, where
        # every line repeats the 256 commitments, it was 315 MB with a
        # traced peak of 641 MB
        inst, wit = keypair
        record = tmp_path / "t.jsonl"
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "prove", "--instance", str(inst), "--witness", str(wit),
                             "--k", "256", "--l", "8", "--c", "2", "--seed", "11",
                             "--out", str(tmp_path / "proof.bin"), "--record", str(record))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and record.stat().st_size < 4_000_000
        assert peak < 64_000_000

    def test_record_adds_only_the_transcript(self, tmp_path, capsys, keypair):
        # --record changes neither stdout nor the proof bytes, and writes
        # the grouped transcript; spread back into the line format, it is
        # the transcript that the recording oracle wrote before it had a
        # hashing base class (pinned digests).
        inst, wit = keypair
        proof, record = tmp_path / "proof.bin", tmp_path / "t.jsonl"
        argv = ["prove", "--instance", str(inst), "--witness", str(wit), "--k", "16",
                "--l", "8", "--c", "2", "--seed", "11", "--out", str(proof)]
        runs = []
        for extra in ([], ["--record", str(record)]):
            code, out, _ = run(capsys, *argv, *extra)
            runs.append((code, out, hashlib.sha256(proof.read_bytes()).hexdigest()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])["queries"] == 6496
        assert runs[0][2] == "5bab4e020a626ed115ee535241a46bda61733aa16d9f54457b8114da01cad75e"
        assert hashlib.sha256(record.read_bytes()).hexdigest() == \
            "4a5b32c70358f57c84ad482994e9c62b62e3a1d6fe4adba6c024c1aa2c462065"
        assert hashlib.sha256(line_format(record.read_text()).encode()).hexdigest() == \
            "2f2e3d1dc13c72d955837e54249358b8d33232140793d14d7d2ce045724b77c5"


class TestSimulate:
    def test_simulated_proof_replays_with_table(self, tmp_path, capsys, keypair):
        inst, _ = keypair
        proof = tmp_path / "sim.bin"
        table = tmp_path / "table.json"
        code, out, _ = run(capsys, "simulate", "--instance", str(inst),
                           "--k", "2", "--l", "2", "--n", "16",
                           "--out", str(proof), "--table-out", str(table),
                           "--seed", "4")
        assert code == 0
        assert json.loads(out)["programmed"] >= 2

        # replaying through the programmed points accepts
        code, out, _ = run(capsys, "verify", "--instance", str(inst),
                           "--proof", str(proof), "--table", str(table),
                           "--seed", "4")
        assert code == 0 and json.loads(out)["valid"]

        # without the table the base oracle rejects the simulated proof
        code, out, _ = run(capsys, "verify", "--instance", str(inst),
                           "--proof", str(proof), "--seed", "4")
        assert code == 1

    def test_padded_responses_replay_in_either_format(self, tmp_path, capsys, keypair):
        # both table formats program each point's canonical encoding, so a
        # response written with a leading 00 byte replays like the plain one
        inst, _ = keypair
        proof, table = tmp_path / "sim.bin", tmp_path / "table.json"
        code, _, _ = run(capsys, "simulate", "--instance", str(inst),
                         "--k", "2", "--l", "2", "--n", "16",
                         "--out", str(proof), "--table-out", str(table), "--seed", "4")
        assert code == 0
        field = lambda h: f"{len(h) // 2:04x}{h}"  # a pack_field encoding, in hex
        grouped, listed = json.loads(table.read_text()), []
        for vec in grouped["vectors"]:
            prefix = "46495331" "00000002" "00000002" + "".join(map(field, vec["a"]))
            for point in vec["points"]:
                point["z"] = "00" + point["z"]
                listed.append({"key": f"{prefix}{point['i']:08x}{point['c']:08x}"
                                      + field(point["z"]), "y": point["y"]})
        for obj in (grouped, listed):
            padded = tmp_path / "padded.json"
            padded.write_text(json.dumps(obj))
            code, out, _ = run(capsys, "verify", "--instance", str(inst), "--proof", str(proof),
                               "--table", str(padded), "--seed", "4")
            assert code == 0 and json.loads(out)["valid"]

    def test_table_written_in_small_memory(self, tmp_path, capsys, keypair, monkeypatch):
        # a k=1024, l=8, c=2 table is written one point at a time:
        # the traced peak from opening the table file to closing it stays
        # under 250 KB (a whole to_json object is about 380 KB of dicts)
        inst, _ = keypair
        table = tmp_path / "table.json"
        peaks = []

        class Watched:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                tracemalloc.reset_peak()
                self.start = tracemalloc.get_traced_memory()[0]
                return self.fh.__enter__()

            def __exit__(self, *exc):
                peaks.append(tracemalloc.get_traced_memory()[1] - self.start)
                return self.fh.__exit__(*exc)

        def watched_open(path, *args, **kw):
            fh = open(path, *args, **kw)
            return Watched(fh) if str(path) == str(table) else fh

        monkeypatch.setattr(cli, "open", watched_open, raising=False)
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "simulate", "--instance", str(inst),
                               "--k", "1024", "--l", "8", "--c", "2", "--seed", "3",
                               "--out", str(tmp_path / "sim.bin"),
                               "--table-out", str(table))
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["programmed"] == 1024
        assert len(peaks) == 1 and peaks[0] < 250_000


class TestBoundsPlanLab:
    def test_bounds_point_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", str(2 ** 30), "--l", "14",
                           "--c", "1", "--q", str(2 ** 20))
        assert code == 0
        rep = json.loads(out)
        assert rep["N"] == 491520
        assert rep["eps"] <= rep["closed_form"]

    def test_bounds_grid_csv(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "bounds", "--grid",
                           "k=2^20..2^30;l=14;c=1,2", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("k,l,c")
        assert len(lines) > 10

    def test_bounds_grid_stdout(self, capsys):
        code, out, _ = run(capsys, "bounds", "--grid", "k=2^24,2^30;l=14;c=1")
        assert code == 0
        assert out.splitlines()[0].startswith("k,")

    @pytest.mark.parametrize("argv", [
        ["--grid", "k=2^1..2^3;l=14;c=0"],  # c = 0 reached the constraints first
        ["--grid", "k=2^1100;l=14;c=1", "--all-points"],  # k beyond float range
        ["--k", "4", "--l", "2000", "--c", "1"],  # 2^l beyond float range
        # (q + k)^2 beyond float range: at 2^512, and at 2^512 - 1, whose
        # square rounds up to 2^1024
        ["--k", str(2 ** 30), "--l", "14", "--c", "1", "--q", str(2 ** 512)],
        ["--k", str(2 ** 30), "--l", "14", "--c", "1", "--q", str(2 ** 512 - 2 ** 30 - 1)],
        # --k and --l take integers, and the grid names are k, l and c
        ["--grid", "k=2.5;l=14;c=1", "--all-points"],
        ["--grid", "k=4;l=1.5;c=1"],
        ["--grid", "k=4;l=14;c=1;z=3"],
        # 0, or a base beyond the float range, to a negative power
        ["--grid", "k=0^-1;l=14;c=1"],
        ["--grid", "k=4;l=14;c=" + "9" * 400 + "^-1"],
        # N = round(c 2^l log2 k) rounds to 0, so mu = 0 would be a divisor
        ["--k", "2", "--l", "1", "--c", "0.1"],
        ["--k", "4", "--l", "14", "--c", "0.00001"],
        ["--grid", "k=2^1..2^3;l=2;c=0.01", "--all-points"],
    ], ids=["grid-c-zero", "grid-k-overflow", "point-l-overflow", "point-q-overflow",
            "point-q-square-rounds-up", "grid-k-fraction", "grid-l-fraction",
            "grid-unknown-name", "grid-zero-negative-power", "grid-huge-negative-power",
            "point-n-zero", "point-n-zero-l14", "grid-n-zero"])
    def test_bounds_out_of_range_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_bounds_out_writes_stdout_bytes(self, tmp_path, capsys):
        grid = ["bounds", "--grid", "k=2^2..2^40;l=5,14,16;c=0.5,1,4", "--all-points"]
        code, out, _ = run(capsys, *grid)
        assert code == 0 and out.count("\r\n") == 1 + 39 * 3 * 3
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, *grid, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("spec", ["k=2^5000", "k=2^1..2^5000", "c=3^2000"])
    def test_grid_exponent_checked_before_power(self, spec):
        with pytest.raises(ValueError, match="grid exponent"):
            _parse_grid(spec)

    # 1e6 gives N of about 4.3e15 >= 2^32, 1e100 gives l = 343 > 64
    @pytest.mark.parametrize("c", ["inf", "1e308", "1e6", "1e100"])
    def test_plan_huge_rate_exits_2(self, capsys, c):
        code, out, err = run(capsys, "plan", "--k", "16", "--c", c, "--base-n", "509")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_plan(self, capsys):
        code, out, _ = run(capsys, "plan", "--k", str(2 ** 30), "--c", "1",
                           "--base-n", "509")
        assert code == 0
        plan = json.loads(out)
        assert (plan["l"], plan["N"], plan["r"]) == (14, 491520, 3)

    def test_lab_checks(self, capsys):
        for argv in (
            ["lab", "comp-involution", "--l", "3"],
            ["lab", "comp-zero-tail", "--l", "3", "--k", "64",
             "--gamma", "0.5"],
            ["lab", "query-smoke", "--l", "1", "--domain", "2"],
            ["lab", "chernoff", "--num", "1024", "--p", "0.0625",
             "--delta", "0.5", "--trials", "2000", "--seed", "1"],
            ["lab", "martingale", "--m", "6", "--l", "1", "--epsilon", "2",
             "--trials", "20000", "--seed", "1"],
            ["lab", "measure", "--m", "3", "--n", "2", "--l", "1",
             "--trials", "25", "--seed", "1"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            rep = json.loads(out)
            assert rep["pass"] is True
            assert {"check", "params", "measured", "bound", "pass"} <= set(rep)

    # no trials: a division by zero in chernoff and martingale, and a
    # vacuous pass with infinite margins in measure
    @pytest.mark.parametrize("check,trials", [
        ("chernoff", "0"), ("martingale", "0"), ("measure", "0"), ("measure", "-1")])
    def test_lab_trials_below_one_exits_2(self, capsys, check, trials):
        code, out, err = run(capsys, "lab", check, "--trials", trials)
        assert code == 2 and out == ""
        assert err == "error: --trials must be at least 1\n"

    # the first two ended in numpy's MemoryError traceback, the martingale
    # after asking for 64 GiB; the next three "passed" at l = 0; m = -1
    # ended in an IndexError traceback and m = 0 in a numpy message
    @pytest.mark.parametrize("argv,error", [
        (["comp-involution", "--l", "24"], "matrix exceeds the amplitude cap"),
        (["martingale", "--m", "30", "--l", "4"], "state exceeds the amplitude cap"),
        (["comp-involution", "--l", "0"], "need l >= 1"),
        (["query-smoke", "--l", "0"], "need l >= 1"),
        (["comp-zero-tail", "--l", "0"], "need l >= 1"),
        (["martingale", "--m", "-1"], "need m >= 1"),
        (["martingale", "--m", "0"], "need m >= 1")])
    def test_lab_size_errors_exit_2(self, capsys, argv, error):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "lab", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"
        assert peak < 1 << 20

    def test_query_smoke_checks_cap_before_power(self, capsys):
        # 3^3000000 took about a second to build before the cap check, and
        # the time grows faster than the domain
        start = time.perf_counter()
        code, out, err = run(capsys, "lab", "query-smoke", "--l", "1", "--domain", "3000000")
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ""
        assert err == "error: need domain_size >= 1 and a dense operator within AMPLITUDE_CAP\n"

    def test_lab_detects_tail_defect(self, capsys):
        # the known falsified corner of the linear-rate tail bound
        # surfaces as a failing check, exit 1
        code, out, _ = run(capsys, "lab", "comp-zero-tail", "--l", "5",
                           "--k", "1024", "--gamma", "0.125")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_compact_json_flag(self, capsys):
        code, out, _ = run(capsys, "plan", "--k", "16", "--c", "1",
                           "--base-n", "509", "--json")
        assert code == 0
        assert "\n" not in out.strip()
        json.loads(out)


# Grid values: small bases (0 included), exponents on both sides of the
# +-1024 limit, and malformed or huge numbers, as B, B^E, A..B and 2^A..2^B.
GRID_BASES = st.one_of(st.integers(-2, 12).map(str),
                       st.sampled_from(["", "x", "1.5", "1e3", "9" * 400, "-"]))
GRID_EXPONENTS = st.one_of(st.integers(-3, 12), st.integers(-1100, 1100)).map(str)
GRID_VALUES = st.one_of(
    GRID_BASES,
    st.tuples(GRID_BASES, st.one_of(GRID_EXPONENTS, GRID_BASES)).map("^".join),
    st.tuples(GRID_BASES, GRID_BASES).map("..".join),
    st.tuples(GRID_BASES, GRID_EXPONENTS, GRID_BASES, GRID_EXPONENTS).map(
        lambda t: f"{t[0]}^{t[1]}..{t[2]}^{t[3]}"))
GRID_SPECS = st.one_of(
    st.text(st.sampled_from("kclz=;,^.-0123456789 ex"), max_size=24),
    st.lists(st.tuples(st.sampled_from(["k", "l", "c", "z", ""]),
                       st.lists(GRID_VALUES, min_size=1, max_size=3)).map(
        lambda t: t[0] + "=" + ",".join(t[1])), max_size=3).map(";".join))


class TestGridParserFuzz:
    @settings(max_examples=400, deadline=None)
    @given(GRID_SPECS)
    def test_only_value_error(self, spec):
        """``_parse_grid`` returns k, l and c lists of numbers, k and l as
        integers, or raises ValueError, with a bounded peak allocation."""
        tracemalloc.start()
        try:
            grid = _parse_grid(spec)
        except ValueError:
            grid = {}
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 8 << 20
        assert set(grid) <= {"k", "l", "c"}
        for name, values in grid.items():
            assert all(type(v) in ((int,) if name != "c" else (int, float)) for v in values)
