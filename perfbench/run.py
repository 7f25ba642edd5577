#!/usr/bin/env python3
"""End-to-end benchmark of the ``fischlin`` command line.

    python3 perfbench/run.py --workload grind --seed 1 --seconds 25 --trace 0

One process drives ``fischlin.cli.main(argv)`` in-process as a closed loop
with one caller: each op is the workload's commands back to back, and the
next op starts when the previous one has finished. Every output is checked;
an op that aborts, raises or prints a wrong answer counts as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, with
times converted to reference speed (see ``Speedometer``) so that runs made
while the shared host is slower or faster agree.
``--trace 1`` runs each op both untraced and traced (see ``spans.py``) and
reports per-layer counts and self times, the tracing overhead, and, in a
pass of its own, the memory the oracle transcript keeps per query.

The last line of stdout is the JSON result; the lines before it are a
human-readable table. Workload notes are in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3

GROUP = ("--p", "1019", "--q", "509", "--g", "4")
# The bounds-lab inputs do not depend on the seed, so that their outputs
# can be pinned.
GRID = "k=2^1..2^62;l=" + ",".join(map(str, range(1, 25))) + ";c=0.5,1,2,4,8"
# SHA-256 of the CSV the GRID sweep prints, pinned from the commit that
# added this benchmark.
GRID_CSV_SHA256 = "2025892128b8915bd97a55cd04bf196b14a286509740d524a1903f7da8f5aec1"
# (arguments, verdict recorded from that commit). comp-zero-tail at
# (5, 655, 1/8) is acceptance criterion 5's known defect: "pass": false
# with exit 1 is the correct output and stays in the set.
LAB_CHECKS = (
    (("comp-involution", "--l", "8"), True),
    (("comp-zero-tail", "--l", "5", "--k", "655", "--gamma", "0.125"), False),
    (("measure", "--m", "4", "--n", "2", "--l", "2"), True),
    (("martingale", "--m", "6", "--l", "2"), True),
    (("chernoff",), True),
    (("query-smoke", "--l", "2", "--domain", "3"), True),
)
WARM_LAB_CHECKS = (
    (("comp-involution", "--l", "2"), True),
    (("comp-zero-tail", "--l", "5", "--k", "655", "--gamma", "0.125"), False),
    (("measure", "--m", "2", "--n", "1", "--l", "1", "--trials", "2"), True),
    (("martingale", "--m", "2", "--l", "1", "--trials", "2"), True),
    (("chernoff", "--num", "64", "--trials", "2"), True),
    (("query-smoke", "--l", "1", "--domain", "2"), True),
)


class Aborted(Exception):
    """The prover or simulator aborted (a failed op, not a wrong output)."""


class WrongOutput(Exception):
    """A command printed a wrong answer or exited with the wrong code."""


def expect(ok: bool, what: str):
    if not ok:
        raise WrongOutput(what)


def heap_trimmer():
    """glibc's ``malloc_trim``, or a no-op where the C library has none.

    Run after ``gc.collect()`` before each command, it hands the memory the
    previous command freed back to the system, so every command faults its
    memory in afresh, as the separate process of a real CLI call does, and
    not in an amount that depends on what the command before it left in
    the heap (on zk-replay's verify, between 0 and 17,000 page faults)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return lambda: None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


trim_heap = heap_trimmer()


def derive(seed: int, *tag) -> int:
    """A 31-bit seed for one keygen, prove or simulate call."""
    digest = hashlib.sha256(repr((seed,) + tag).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def pin_threads() -> int:
    """Run the BLAS/OpenMP pools on one thread; returns the usable CPU count.

    With a thread per core, the lab checks' matrix products also ran on the
    core the host slows independently of the benchmark's own, and their
    times spread over ten runs by 0.11 against 0.04 on one thread."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


@dataclass
class Result:
    rc: int
    seconds: float
    out: str
    err: str
    start: float


# The host's speed switches between states that differ by up to 1.7x and
# last from a second to a minute, so raw wall times of runs made minutes
# apart disagree by more than any useful bound. Each timed command is
# therefore bracketed by passes of a fixed reference loop and reported as
# its wall time divided by the median reference pass around it, times
# REFERENCE_S: seconds on a host where one pass takes REFERENCE_S, which is
# what it took on an uncontended core of the 2-core Xeon virtual machine the
# benchmark was written on. The raw wall times are printed beside it.
REFERENCE_S = 0.020
REFERENCE_PASSES = 3


def reference_pass() -> float:
    """One pass of a fixed loop of the operations the program spends its
    time in (modular powers, byte strings, SHA-256, dicts, JSON); seconds."""
    start = time.perf_counter()
    seen = {}
    for i in range(600):
        key = b"".join(pow(4, i * j + 1, 1019).to_bytes(2, "big") for j in range(40))
        seen[hashlib.sha256(key).digest()] = i
    json.loads(json.dumps([list(range(50))] * 80))
    return time.perf_counter() - start


class Speedometer:
    """Reference passes taken between commands, and the commands' wall
    times converted to seconds at reference speed."""

    def __init__(self):
        self.passes = []  # (start, seconds) of each reference pass

    def probe(self):
        for _ in range(REFERENCE_PASSES):
            start = time.perf_counter()
            self.passes.append((start, reference_pass()))

    def seconds(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, at reference speed: scaled
        by the median of the probes just before and just after it."""
        before = [s for t, s in self.passes if t < start][-REFERENCE_PASSES:]
        after = [s for t, s in self.passes if t >= start + seconds][:REFERENCE_PASSES]
        return seconds * REFERENCE_S / statistics.median(before + after)


@dataclass
class Sample:
    """One op: the producing command (prove, simulate, bounds), each run of
    the checking command (verify, extract, the lab set), their units of work,
    and the bytes the producing command wrote per output unit."""

    produce: Result
    produce_units: int
    check: list
    check_units: int
    out_bytes_per_unit: float


class Session:
    """One workload's files, seeds and command runner."""

    def __init__(self, cli, work: Path, seed: int):
        self.cli, self.work, self.seed = cli, work, seed
        self.tracer = None
        self.speed = None
        self.inst = str(work / "instance.json")
        self.wit = str(work / "witness.json")
        self.w = None

    def path(self, name: str) -> str:
        return str(self.work / name)

    def probe(self):
        """Take reference passes, when the run converts times to reference speed."""
        if self.speed is not None:
            self.speed.probe()

    def run(self, *argv) -> Result:
        """One ``fischlin`` command, timed with its stdout and stderr captured."""
        argv = [str(a) for a in argv]
        gc.collect()
        trim_heap()
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.region("cli." + argv[0]) if self.tracer else nullcontext()
        with redirect_stdout(out), redirect_stderr(err), span:
            start = time.perf_counter()
            rc = self.cli.main(argv)
            seconds = time.perf_counter() - start
        return Result(rc, seconds, out.getvalue(), err.getvalue(), start)

    def repeat(self, times: int, *argv, check) -> list[Result]:
        """Run a checking command ``times`` times after one probe; ``check``
        judges each result."""
        self.probe()
        out = []
        for _ in range(times):
            r = self.run(*argv)
            check(r)
            out.append(r)
        return out

    def keygen(self):
        r = self.run("keygen", *GROUP, "--seed", derive(self.seed, "keygen"),
                     "--out-instance", self.inst, "--out-witness", self.wit, "--json")
        expect(r.rc == 0, f"keygen exited {r.rc}")
        with open(self.wit) as fh:
            self.w = json.load(fh)["w"]

    def produced(self, r: Result, what: str) -> dict:
        """Parse a prove/simulate result; an abort raises Aborted."""
        if r.rc == 1 and f"{what} aborted" in r.err:
            raise Aborted(r.err.strip())
        expect(r.rc == 0, f"{what} exited {r.rc}: {r.err.strip()}")
        return json.loads(r.out)


def accepted(r: Result):
    expect(r.rc == 0 and json.loads(r.out) == {"valid": True}, f"proof rejected: {r.out}")


# A verify call is short next to the command before it, so an op runs it
# several times to give the run enough samples of it. Repeats on one proof
# vary together, so zk-replay, whose verify is a quarter of its op rather
# than a hundredth, runs it twice and fits more ops in a run instead.
GRIND_VERIFY_REPEATS = 5
ZK_VERIFY_REPEATS = 2


def grind_op(s: Session, i: int, k, l, c) -> Sample:
    seed, proof = derive(s.seed, "op", i), s.path("proof.bin")
    p = s.run("prove", "--instance", s.inst, "--witness", s.wit, "--k", k, "--l", l,
              "--c", c, "--seed", seed, "--out", proof, "--json")
    queries = s.produced(p, "prover")["queries"]
    verify = s.repeat(GRIND_VERIFY_REPEATS, "verify", "--instance", s.inst, "--proof", proof,
                      "--seed", seed, "--json", check=accepted)
    return Sample(p, queries, verify, k, os.path.getsize(proof) / k)


def record_extract_op(s: Session, i: int, k, l, c) -> Sample:
    seed, proof, record = derive(s.seed, "op", i), s.path("proof.bin"), s.path("t.jsonl")
    p = s.run("prove", "--instance", s.inst, "--witness", s.wit, "--k", k, "--l", l,
              "--c", c, "--seed", seed, "--out", proof, "--record", record, "--json")
    queries = s.produced(p, "prover")["queries"]

    def extracted(r: Result):
        expect(r.rc == 0 and json.loads(r.out) == {"status": "Extracted", "w": s.w},
               f"extract did not return the keygen witness: {r.out}")

    extract = s.repeat(1, "extract", "--instance", s.inst, "--proof", proof,
                       "--transcript", record, "--json", check=extracted)
    return Sample(p, queries, extract, queries, os.path.getsize(record) / queries)


def zk_replay_op(s: Session, i: int, k, l, c) -> Sample:
    seed, proof, table = derive(s.seed, "op", i), s.path("proof.bin"), s.path("table.json")
    m = s.run("simulate", "--instance", s.inst, "--k", k, "--l", l, "--c", c,
              "--seed", seed, "--out", proof, "--table-out", table, "--json")
    expect(s.produced(m, "simulator")["programmed"] == k, "table size != k")
    verify = s.repeat(ZK_VERIFY_REPEATS, "verify", "--instance", s.inst, "--proof", proof,
                      "--table", table, "--seed", seed, "--json", check=accepted)
    return Sample(m, k, verify, k, os.path.getsize(table) / k)


def bounds_lab_op(s: Session, i: int, grid, checks, csv_sha256) -> Sample:
    b = s.run("bounds", "--grid", grid, "--all-points")
    expect(b.rc == 0, f"bounds exited {b.rc}")
    if csv_sha256 is not None:
        expect(hashlib.sha256(b.out.encode()).hexdigest() == csv_sha256,
               "bounds CSV differs from the pinned digest")
    rows = b.out.count("\n") - 1
    s.probe()
    lab = []
    for argv, verdict in checks:
        r = s.run("lab", *argv, "--json")
        expect(r.rc == (0 if verdict else 1) and json.loads(r.out)["pass"] is verdict,
               f"lab {argv[0]}: exit {r.rc}, expected pass={verdict}")
        lab.append(r)
    lab_set = Result(0, sum(r.seconds for r in lab), "", "", lab[0].start)
    return Sample(b, rows, [lab_set], 1, len(b.out.encode()) / rows)


@dataclass(frozen=True)
class Workload:
    op: object
    full: tuple
    warm: tuple
    # Names the human-readable table gives the sample fields: the producing
    # command's time and rate, the checking command's time, and the output
    # bytes per unit.
    produce: tuple
    check: str
    out_bytes: str


WORKLOADS = {
    "grind": Workload(grind_op, (256, 8, 2), (16, 4, 8),
                      ("prove_s", "prove_queries_per_s"), "verify_s",
                      "proof_bytes_per_rep"),
    "record-extract": Workload(record_extract_op, (16, 10, 3), (8, 4, 16),
                               ("prove_s", "prove_queries_per_s"), "extract_s",
                               "transcript_bytes_per_query"),
    "zk-replay": Workload(zk_replay_op, (1024, 8, 2), (16, 4, 8),
                          ("simulate_s", "simulate_reps_per_s"), "verify_s",
                          "table_bytes_per_rep"),
    "bounds-lab": Workload(bounds_lab_op, (GRID, LAB_CHECKS, GRID_CSV_SHA256),
                           ("k=2^1..2^4;l=1,14;c=1", WARM_LAB_CHECKS, None),
                           ("bounds_s", "bounds_rows_per_s"), "lab_s",
                           "csv_bytes_per_row"),
}


def import_cli():
    """Import ``fischlin.cli`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "fischlin" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'fischlin'} not found; run from a fischlin checkout")
    sys.path.insert(0, str(SRC))
    from fischlin import cli

    if Path(cli.__file__).resolve().parent != SRC / "fischlin":
        sys.exit(f"error: imported fischlin from {cli.__file__}, not {SRC}")
    return cli


def prepare(cli, name: str, seed: int) -> Session:
    """Set-up after the import: keygen, instance and witness files, one
    warm-up op."""
    work = BENCH / ".work" / name
    work.mkdir(parents=True, exist_ok=True)
    s = Session(cli, work, seed)
    s.keygen()
    wl = WORKLOADS[name]
    wl.op(s, -1, *wl.warm)
    return s


def setup_seconds(name: str, seed: int, speed: Speedometer) -> list[tuple[float, float]]:
    """Wall time from process start to ready, for fresh processes, each with
    the same time at reference speed."""
    out = []
    speed.probe()
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only", "--workload", name,
                        "--seed", str(seed)], cwd=ROOT, check=True, timeout=170)
        out.append((start, time.perf_counter() - start))
        speed.probe()
    return [(wall, speed.seconds(start, wall)) for start, wall in out]


def run_op(wl: Workload, s: Session, i: int, failures: list):
    """One op; failures are recorded as (kind, message) instead of raised."""
    try:
        return wl.op(s, i, *wl.full)
    except Aborted as exc:
        failures.append(("abort", str(exc)))
    except WrongOutput as exc:
        failures.append(("wrong", str(exc)))
    except Exception as exc:
        traceback.print_exc()
        failures.append(("error", repr(exc)))
    return None


def percentile_label(values) -> str:
    """The highest of p50/p90/p99 with at least 10 samples beyond it."""
    n = len(values)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.6g}"
    return "p50=n/a (n<20)"


def environment(name: str, seed: int, seconds: int, trace: int, nproc: int) -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() \
            if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file() else ref
    src = hashlib.sha256()
    for f in sorted((SRC / "fischlin").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "source_sha256": src.hexdigest()[:16]}


def max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def end_to_end(name: str, s: Session, seconds: int, setup: list[tuple[float, float]]):
    wl = WORKLOADS[name]
    samples, failures, attempted = [], [], 0
    base_rss = max_rss_bytes()
    rss_growth = None
    s.speed = speed = Speedometer()
    start = time.perf_counter()
    last = 0.0
    s.probe()
    # Start an op only while it is expected to end within the run length.
    while attempted == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        sample = run_op(wl, s, attempted, failures)
        s.probe()
        last = time.perf_counter() - t0
        attempted += 1
        if sample is not None:
            samples.append(sample)
            if rss_growth is None:
                # The first op starts from the set-up heap; later peaks also
                # depend on how earlier ops fragmented it.
                rss_growth = (max_rss_bytes() - base_rss) / sample.produce_units
    if not samples:
        return attempted, failures, None

    def at_reference_speed(r: Result) -> float:
        return speed.seconds(r.start, r.seconds)

    prod = [x.produce.seconds for x in samples]
    rate = [x.produce_units / x.produce.seconds for x in samples]
    check = [r.seconds for x in samples for r in x.check]
    per_unit = [x.out_bytes_per_unit for x in samples]
    table = [
        ("setup_s", [wall for wall, _ in setup], "s"),
        (wl.produce[0], prod, "s"),
        (wl.produce[1], rate, "1/s"),
        (wl.check, check, "s"),
        (wl.out_bytes, per_unit, "B"),
        ("peak_rss_mib", [max_rss_bytes() / 2 ** 20], "MiB"),
        ("failed_op_ratio", [len(failures) / attempted], "1"),
        ("reference_pass_s", [t for _, t in speed.passes], "s"),
    ]
    for metric, values, unit in table:
        print(f"  {name:15s} {metric:28s} median={statistics.median(values):<12.6g} "
              f"{percentile_label(values):18s} n={len(values):<4d} {unit}")
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "produce_us_per_unit": (statistics.median(
            at_reference_speed(x.produce) / x.produce_units for x in samples) * 1e6, "us"),
        "check_us_per_unit": (statistics.median(
            at_reference_speed(r) / x.check_units for x in samples for r in x.check) * 1e6,
            "us"),
        # Unlike the peak itself, this does not depend on which seed drew
        # the largest transcript.
        "rss_growth_bytes_per_unit": (rss_growth, "B"),
        "output_bytes_per_unit": (statistics.median(per_unit), "B"),
    }
    return attempted, failures, metrics


def transcript_bytes_per_query(name: str, s: Session) -> float:
    """Memory the oracle keeps per recorded query, from tracemalloc in a pass
    of its own. The call replays op 0's recording command through the
    library exactly as the CLI makes it: the prover's oracle on grind and
    record-extract, the table-replaying verifier's oracle on zk-replay."""
    if name == "bounds-lab":
        return 0.0
    from fischlin import oracle as ro
    from fischlin import sigma, simulator, transform

    k, l, c = WORKLOADS[name].full
    with open(s.inst) as fh:
        obj = json.load(fh)
    inst = sigma.SigmaInstance(sigma.GroupParams.from_config(obj), int(obj["x"]))
    params = transform.FischlinParams.explicit(k, l, float(c))
    protocol = sigma.protocol_for_challenge_space(inst.group, params.N)
    seed = derive(s.seed, "op", 0)
    if name == "zk-replay":
        sim = simulator.simulate(params, protocol, inst,
                                 ro.RecordingOracle(params, protocol, ro.derive_seed(seed)),
                                 random.Random(seed))
        oracle = ro.RecordingOracle(params, protocol, ro.derive_seed(seed), table=sim.table)
        call = lambda: transform.verify(params, protocol, inst, sim.proof, oracle)
    else:
        oracle = ro.RecordingOracle(params, protocol, ro.derive_seed(seed))
        witness = sigma.SigmaWitness(int(s.w))
        call = lambda: transform.prove(params, protocol, inst, witness, oracle,
                                       random.Random(seed))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(oracle.transcript)


def per_layer(name: str, s: Session, seconds: int):
    """Pairs of the same op run untraced and traced, until the run length
    is used up; then the memory pass. Counts come from the first
    traced op, so they repeat exactly for a seed; times are means per op."""
    from spans import PER_LAYER_UNITS, Tracer, bypass_report, layer_metrics

    wl = WORKLOADS[name]
    # One untimed op at full size first, so that the first pair does not
    # charge one-time costs to whichever mode runs first.
    wl.op(s, -1, *wl.full)
    tracer = Tracer()
    failures, attempted, plain_s, traced_s, ops = [], 0, 0.0, 0.0, []
    start = time.perf_counter()
    last = 0.0
    while attempted == 0 or time.perf_counter() - start + last <= seconds:
        i = attempted // 2
        seconds_by_mode, results = {}, {}
        # Alternate which mode goes first, so neither always meets the
        # state the other left behind.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            s.tracer = tracer if traced else None
            with tracer.traced_op(i) if traced else nullcontext():
                results[traced] = run_op(wl, s, i, failures)
            s.tracer = None
            seconds_by_mode[traced] = time.perf_counter() - t0
        attempted += 2
        last = sum(seconds_by_mode.values())
        if None not in results.values():
            plain_s += seconds_by_mode[False]
            traced_s += seconds_by_mode[True]
            ops.append(i)
    if not ops:
        return attempted, failures, None
    summaries = [tracer.op_summary(i) for i in ops]
    per_op = [layer_metrics(tracer, i, sm) for i, sm in zip(ops, summaries)]
    metrics = {}
    for metric, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            value = statistics.fmean(m[metric] for m in per_op)
        else:
            value = per_op[0].get(metric, 0.0)
        metrics[metric] = (value, unit)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "1")
    for prediction, hits in bypass_report(summaries[0], name):
        print(f"# bypass {name}: {prediction}: {'holds' if not hits else f'{hits} calls'}")
    out_dir = BENCH / ".out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{name}.csv.gz")
    del tracer
    gc.collect()
    metrics["oracle.transcript.bytes_per_query"] = (transcript_bytes_per_query(name, s), "B")
    for metric, (value, unit) in metrics.items():
        print(f"  {name:15s} {metric:40s} {value:<14.6g} {unit}")
    return attempted, failures, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25, help="run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="run set-up once and exit (what setup_s times)")
    args = ap.parse_args(argv)
    nproc = pin_threads()
    cli = import_cli()
    if args.setup_only:
        prepare(cli, args.workload, args.seed)
        return 0
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, Speedometer())
    s = prepare(cli, args.workload, args.seed)
    env = environment(args.workload, args.seed, args.seconds, args.trace, nproc)
    print("# " + json.dumps(env))
    if args.trace:
        attempted, failures, metrics = per_layer(args.workload, s, args.seconds)
    else:
        attempted, failures, metrics = end_to_end(args.workload, s, args.seconds, setup)
    shutil.rmtree(s.work, ignore_errors=True)
    for kind, message in failures:
        print(f"# failed op ({kind}): {message}")
    if metrics is None:
        print("error: no op completed", file=sys.stderr)
        return 1
    result = {
        "correct": not any(kind != "abort" for kind, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    out_dir = BENCH / ".out"
    out_dir.mkdir(exist_ok=True)
    record = dict(env, result=result)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
