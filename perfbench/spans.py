"""Span tracing of the fischlin layers, installed from outside the package.

``Tracer.traced_op`` replaces each traced function with a wrapper at the
name its caller looks it up by (a class attribute, a module global, or a
name imported into ``fischlin.cli``) and puts the originals back after, so
an untraced command runs the unmodified code. A span records its name,
start, end, parent span and op id; spans stay in memory until ``dump``.

Self time is a span's duration minus the part covered by its children.
Calls count spans whose parent has another name, so a ``RepeatedSigma``
call and the ``Schnorr`` calls nested inside it count once.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

# Lab check functions the CLI reaches through ``fischlin.lab``.
LAB_FUNCTIONS = (
    "comp_matrix", "comp_zero_tail_exact", "build_symmetric_state",
    "measure_bound_check", "sequential_measure_martingale", "chernoff_mc",
    "query_unitary_smoke",
)

# Per-layer metrics reported by a traced run, with their units. Names end
# in ``.calls`` (count), ``.self_s`` (self time per op), ``.s`` (inclusive
# time per op) or name a ratio defined in ``layer_metrics``.
# ``trace.overhead_ratio`` and ``oracle.transcript.bytes_per_query`` are
# filled in by the runner.
PER_LAYER_UNITS = {
    "sigma.respond.calls": "count",
    "sigma.respond.self_s": "s",
    "sigma.verify.calls": "count",
    "sigma.verify.self_s": "s",
    "sigma.simulate.self_s": "s",
    "oracle.query.calls": "count",
    "oracle.query.self_s": "s",
    "oracle.encode.self_s": "s",
    "oracle.ro_eval.calls": "count",
    "oracle.ro_eval.self_s": "s",
    "oracle.ro_eval.bytes_per_query": "B",
    "oracle.hash_ratio": "1",
    "oracle.transcript.bytes_per_query": "B",
    "oracle.to_jsonl.s": "s",
    "oracle.from_jsonl.s": "s",
    "oracle.encode_input.calls": "count",
    "oracle.reprogram.calls": "count",
    "oracle.reprogram.self_s": "s",
    "oracle.table_to_json.s": "s",
    "transform.prove.self_s": "s",
    "transform.verify.self_s": "s",
    "transform.serialize_proof.s": "s",
    "transform.deserialize_proof.s": "s",
    "transform.grind_yield": "1",
    "extractor.extract.self_s": "s",
    "extractor.verify_per_entry": "1",
    "simulator.simulate.self_s": "s",
    "simulator.tilde.calls": "count",
    "simulator.tilde.self_s": "s",
    "simulator.tilde_yield": "1",
    "bounds.sweep.self_s": "s",
    "bounds.eval_chain.calls": "count",
    "bounds.eval_chain.self_s": "s",
    "bounds.report_csv_rows.s": "s",
    **{f"lab.{fn}.s": "s" for fn in LAB_FUNCTIONS},
    "cli.self_s": "s",
    "trace.overhead_ratio": "1",
}


def _targets():
    """(owner, attribute, span name, argument tally or None) for every
    traced function. A tally maps the call's positional arguments to a
    number added to ``Tracer.tallies[(op, span name)]``."""
    from fischlin import bounds, cli, lab, oracle, sigma, simulator, transform

    out = []
    for cls in (sigma.Schnorr, sigma.RepeatedSigma):
        for method in ("respond", "verify", "simulate"):
            out.append((cls, method, f"sigma.{method}", None))
    out += [
        (oracle.RecordingOracle, "query", "oracle.query", None),
        (oracle.RecordingOracle, "encode", "oracle.encode", None),
        (oracle.RecordingOracle, "reprogram", "oracle.reprogram", None),
        # seed || payload is what SHA-256 consumes.
        (oracle, "ro_eval", "oracle.ro_eval", lambda a: len(a[0]) + len(a[1])),
        (oracle, "encode_input", "oracle.encode_input", None),
        (oracle.OracleTranscript, "to_jsonl", "oracle.to_jsonl", None),
        (oracle.OracleTranscript, "from_jsonl", "oracle.from_jsonl", None),
        (oracle.ReprogramTable, "to_json", "oracle.table_to_json", None),
        (transform, "prove", "transform.prove", lambda a: a[0].k),
        (transform, "verify", "transform.verify", None),
        (transform, "serialize_proof", "transform.serialize_proof", None),
        (transform, "deserialize_proof", "transform.deserialize_proof", None),
        (cli, "extract", "extractor.extract", lambda a: len(a[4])),
        (cli, "simulate", "simulator.simulate", lambda a: a[0].k),
        (simulator.TildeFunction, "__call__", "simulator.tilde", None),
        (bounds, "sweep", "bounds.sweep", None),
        (bounds, "eval_chain", "bounds.eval_chain", None),
        (bounds, "report_csv_rows", "bounds.report_csv_rows", None),
    ]
    out += [(lab, fn, f"lab.{fn}", None) for fn in LAB_FUNCTIONS]
    return out


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, op id)
        self.spans: list = []
        self.stack = [-1]
        self.op = -1
        self.op_spans: dict[int, range] = {}  # op -> its (contiguous) span indices
        self.tallies: dict[tuple[int, str], float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, tally):
        nid = self._name_id(name)
        spans, stack, tallies, clock = self.spans, self.stack, self.tallies, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            if tally is not None:
                tallies[(self.op, name)] += tally(args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (nid, start, end, parent, self.op)

        return traced

    @contextmanager
    def traced_op(self, op: int):
        """Record spans under ``op`` while the block runs: each traced name
        is replaced by its wrapper, and the original is put back after."""
        self.op = op
        first = len(self.spans)
        saved = []
        for owner, attr, name, tally in _targets():
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, tally))
            else:
                new = self._wrap(name, raw, tally)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        try:
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self.op_spans[op] = range(first, len(self.spans))

    @contextmanager
    def region(self, name: str):
        """A span around code that is not a traced function (a CLI command)."""
        nid = self._name_id(name)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (nid, start, end, parent, self.op)

    def dump(self, path):
        """Write every span as ``name,start,end,parent,op`` (gzip CSV)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent},{op}\n")

    def op_summary(self, op: int) -> dict:
        """Per-name totals over the spans of one op: ``calls`` (spans whose
        parent has another name), ``self_s``, ``s`` (inclusive time of
        those outer spans), and per top-level command the calls it holds."""
        names, spans = self.names, self.spans
        idx = self.op_spans[op]
        child = defaultdict(float)
        self_s = defaultdict(float)
        incl = defaultdict(float)
        calls = defaultdict(int)
        under = defaultdict(int)  # (command name, span name) -> outer calls
        top = {}
        for i in idx:
            nid, start, end, parent, _ = spans[i]
            top[i] = i if parent < 0 else top[parent]
        for i in reversed(idx):
            nid, start, end, parent, _ = spans[i]
            dur = end - start
            name = names[nid]
            self_s[name] += dur - child[i]
            if parent >= 0:
                child[parent] += dur
            if parent < 0 or spans[parent][0] != nid:
                calls[name] += 1
                incl[name] += dur
                under[(names[spans[top[i]][0]], name)] += 1
        return {"calls": calls, "self_s": self_s, "s": incl, "under": under}


def layer_metrics(tracer: Tracer, op: int, summary: dict) -> dict:
    """Per-layer metric values of one traced op from its ``op_summary``
    (all but the two the runner fills in)."""
    calls, self_s, incl, under = (summary[k] for k in ("calls", "self_s", "s", "under"))

    def tally(name):
        return tracer.tallies.get((op, name), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in PER_LAYER_UNITS:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[base]
        elif kind == "self_s":
            out[metric] = self_s[base]
        elif kind == "s":
            out[metric] = incl[base]
    out["cli.self_s"] = sum(v for name, v in self_s.items() if name.startswith("cli."))
    out["oracle.ro_eval.bytes_per_query"] = ratio(tally("oracle.ro_eval"),
                                                  calls["oracle.ro_eval"])
    out["oracle.hash_ratio"] = ratio(calls["oracle.ro_eval"], calls["oracle.query"])
    out["transform.grind_yield"] = ratio(tally("transform.prove"),
                                         under[("cli.prove", "oracle.query")])
    out["extractor.verify_per_entry"] = ratio(under[("cli.extract", "sigma.verify")],
                                              tally("extractor.extract"))
    out["simulator.tilde_yield"] = ratio(tally("simulator.simulate"),
                                         calls["simulator.tilde"])
    return out


# Layers each workload must not reach: (workload, command span or None for
# any command, span-name prefix). A hit means the workload no longer
# isolates what NOTES.md says it does.
BYPASS = (
    ("grind", None, "oracle.to_jsonl"),
    ("grind", None, "oracle.from_jsonl"),
    ("grind", None, "extractor."),
    ("zk-replay", "cli.verify", "sigma.respond"),
    ("zk-replay", "cli.verify", "oracle.ro_eval"),
    ("bounds-lab", None, "sigma."),
    ("bounds-lab", None, "oracle."),
)


def bypass_report(summary: dict, workload: str) -> list[tuple[str, int]]:
    """(prediction, calls that break it) for the workload's bypass rules,
    from one op's ``op_summary``."""
    under = summary["under"]
    out = []
    for wl, command, prefix in BYPASS:
        if wl == workload:
            hits = sum(n for (cmd, name), n in under.items()
                       if name.startswith(prefix) and command in (None, cmd))
            out.append((f"no {prefix}* calls" + (f" in {command}" if command else ""), hits))
    return out
