"""Command-line front end.

Subcommands: keygen, prove, verify, extract, simulate, bounds, plan, lab.
Every command prints machine-readable JSON on stdout (CSV for grid
sweeps), writes human diagnostics to stderr, and exits 0 on
success/accept, 1 on reject/not-found/abort, 2 on usage errors and on
malformed input files (proofs, transcripts, reprogram tables, instance,
witness and config files) and on bound parameters out of range. All
randomness is derived from --seed (or FISCHLIN_SEED, or the config file),
so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

import numpy as np

from . import bounds as bounds_mod
from . import lab as lab_mod
from . import transform
from .extractor import Status, extract
from .oracle import HashingOracle, OracleTranscript, RecordingOracle, ReprogramTable, derive_seed
from .sigma import GroupParams, SigmaInstance, SigmaWitness, config_int, keygen, \
    protocol_for_challenge_space
from .simulator import simulate


def _load_json(path: str, what: str):
    """The JSON value held in a file; ValueError if it nests too deeply or
    holds a number that is not finite (Infinity, NaN or a float that
    overflows)."""
    def finite(text):
        if not math.isfinite(value := float(text)):
            raise ValueError(f"{what} file holds the non-finite number {text}")
        return value

    with open(path) as fh:
        try:
            return json.load(fh, parse_float=finite, parse_constant=finite)
        except RecursionError:
            raise ValueError(f"{what} file nests too deeply") from None


def _load_object(path: str, what: str) -> dict:
    """The JSON object held in a file; ValueError for any other shape."""
    obj = _load_json(path, what)
    if not isinstance(obj, dict):
        raise ValueError(f"{what} file must hold a JSON object")
    return obj


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = _load_object(path, "config")
    params = config.get("params", {})
    if not isinstance(params, dict) or not all(
            v is None or isinstance(v, (int, float, str)) for v in params.values()):
        raise ValueError("config 'params' must map names to numbers")
    return config


def _resolve_seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FISCHLIN_SEED")
    if env is not None:
        return int(env, 0)
    return config_int(config["seed"], "seed") if "seed" in config else 0


def _oracle_seed(config: dict, seed: int) -> bytes:
    hexseed = config.get("oracle_seed")
    if hexseed is not None:
        raw = bytes.fromhex(hexseed) if isinstance(hexseed, str) else b""
        if len(raw) != 32:
            raise ValueError("oracle_seed must be exactly 32 bytes of hex")
        return raw
    return derive_seed(seed)


def _group_from(args, config: dict) -> GroupParams:
    if getattr(args, "p", None) is not None:
        return GroupParams(args.p, args.q, args.g)
    if "group" in config:
        return GroupParams.from_config(config["group"])
    raise ValueError("no group: pass --p/--q/--g or a config with a group entry")


def _params_from(args, config: dict) -> transform.FischlinParams:
    cfg = config.get("params", {})

    def get(name):
        """The flag's value, else the config's: ints but for the float c."""
        if getattr(args, name, None) is not None:
            return getattr(args, name)
        value = cfg.get(name)
        return value if value is None or name == "c" else config_int(value, name)

    lam = get("lam") or get("lambda")
    k, l, c, n, t = get("k"), get("l"), get("c"), get("n"), get("t")
    if lam is not None:
        if l is None:
            raise ValueError("--lambda needs --l")
        return transform.FischlinParams.from_security(lam, l)
    if k is None or l is None:
        raise ValueError("pass --k and --l (with --c or --n), or --lambda and --l")
    if c is not None:
        if isinstance(c, bool):  # float(True) would read it as 1.0
            raise ValueError("config c must be a number or a decimal string, not a bool")
        return transform.FischlinParams.explicit(k, l, float(c))
    if n is not None:
        return transform.FischlinParams(k=k, l=l, N=n, T=t if t is not None else n)
    raise ValueError("pass --c or --n to size the challenge space")


def _load_instance(path: str) -> SigmaInstance:
    obj = _load_object(path, "instance")
    return SigmaInstance(GroupParams.from_config(obj), config_int(obj["x"], "x"))


def _emit(args, obj):
    if getattr(args, "json", False):
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(json.dumps(obj, indent=2))


def cmd_keygen(args) -> int:
    config = _load_config(args.config)
    group = _group_from(args, config)
    rng = random.Random(_resolve_seed(args, config))
    instance, witness = keygen(group, rng)
    inst_obj = dict(group.to_config(), x=str(instance.x))
    with open(args.out_instance, "w") as fh:
        json.dump(inst_obj, fh, indent=2)
    with open(args.out_witness, "w") as fh:
        json.dump({"w": str(witness.w)}, fh, indent=2)
    _emit(args, {"instance": args.out_instance, "witness": args.out_witness,
                 "x": str(instance.x)})
    return 0


def cmd_prove(args) -> int:
    config = _load_config(args.config)
    instance = _load_instance(args.instance)
    witness = SigmaWitness(config_int(_load_object(args.witness, "witness")["w"], "w"))
    params = _params_from(args, config)
    protocol = protocol_for_challenge_space(instance.group, params.N)
    seed = _resolve_seed(args, config)
    oracle = (RecordingOracle if args.record else HashingOracle)(
        params, protocol, _oracle_seed(config, seed))
    rng = random.Random(seed)
    try:
        proof = transform.prove(params, protocol, instance, witness, oracle, rng)
    except transform.Abort as exc:
        print(f"prover aborted: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "wb") as fh:
        fh.write(transform.serialize_proof(params, protocol, proof))
    if args.record:
        with open(args.record, "w") as fh:
            fh.write(oracle.transcript.to_jsonl(protocol))
    _emit(args, {"proof": args.out, "k": params.k, "l": params.l,
                 "N": params.N, "queries": oracle.attempts})
    return 0


def _read_proof(args):
    with open(args.proof, "rb") as fh:
        blob = fh.read()
    k, l, n = transform.peek_params(blob)
    params = transform.FischlinParams(k=k, l=l, N=n, T=n)
    instance = _load_instance(args.instance)
    protocol = protocol_for_challenge_space(instance.group, params.N)
    proof = transform.deserialize_proof(params, protocol, blob)
    return params, instance, protocol, proof


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    params, instance, protocol, proof = _read_proof(args)
    seed = _resolve_seed(args, config)
    table = None
    if args.table:
        table = ReprogramTable.from_json(params, protocol, _load_json(args.table, "table"))
    oracle = (RecordingOracle if args.record else HashingOracle)(
        params, protocol, _oracle_seed(config, seed), table=table)
    ok = transform.verify(params, protocol, instance, proof, oracle)
    if args.record:
        with open(args.record, "w") as fh:
            fh.write(oracle.transcript.to_jsonl(protocol))
    _emit(args, {"valid": ok})
    return 0 if ok else 1


def cmd_extract(args) -> int:
    params, instance, protocol, proof = _read_proof(args)
    with open(args.transcript) as fh:
        transcript = OracleTranscript.from_jsonl(params, protocol, fh.read())
    outcome = extract(params, protocol, instance, proof, transcript)
    _emit(args, outcome.to_json())
    return 0 if outcome.status is Status.EXTRACTED else 1


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    instance = _load_instance(args.instance)
    params = _params_from(args, config)
    protocol = protocol_for_challenge_space(instance.group, params.N)
    seed = _resolve_seed(args, config)
    oracle = RecordingOracle(params, protocol, _oracle_seed(config, seed))
    rng = random.Random(seed)
    try:
        out = simulate(params, protocol, instance, oracle, rng)
    except transform.Abort as exc:
        print(f"simulator aborted: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "wb") as fh:
        fh.write(transform.serialize_proof(params, protocol, out.proof))
    with open(args.table_out, "w") as fh:
        out.table.write_json(fh)
    _emit(args, {"proof": args.out, "table": args.table_out,
                 "c": list(out.proof.c_vec), "programmed": len(out.table)})
    return 0


def _grid_exponent(e: int) -> int:
    """A grid exponent, rejected before any power is taken unless |e| < 1024."""
    if abs(e) >= 1024:
        raise ValueError(f"grid exponent {e} out of range: need |E| < 1024")
    return e


def _parse_grid(spec: str) -> dict:
    """Grid spec: semicolon-separated name=values with comma lists over the
    names k, l (integers) and c; values may use B^E, and k accepts 2^A..2^B
    for the powers of two between. Every exponent must be below 1024 in
    magnitude."""
    out = {}
    for part in spec.replace(" ", ";").split(";"):
        if not part:
            continue
        name, _, vals = part.partition("=")
        items = []
        for v in vals.split(","):
            if ".." in v:
                lo, hi = v.split("..")
                elo = int(lo.split("^")[1]) if "^" in lo else int(math.log2(int(lo)))
                ehi = int(hi.split("^")[1]) if "^" in hi else int(math.log2(int(hi)))
                items.extend(2 ** e for e in range(_grid_exponent(elo), _grid_exponent(ehi) + 1))
            elif "^" in v:
                base, exp = v.split("^")
                try:
                    items.append(int(base) ** _grid_exponent(int(exp)))
                except ArithmeticError as exc:  # 0 or a huge base to a negative power
                    raise ValueError(f"grid value {v!r}: {exc}") from None
            else:
                items.append(float(v) if "." in v else int(v))
        name = name.strip()
        if name not in ("k", "l", "c"):
            raise ValueError(f"unknown grid name {name!r}: use k, l and c")
        if name != "c" and any(type(v) is not int for v in items):
            raise ValueError(f"grid {name} values must be integers")
        out[name] = items
    return out


def cmd_bounds(args) -> int:
    if args.grid:
        grid = _parse_grid(args.grid)
        reports = bounds_mod.sweep(grid.get("k", [args.k]),
                                   grid.get("l", [args.l]),
                                   grid.get("c", [args.c]),
                                   q=args.q, only_valid=not args.all_points)
        header, rows = bounds_mod.report_csv_rows(reports)
        text = bounds_mod.csv_text(header, rows)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
            _emit(args, {"rows": len(rows), "csv": args.out})
        else:
            sys.stdout.write(text)
        return 0
    if args.k is None or args.l is None or args.c is None:
        raise ValueError("pass --k, --l and --c (or --grid)")
    report = bounds_mod.eval_chain(args.k, args.l, args.c, args.q)
    _emit(args, report.to_json())
    return 0


def cmd_plan(args) -> int:
    plan = bounds_mod.plan_parameters(args.k, args.c, args.base_n)
    _emit(args, plan)
    return 0


def cmd_lab(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    check = args.check
    if check == "comp-involution":
        c = lab_mod.comp_matrix(args.l)
        eye = np.eye(c.shape[0])
        measured = float(max(np.abs(c @ c - eye).max(),
                             np.abs(c.conj().T @ c - eye).max()))
        result = {"measured": measured, "bound": 1e-12,
                  "pass": measured <= 1e-12}
        params = {"l": args.l}
    elif check == "comp-zero-tail":
        exact = lab_mod.comp_zero_tail_exact(args.l, args.k, args.gamma)
        bound = bounds_mod.eval_eps_gamma(args.gamma, args.l, args.k)
        result = {"measured": exact, "bound": bound, "pass": exact <= bound}
        params = {"l": args.l, "k": args.k, "gamma": args.gamma}
    elif check == "measure":
        worst_plus, worst_zero, ok = math.inf, math.inf, True
        for _ in range(args.trials):
            st = lab_mod.build_symmetric_state(args.m, args.n, args.l, rng)
            rep = lab_mod.measure_bound_check(st)
            worst_plus = min(worst_plus, rep.plus_weight - rep.plus_floor)
            worst_zero = min(worst_zero, rep.zero_weight - rep.zero_floor)
            ok = ok and rep.bounds_ok
        result = {"measured": {"plus_margin": worst_plus,
                               "zero_margin": worst_zero},
                  "bound": 0.0, "pass": ok}
        params = {"m": args.m, "n": args.n, "l": args.l, "trials": args.trials}
    elif check == "martingale":
        st = lab_mod.TensorState(
            args.m, args.l,
            lab_mod.product_state(args.m, lab_mod.plus_state(args.l)))
        rep = lab_mod.sequential_measure_martingale(st, args.epsilon,
                                                    args.trials, rng)
        result = {"measured": rep.empirical, "bound": rep.bound, "pass": rep.ok}
        params = {"m": args.m, "l": args.l, "epsilon": args.epsilon,
                  "trials": args.trials}
    elif check == "chernoff":
        rep = lab_mod.chernoff_mc(args.num, args.p, args.delta, args.trials, rng)
        result = {"measured": {"upper": rep.upper_tail_emp,
                               "lower": rep.lower_tail_emp},
                  "bound": {"upper": rep.upper_bound, "lower": rep.lower_bound},
                  "pass": rep.ok}
        params = {"n": args.num, "p": args.p, "delta": args.delta,
                  "trials": args.trials}
    elif check == "query-smoke":
        rep = lab_mod.query_unitary_smoke(args.l, args.domain)
        measured = {k: v for k, v in vars(rep).items() if k not in ("l", "domain_size")}
        result = {"measured": measured, "bound": 1e-12, "pass": rep.ok}
        params = {"l": args.l, "domain": args.domain}
    _emit(args, {"check": check, "params": params, **result})
    return 0 if result["pass"] else 1


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for the command line ``argv``. Every sub-command is
    registered with its help, but only one named in ``argv`` gets its
    flags, ``-h`` included: argparse hands the arguments after a
    sub-command's exact name to that sub-parser alone, so the flags of the
    others are never read."""
    top = argparse.ArgumentParser(
        prog="fischlin",
        description="Proof-of-work NIZK compiler: prove, verify, extract, "
                    "simulate, and evaluate security bounds.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, text, func):
        """The sub-parser ``name`` with the common flags, or None if ``argv`` does not name it."""
        p = sub.add_parser(name, help=text, add_help=name in argv)
        if name not in argv:
            return None
        p.add_argument("--config", help="JSON session config")
        p.add_argument("--seed", type=lambda s: int(s, 0),
                       help="run seed (overrides FISCHLIN_SEED and config)")
        p.add_argument("--json", action="store_true",
                       help="compact single-line JSON output")
        p.set_defaults(func=func)
        return p

    def param_flags(p):
        p.add_argument("--k", type=int, help="repetitions")
        p.add_argument("--l", type=int, help="hash bits")
        p.add_argument("--c", type=float, help="challenge-space rate constant")
        p.add_argument("--n", type=int, help="challenge-space size (direct)")
        p.add_argument("--t", type=int, help="attempt cap (defaults to N)")
        p.add_argument("--lambda", dest="lam", type=int,
                       help="security parameter for the legacy derivation")

    if p := command("keygen", "sample a statement/witness pair", cmd_keygen):
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--g", type=int)
        p.add_argument("--out-instance", required=True)
        p.add_argument("--out-witness", required=True)

    if p := command("prove", "produce a proof", cmd_prove):
        param_flags(p)
        p.add_argument("--instance", required=True)
        p.add_argument("--witness", required=True)
        p.add_argument("--out", required=True, help="binary proof file")
        p.add_argument("--record", help="write the oracle transcript (JSONL)")

    if p := command("verify", "verify a proof", cmd_verify):
        p.add_argument("--instance", required=True)
        p.add_argument("--proof", required=True)
        p.add_argument("--record", help="write the oracle transcript (JSONL)")
        p.add_argument("--table", help="reprogram table JSON to replay")

    if p := command("extract", "extract a witness from a transcript", cmd_extract):
        p.add_argument("--instance", required=True)
        p.add_argument("--proof", required=True)
        p.add_argument("--transcript", required=True)

    if p := command("simulate", "simulate a proof without the witness", cmd_simulate):
        param_flags(p)
        p.add_argument("--instance", required=True)
        p.add_argument("--out", required=True, help="binary proof file")
        p.add_argument("--table-out", required=True, help="reprogram table JSON")

    if p := command("bounds", "evaluate the security-bound chain", cmd_bounds):
        p.add_argument("--k", type=int)
        p.add_argument("--l", type=int)
        p.add_argument("--c", type=float)
        p.add_argument("--q", type=int, default=0, help="adversary query budget")
        p.add_argument("--grid", help='sweep spec, e.g. "k=2^20..2^34;l=14,16,18;c=1,2,4"')
        p.add_argument("--all-points", action="store_true",
                       help="include grid points outside the validity region")
        p.add_argument("--out", help="CSV output path for grid sweeps")

    if p := command("plan", "pick (l, N, r) for a target k", cmd_plan):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--base-n", type=int, required=True,
                       help="challenge-space size of the base protocol")

    if p := command("lab", "run a numerical lab check", cmd_lab):
        p.add_argument("check", choices=["comp-involution", "comp-zero-tail",
                                         "measure", "martingale", "chernoff",
                                         "query-smoke"])
        p.add_argument("--l", type=int, default=1)
        p.add_argument("--k", type=int, default=16)
        p.add_argument("--gamma", type=float, default=0.5)
        p.add_argument("--m", type=int, default=3)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--epsilon", type=float, default=2.0)
        p.add_argument("--num", type=int, default=4096, help="Bernoulli count")
        p.add_argument("--p", type=float, default=0.0625)
        p.add_argument("--delta", type=float, default=0.5)
        p.add_argument("--domain", type=int, default=2)

    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
