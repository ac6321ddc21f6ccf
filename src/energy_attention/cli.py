"""Command-line entry point: verification suites, descent runs, optimizer
comparisons, loop simulation, Hessian spectra and scaling benchmarks.

All outputs are machine-readable. CSV files carry one leading comment line
embedding the full run configuration (seed included), so any run can be
reproduced from its own output; JSON reports embed the same under "config".
Exit codes: 0 success, 1 verification failure, 2 usage error (including
non-finite or out-of-range numeric options).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from energy_attention import attention as attn
from energy_attention import descent as de
from energy_attention import energy as en
from energy_attention import equivalence as eq
from energy_attention import loopsim as ls
from energy_attention import numkit as nk

SCHEMA_VERSION = 1

VERIFY_HEADER = "claim,instances,max_abs_error,threshold,pass,witness_seed"
DESCEND_HEADER = "step,energy,grad_norm"
COMPARE_HEADER = "seed,optimizer,iters_to_tol,final_energy"
BENCH_HEADER = "variant,N,d,H,median_ns,per-token_ns"
SPECTRUM_HEADER = "index,full_hessian,psd_part,nsd_part"
LOOP_HEADER = "iteration,objective"
TRAIN_HEADER = "epoch,cross_entropy,free_energy,total,weight_norm,head_norm"


class UsageError(Exception):
    pass


# numeric options: (test, rule) for every subcommand that has the option
_NUMERIC_RULES = {
    **dict.fromkeys(("temp", "lr", "rho", "tol"),
                    (lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")),
    "beta": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "eps": (lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
    **dict.fromkeys(("dim", "tokens", "heads", "seeds", "instances", "reps"),
                    (lambda v: v >= 1, ">= 1")),
    **dict.fromkeys(("steps", "iters", "epochs"), (lambda v: v >= 0, ">= 0")),
}


def _check_numeric_args(args) -> None:
    """Reject out-of-range numeric options before any work starts."""
    for name, (valid, rule) in _NUMERIC_RULES.items():
        value = getattr(args, name, None)
        if value is not None and not valid(value):
            raise UsageError(f"{name} must be {rule}")
    if getattr(args, "heads", 1) > 1 and args.dim % args.heads != 0:
        raise UsageError("heads must divide the dimension")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _write(args, command: str, config: dict, header: str, rows,
           records: str | None = None, payload: dict | None = None) -> None:
    """Write one run to ``args.out`` in ``args.format``.

    CSV: the config comment line, the header, then one line per row, each
    cell by one rule (float ``.17g``, bool lower-case, None empty, anything
    else, pre-formatted strings included, as it is). JSON: the schema,
    command, config and seed, then ``payload``, plus under ``records`` the
    rows keyed by the header fields.
    """
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": command,
               "config": config, "seed": config.get("seed"), **(payload or {})}
        if records is not None:
            fields = header.split(",")
            doc[records] = [dict(zip(fields, row)) for row in rows]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True), header]
        lines.extend(",".join(map(_cell, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _write_text(path: str | None, text: str) -> None:
    """Write to stdout, or atomically to a file (temp + rename)."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_from(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys}


# ---------------------------------------------------------------------------
# shared instance construction
# ---------------------------------------------------------------------------

_SPECS = {"elastic": en.elastic_spec, "inner": en.inner_product_spec,
          "square-sum": en.square_sum_spec}
_PER_HEAD_SPECS = {"elastic": en.per_head_elastic_spec,
                   "inner": en.per_head_inner_spec}


def _random_instance(rng: nk.Rng, energy_kind: str, dim: int, tokens_n: int,
                     heads: int, temperature: float):
    """Random (spec, z0, tokens) for descent-style commands."""
    if heads > 1 and energy_kind not in _PER_HEAD_SPECS:
        raise UsageError(f"{energy_kind} energy is single-head only")
    z = nk.sample_hypersphere(rng, dim, 1.0)
    token_mat = np.stack(
        [nk.sample_hypersphere(rng, dim, 1.0) for _ in range(tokens_n)], axis=1)
    if heads == 1:
        weight = rng.normal_matrix(dim, dim, 1.0 / math.sqrt(dim))
        return _SPECS[energy_kind](weight, temperature), z, token_mat
    head_dim = dim // heads
    scale = 1.0 / math.sqrt(dim)
    w1 = tuple(rng.normal_matrix(head_dim, dim, scale) for _ in range(heads))
    w2 = tuple(rng.normal_matrix(head_dim, dim, scale) for _ in range(heads))
    return _PER_HEAD_SPECS[energy_kind](w1, w2, temperature), z, token_mat


_OPTIMIZERS = {
    "vanilla": lambda a: de.Vanilla(a.lr),
    "momentum": lambda a: de.Momentum(a.lr, a.beta),
    "nag": lambda a: de.Nag(a.lr, a.beta),
    "newton-exact": lambda a: de.NewtonSubspace(a.lr, "exact", a.eps),
    "newton-taylor1": lambda a: de.NewtonSubspace(a.lr, "taylor1", a.eps),
}


def _make_optimizer(name: str, args) -> object:
    if name not in _OPTIMIZERS:
        raise UsageError(f"unknown optimizer {name!r}")
    if name.startswith("newton") and args.energy != "elastic":
        raise UsageError("Newton preconditioning requires --energy elastic")
    return _OPTIMIZERS[name](args)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = eq.InstanceConfig(args.dim, args.tokens, args.heads, args.rho,
                            args.lr, args.temp)
    names = eq.CLAIMS if args.which == "all" else [args.which]
    reports = [eq.VERIFIERS[name](cfg, args.instances, args.seed, args.break_tying)
               for name in names]
    config = _config_from(args, ["which", "seed", "dim", "tokens", "heads",
                                 "rho", "temp", "lr", "instances", "format"])
    rows = [(r.claim, r.instances, r.max_abs_error, r.threshold, r.passed,
             r.witness_seed) for r in reports]
    _write(args, "verify", config, VERIFY_HEADER, rows, records="results")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# descend / compare
# ---------------------------------------------------------------------------

def cmd_descend(args) -> int:
    spec, z0, token_mat = _random_instance(nk.Rng(args.seed), args.energy,
                                           args.dim, args.tokens, args.heads,
                                           args.temp)
    optimizer = _make_optimizer(args.optimizer, args)
    trace = de.descend(spec, optimizer, z0, token_mat,
                       max_iters=args.steps, tol=args.tol)
    config = _config_from(args, ["energy", "optimizer", "dim", "tokens", "heads",
                                 "lr", "beta", "steps", "tol", "seed", "format"])
    config["stop_reason"] = trace.stop_reason
    _write(args, "descend", config, DESCEND_HEADER, trace.rows(), records="steps",
           payload={"stop_reason": trace.stop_reason})
    return 0


def cmd_compare(args) -> int:
    names = [n.strip() for n in args.optimizers.split(",") if n.strip()]
    if not names:
        raise UsageError("at least one optimizer required")
    optimizers = [_make_optimizer(n, args) for n in names]
    rows = []
    for s in range(args.seeds):
        seed = args.seed + s
        if args.energy == "elastic" and args.heads > 1:
            # conditioned blocks: iteration counts stay comparable (see descent)
            spec, z0, token_mat = de.conditioned_multihead_instance(
                seed, args.dim, args.tokens, args.heads, args.temp)
        else:
            spec, z0, token_mat = _random_instance(nk.Rng(seed), args.energy,
                                                   args.dim, args.tokens,
                                                   args.heads, args.temp)
        table = de.compare_optimizers(spec, z0, token_mat, optimizers,
                                      budget=args.steps, tol=args.tol)
        for row in table:
            rows.append((seed, row["optimizer"], row["iters_to_tol"],
                         row["final_energy"]))
    config = _config_from(args, ["energy", "optimizers", "dim", "tokens", "heads",
                                 "lr", "beta", "steps", "tol", "seed", "seeds",
                                 "format"])
    _write(args, "compare", config, COMPARE_HEADER, rows, records="rows")
    return 0


# ---------------------------------------------------------------------------
# loop
# ---------------------------------------------------------------------------

def cmd_loop(args) -> int:
    rng = nk.Rng(args.seed)
    weight = rng.normal_matrix(args.dim, args.dim, 1.0 / math.sqrt(args.dim))
    spec = _SPECS[args.energy](weight, args.temp)
    config = _config_from(args, ["mode", "iters", "causal", "energy", "dim",
                                 "tokens", "samples", "epochs", "classes",
                                 "lr", "temp", "seed", "format"])

    if args.mode == "forward":
        token_mat = np.stack(
            [nk.sample_hypersphere(rng, args.dim, 1.0) for _ in range(args.tokens)],
            axis=1)
        cfg = ls.LoopConfig(spec, args.iters, args.lr, causal=args.causal)
        trace = ls.loop_forward(cfg, token_mat)
        config["stop_reason"] = trace.stop_reason
        _write(args, "loop", config, LOOP_HEADER, enumerate(trace.objectives),
               payload={"stop_reason": trace.stop_reason,
                        "objectives": list(trace.objectives)})
        return 0

    # training modes
    if args.samples < 2:
        raise UsageError("training needs at least one sample per class")
    if args.classes != 2:
        raise UsageError("training data has two classes: --classes must be 2")
    head = rng.normal_matrix(args.dim, args.classes, 0.1)
    cfg = ls.LoopConfig(spec, args.iters, args.lr, causal=args.causal, head=head)
    if args.mode == "train-single":
        dataset = ls.two_cluster_dataset(rng, args.samples // 2, args.tokens,
                                         args.dim)
        trace = ls.alternating_optimize(cfg, dataset, args.epochs)
    elif args.mode == "train-loop":
        dataset = []
        for tokens, label in ls.two_cluster_dataset(rng, args.samples // 2,
                                                    args.tokens, args.dim):
            labels = np.tile(label[:, None], (1, tokens.shape[1]))
            dataset.append((tokens, labels))
        trace = ls.loop_alternating_optimize(cfg, dataset, args.epochs)
    else:
        raise UsageError(f"unknown mode {args.mode!r}")
    config["stop_reason"] = trace.stop_reason
    rows = [(r.epoch, r.cross_entropy, r.free_energy, r.total, r.weight_norm,
             r.head_norm) for r in trace.epochs]
    _write(args, "loop", config, TRAIN_HEADER, rows, records="epochs",
           payload={"stop_reason": trace.stop_reason})
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

_BENCH_VARIANTS = ("mha", "mha2nd", "mha2nd1st", "light")


def _bench_forward(variant: str, params, cache):
    if variant == "mha":
        return lambda z, tokens: attn.mha(params, z, tokens)
    if variant == "mha2nd":
        return lambda z, tokens: attn.mha2nd_exact(params, z, tokens, cache)
    if variant == "mha2nd1st":
        return lambda z, tokens: attn.mha2nd1st(params, z, tokens, cache)
    if variant == "light":
        return lambda z, tokens: attn.light_mha2nd1st(params, z, tokens)
    raise UsageError(f"unknown variant {variant!r}")


def run_bench(variant: str, dim: int, heads: int, tokens_list: list[int],
              reps: int, seed: int) -> tuple[list[dict], float | None]:
    """Median wall-time per forward call over ``reps`` runs after 3 warmups.

    Returns per-N rows and the least-squares log-log slope of median time
    versus N (None when fewer than two sizes are measured).
    """
    rng = nk.Rng(seed)
    scores = "distance" if variant in ("mha2nd", "mha2nd1st") else "inner"
    params = attn.random_params(rng, dim, heads, scores=scores)
    cache = attn.range_space_cache(params)
    forward = _bench_forward(variant, params, cache)
    z = rng.normal_vector(dim) / math.sqrt(dim)
    pool = rng.normal_matrix(dim, max(tokens_list), 1.0 / math.sqrt(dim))
    token_sets = [np.ascontiguousarray(pool[:, :n]) for n in tokens_list]
    for tokens in token_sets:
        for _ in range(3):
            forward(z, tokens)
    # blocks of same-N calls (warm caches), blocks interleaved across sizes
    # so machine-load drift spreads over all N instead of biasing one point
    block = 5
    samples: list[list[int]] = [[] for _ in tokens_list]
    for _ in range((reps + block - 1) // block):
        for idx, tokens in enumerate(token_sets):
            forward(z, tokens)  # re-warm after the previous size
            for _ in range(block):
                start = time.perf_counter_ns()
                forward(z, tokens)
                samples[idx].append(time.perf_counter_ns() - start)
    samples = [spent[:reps] for spent in samples]
    rows = []
    for n, spent in zip(tokens_list, samples):
        median = float(np.median(spent))
        rows.append({"variant": variant, "N": n, "d": dim, "H": heads,
                     "median_ns": median, "per_token_ns": median / n})
    slope = None
    if len(tokens_list) >= 2:
        logs_n = np.log([row["N"] for row in rows])
        logs_t = np.log([row["median_ns"] for row in rows])
        slope = float(np.polyfit(logs_n, logs_t, 1)[0])
    return rows, slope


def cmd_bench(args) -> int:
    tokens_list = [int(x) for x in args.tokens_list.split(",") if x.strip()]
    if not tokens_list or any(n < 1 for n in tokens_list):
        raise UsageError("tokens-list must be positive integers")
    rows, slope = run_bench(args.variant, args.dim, args.heads, tokens_list,
                            args.reps, args.seed)
    config = _config_from(args, ["variant", "dim", "heads", "tokens_list",
                                 "reps", "seed", "format"])
    csv_rows = [(r["variant"], r["N"], r["d"], r["H"], f"{r['median_ns']:.0f}",
                 f"{r['per_token_ns']:.3f}") for r in rows]
    if slope is not None:
        csv_rows.append((args.variant, "slope", args.dim, args.heads,
                         f"{slope:.6f}", None))
    _write(args, "bench", config, BENCH_HEADER, csv_rows,
           payload={"rows": rows, "loglog_slope": slope})
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    spec, z, token_mat = _random_instance(nk.Rng(args.seed), "elastic",
                                          args.dim, args.tokens, args.heads,
                                          args.temp)
    if args.energy == "inner":
        spec = en.upper_bound_spec(spec)
    psd, nsd = en.hessian_split(spec, z, token_mat)
    full = nk.sym_eigvals(psd + nsd)
    psd_eigs = nk.sym_eigvals(psd)
    nsd_eigs = nk.sym_eigvals(nsd)
    config = _config_from(args, ["energy", "dim", "tokens", "heads", "temp",
                                 "seed", "format"])
    columns = {"full_hessian": full.tolist(), "psd_part": psd_eigs.tolist(),
               "nsd_part": nsd_eigs.tolist()}
    _write(args, "spectrum", config, SPECTRUM_HEADER,
           zip(range(args.dim), *columns.values()), payload=columns)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energy-attn",
        description="Energy-based attention: verification, descent, loops, benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run claim verifiers")
    p.add_argument("which", choices=(*eq.CLAIMS, "all"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--tokens", type=int, default=16)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--temp", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--break-tying", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control hook
    _add_common_output(p)
    p.set_defaults(func=cmd_verify, default_format="json")

    p = sub.add_parser("descend", help="minimize one energy, write the trace")
    p.add_argument("--energy", choices=("elastic", "inner", "square-sum"),
                   default="elastic")
    p.add_argument("--optimizer", choices=tuple(_OPTIMIZERS), default="vanilla")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--tokens", type=int, default=64)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--temp", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    _add_common_output(p)
    p.set_defaults(func=cmd_descend, default_format="csv")

    p = sub.add_parser("compare", help="race optimizers over seeds")
    p.add_argument("--energy", choices=("elastic", "inner", "square-sum"),
                   default="elastic")
    p.add_argument("--optimizers", default="vanilla,momentum,nag")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--tokens", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--beta", type=float, default=0.9)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--temp", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1)
    _add_common_output(p)
    p.set_defaults(func=cmd_compare, default_format="csv")

    p = sub.add_parser("loop", help="loop forward or alternating training")
    p.add_argument("--mode", choices=("forward", "train-single", "train-loop"),
                   default="forward")
    p.add_argument("--iters", type=int, default=4)
    p.add_argument("--causal", action="store_true")
    p.add_argument("--energy", choices=("elastic", "inner"), default="elastic")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--tokens", type=int, default=8)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--temp", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    _add_common_output(p)
    p.set_defaults(func=cmd_loop, default_format="csv")

    p = sub.add_parser("bench", help="wall-time scaling in the token count")
    p.add_argument("--variant", choices=_BENCH_VARIANTS, default="mha2nd1st")
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--tokens-list", default="256,512,1024,2048,4096")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_common_output(p)
    p.set_defaults(func=cmd_bench, default_format="csv")

    p = sub.add_parser("spectrum", help="Hessian eigenvalues for one instance")
    p.add_argument("--energy", choices=("elastic", "inner"), default="elastic")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--tokens", type=int, default=16)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--temp", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    _add_common_output(p)
    p.set_defaults(func=cmd_spectrum, default_format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        _check_numeric_args(args)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
