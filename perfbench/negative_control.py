#!/usr/bin/env python3
"""Negative control: the benchmark's output checks must reject wrong outputs.

    python3 perfbench/negative_control.py

Run from the root of a checkout. Each case runs one check on the library's
real output (it must pass) and on a deliberately wrong one (it must fail):
instances built with ``break_tying=True``, and forward, loop, descent,
free-energy and eigenvalue outputs perturbed after the fact. Exits 0 only
if every clean check passes and every broken one is caught.
"""

from __future__ import annotations

import copy
import os
import sys

import run  # pins BLAS threads and sets up imports
from checks import CheckFailed, close, require

import numpy as np


def outcome(check) -> str:
    try:
        check()
    except CheckFailed as err:
        return f"rejected ({err})"
    return "accepted"


def perturbed(array, scale=1e-6):
    out = np.array(array, dtype=np.float64, copy=True)
    out.flat[0] += scale * max(1.0, float(np.max(np.abs(out))))
    return out


def cases(sections):
    verify, descent = sections["verify"], sections["descent"]
    loop, forward = sections["loop"], sections["forward"]
    lib, cfg = verify.lib, verify.cfg
    seed = verify.base

    # equivalence: the verifier's own report and the numpy recomputation
    yield ("verify report, break_tying",
           lambda: require(lib.equivalence.verify_multihead_gd(
               cfg, 4, seed).passed, "report failed"),
           lambda: require(lib.equivalence.verify_multihead_gd(
               cfg, 4, seed, break_tying=True).passed, "report failed"))
    yield ("tied forward == step, break_tying",
           lambda: verify.check_equivalence(seed),
           lambda: verify.check_equivalence(seed, break_tying=True))

    # free energies: every recorded value shifted by 1e-6
    records = []
    original = lib.energy.free_energy

    def recording(spec, z, tokens, weights):
        value = original(spec, z, tokens, weights)
        records.append((spec, z, tokens, np.asarray(weights, dtype=float), value))
        return value

    lib.energy.free_energy = recording
    try:
        lib.equivalence.boltzmann_suite(cfg, 1, seed, dirichlet_draws=200)
    finally:
        lib.energy.free_energy = original
    shifted = [r[:4] + (r[4] + 1e-6,) for r in records]
    yield ("explicit free energies, shifted values",
           lambda: run.wl.check_free_energy_records(records),
           lambda: run.wl.check_free_energy_records(shifted))

    # eigenvalues against numpy.linalg.eigvalsh
    spec, z, tokens = lib.equivalence.make_relaxed_instance(
        lib.numkit.Rng(seed), cfg.dim, cfg.tokens, cfg.heads, cfg.radius,
        cfg.temperature)
    hess = lib.energy.hessian_z(spec, z, tokens)
    vals = lib.numkit.sym_eigvals(hess)
    yield ("sym_eig eigenvalues, perturbed",
           lambda: close(vals, np.linalg.eigvalsh(hess), 1e-10),
           lambda: close(perturbed(vals, 1e-8), np.linalg.eigvalsh(hess), 1e-10))

    # descent: rows of a real race, then one iteration count off by one
    result = descent.unit(0)
    slot, rows = result.payload
    bad_rows = copy.deepcopy(rows)
    bad_rows[0]["iters_to_tol"] += 1
    yield ("descent replay, iteration count off by one",
           lambda: descent.check_rows(descent.seeds[slot], rows),
           lambda: descent.check_rows(descent.seeds[slot], bad_rows))

    # loop: iterate 1 perturbed, and a recorded objective perturbed
    traces, train = loop.unit(0).payload
    trace = traces[True]
    bad_iterate = copy.deepcopy(trace)
    bad_iterate.iterates[1] = perturbed(trace.iterates[1])
    bad_objective = copy.deepcopy(trace)
    bad_objective.objectives[-1] += 1e-6 * abs(bad_objective.objectives[-1])
    yield ("loop iteration vs dense masked update, perturbed iterate",
           lambda: loop.check_forward(trace, True),
           lambda: loop.check_forward(bad_iterate, True))
    yield ("loop objectives vs summed free energies, perturbed objective",
           lambda: loop.check_forward(trace, True),
           lambda: loop.check_forward(bad_objective, True))
    bad_train = copy.deepcopy(train)
    bad_train.final_head = perturbed(train.final_head, 1e-3)
    yield ("loop training record, perturbed head",
           lambda: loop.check_train(train),
           lambda: loop.check_train(bad_train))

    # forward: each structure's output perturbed in turn
    outputs = forward.unit(0).payload
    for variant in forward.VARIANTS:
        bad = dict(outputs)
        bad[variant] = perturbed(outputs[variant])
        yield (f"forward {variant} vs einsum reference, perturbed output",
               lambda: run.wl.check_forward_outputs(forward.params, forward.z,
                                                    forward.tokens, outputs),
               lambda bad=bad: run.wl.check_forward_outputs(
                   forward.params, forward.z, forward.tokens, bad))


def main() -> int:
    if not os.path.isfile(os.path.join("src", run.PACKAGE, "__init__.py")):
        print(f"error: src/{run.PACKAGE} not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sections = run.build_sections(run.import_library(), seed=0)
    ok = True
    for name, clean, broken in cases(sections):
        clean_out, broken_out = outcome(clean), outcome(broken)
        good = clean_out == "accepted" and broken_out.startswith("rejected")
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: clean {clean_out}; "
              f"broken {broken_out}")
    print("negative control passed" if ok else "negative control FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
