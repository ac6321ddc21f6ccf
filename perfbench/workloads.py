"""The four sections of work the benchmark times, and the workload mixes.

A section builds its inputs once (that is the set-up the benchmark times)
and then runs numbered units. A unit is a fixed group of calls into the
library; each timed call is one operation and yields one sample (metric,
work done, measured seconds, reference seconds). Every ``CHECK_EVERY``-th
unit is also checked against the numpy references in ``checks`` after its
timing ends.

Reference seconds take out the drift of the machine's speed: on a shared
2-vCPU Xeon VM the same call's time moved by up to a factor of two over
seconds to minutes, and its CPU time moved with its wall time. A fixed
reference kernel is timed right before and right after every timed call,
and the call's measured seconds are scaled by the kernel's reference time
over the mean of the two kernel times. There are two kernels, matched to
the kind of work timed: interpreter- and dispatch-bound small-array code
(verify, descent, loop, set-up) and bandwidth-bound passes over an array of
forward-long's size (forward); a kernel of the other kind tracked the drift
worse. A kernel's reference time is about its median on that VM, so
reference seconds stay near its wall-clock seconds. The kernels call
nothing in the library, so a change to the library moves reference seconds
as it moves measured ones.

Each workload is a round of units: ``focus_units`` units of its own
section plus one unit of each other section, so every result carries every
end-to-end metric while about half the run or more is spent where the
workload's name says. Each metric is timed over its own calls only.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

import checks
from checks import close, require

CHECK_EVERY = 4

_SMALL = np.full((16, 64), 1.0 / 64)
_LARGE = np.full((256, 4096), 1e-3)  # the shape of forward-long's tokens


def dispatch_kernel() -> None:
    """A pure-Python loop, then small numpy steps."""
    x = 0
    for i in range(25_000):
        x = (x * 31 + i) & 0xFFFF
    v = np.ones(16)
    for _ in range(250):
        s = v @ _SMALL
        e = np.exp(s - s.max())
        v = _SMALL @ (e / e.sum()) + 0.5 * v


def stream_kernel() -> None:
    """Matrix-vector products over an 8 MB array."""
    v = np.ones(256)
    for _ in range(3):
        v = _LARGE @ (v @ _LARGE) * 1e-3


class ReferenceClock:
    """Times calls in measured and in reference seconds. A kernel run that
    ended right before a call (nothing ran in between but bookkeeping) is
    reused as that call's before-kernel."""

    REUSE_S = 0.002

    def __init__(self, kernel, ref_s: float):
        self.kernel, self.ref_s = kernel, ref_s
        self.kernels: list[float] = []  # every kernel time of the run
        self._last = (0.0, -1.0)  # (kernel seconds, when it ended)

    def kernel_seconds(self) -> float:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.kernels.append(end - start)
        self._last = (end - start, end)
        return end - start

    def time(self, fn, *args, **kwargs):
        """(output, measured seconds, reference seconds) of one call."""
        last, ended = self._last
        fresh = time.perf_counter() - ended < self.REUSE_S
        before = last if fresh else self.kernel_seconds()
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        after = self.kernel_seconds()
        return out, seconds, seconds * self.ref_s / (0.5 * (before + after))


DISPATCH = ReferenceClock(dispatch_kernel, 0.008)
STREAM = ReferenceClock(stream_kernel, 0.0034)


class Sample(NamedTuple):
    metric: str
    work: float
    seconds: float    # measured
    reference_s: float


class UnitResult(NamedTuple):
    samples: list
    attempted: int   # timed calls into the library
    failed: int      # calls that stopped without a result (divergence)
    payload: object  # what ``check`` needs


class Section:
    """Base: ``counters`` collects work/waste figures for the traced run."""

    metrics: tuple[str, ...] = ()
    clock = DISPATCH
    focus_units: int  # units per round when the section is the workload's own

    def __init__(self, lib, seeds: np.random.SeedSequence, tracer=None):
        self.lib = lib
        self.tracer = tracer
        self.counters: dict[str, float] = {}

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _calls(self, name: str) -> int:
        return 0 if self.tracer is None else self.tracer.calls_of(name)


# ---------------------------------------------------------------------------
# verify-sweep: the five claims at the CLI's default shapes
# ---------------------------------------------------------------------------

class Verify(Section):
    focus_units = 1
    metrics = ("verify.equivalence_instances_per_s",
               "verify.simplex_points_per_s",
               "verify.hessian_instances_per_s")
    EQUIV_INSTANCES = 24     # per claim per unit
    HESSIAN_INSTANCES = 36   # every third is sharp; one must be indefinite
    DRAWS = 1000             # uniform simplex draws per token count
    GRID_RES = 0.01

    def __init__(self, lib, seeds, tracer=None):
        super().__init__(lib, seeds, tracer)
        self.cfg = lib.equivalence.InstanceConfig()  # d=8, N=16, H=2
        self.base = int(seeds.generate_state(1)[0] % 2**30)
        grid = round(1.0 / self.GRID_RES)
        self.points = (grid + 1) * (grid + 2) // 2 + 2 * self.DRAWS

    def _seed(self, index: int, stride: int) -> int:
        return self.base + index * stride

    def unit(self, index: int):
        eq = self.lib.equivalence
        cfg, n = self.cfg, self.EQUIV_INSTANCES
        seed = self._seed(index, n)
        eig0 = self._calls("numkit.sym_eig")
        made0 = self._calls("equivalence.make_tied_instance")
        reports, *equiv_s = self.clock.time(
            lambda: [eq.verify_softmax_gd(cfg, n, seed),
                     eq.verify_linear_gd(cfg, n, seed),
                     eq.verify_multihead_gd(cfg, n, seed)])
        self._count("sym_eig", self._calls("numkit.sym_eig") - eig0)
        self._count("tied_instances",
                    self._calls("equivalence.make_tied_instance") - made0)
        boltz, *boltz_s = self.clock.time(
            eq.boltzmann_suite, cfg, 1, self.base + index,
            grid_res=self.GRID_RES, dirichlet_draws=self.DRAWS)
        hess_seed = self._seed(index, self.HESSIAN_INSTANCES)
        hess, *hess_s = self.clock.time(eq.verify_hessian_structure, cfg,
                                        self.HESSIAN_INSTANCES, hess_seed)
        self._count("stationary_skipped", hess.details["stationary_skipped"])
        samples = [Sample(self.metrics[0], 3 * n, *equiv_s),
                   Sample(self.metrics[1], self.points, *boltz_s),
                   Sample(self.metrics[2], self.HESSIAN_INSTANCES, *hess_s)]
        return UnitResult(samples, 5, 0, (seed, reports + [boltz, hess]))

    def check(self, index: int, payload) -> None:
        seed, reports = payload
        for report in reports:
            require(report.passed, f"{report.claim} report failed")
        self.check_equivalence(seed)
        self.check_free_energies(self.base + index)
        self.check_hessian(self._seed(index, self.HESSIAN_INSTANCES))

    def check_equivalence(self, seed: int, break_tying: bool = False) -> None:
        """Rebuild the first instance of each claim and recompute the forward
        and the descent step in numpy; both must agree, and the library's
        forward must match them."""
        lib, cfg = self.lib, self.cfg
        eq, attn, nk = lib.equivalence, lib.attention, lib.numkit
        for tying, heads in (("softmax", 1), ("linear", 1),
                             ("multihead", cfg.heads)):
            rng = nk.Rng(seed)
            inst = eq.make_tied_instance(rng, tying, cfg.dim, cfg.tokens, heads,
                                         cfg.radius, cfg.eta, cfg.temperature,
                                         break_tying)
            p = inst.params
            gates = rng.uniforms(cfg.tokens) if tying == "linear" else None
            pair = inst.spec.pair
            if tying == "multihead":
                maps_q, maps_k = pair.w_query, pair.w_key
            else:
                maps_q, maps_k = (np.eye(cfg.dim),), (pair.weight,)
            forward = checks.tied_forward(p.w_query, p.w_key, p.w_value, p.w_out,
                                          p.score_temp, inst.z, inst.tokens,
                                          gates)
            step = checks.tied_step(maps_q, maps_k, inst.z, inst.tokens,
                                    inst.eta, cfg.temperature, gates)
            close(forward, step, 1e-10)
            if tying == "linear":
                lib_forward = attn.linear_attention(p, inst.z, inst.tokens, gates)
            elif tying == "softmax":
                lib_forward = attn.softmax_attention(p, inst.z, inst.tokens)
            else:
                lib_forward = attn.mha(p, inst.z, inst.tokens)
            close(lib_forward, forward, 1e-12)

    def check_free_energies(self, seed: int) -> None:
        """Replay one Boltzmann instance, recording every explicit free energy
        the verifier evaluates; each must equal U - T S from numpy and be at
        least -T logsumexp(-E/T)."""
        en, eq = self.lib.energy, self.lib.equivalence
        seen = []
        original = en.free_energy

        def recording(spec, z, tokens, weights):
            value = original(spec, z, tokens, weights)
            seen.append((spec, z, tokens, np.asarray(weights, dtype=float), value))
            return value

        en.free_energy = recording
        try:
            eq.boltzmann_suite(self.cfg, 1, seed, grid_res=self.GRID_RES,
                               dirichlet_draws=self.DRAWS)
        finally:
            en.free_energy = original
        require(len(seen) == self.points, f"saw {len(seen)} free energies")
        check_free_energy_records(seen)

    def check_hessian(self, seed: int) -> None:
        """sym_eig eigenvalues of the first instance's Hessian parts against
        numpy.linalg.eigvalsh, and the sign structure from eigvalsh."""
        lib, cfg = self.lib, self.cfg
        spec, z, tokens = lib.equivalence.make_relaxed_instance(
            lib.numkit.Rng(seed), cfg.dim, cfg.tokens, cfg.heads, cfg.radius,
            cfg.temperature)
        psd, nsd = lib.energy.hessian_split(spec, z, tokens)
        for part in (psd, nsd, psd + nsd):
            vals, vecs = lib.numkit.sym_eig(part)
            reference = np.linalg.eigvalsh(0.5 * (part + part.T))
            close(vals, reference, 1e-10)
            close(vecs @ np.diag(vals) @ vecs.T, part, 1e-10)
        require(np.linalg.eigvalsh(psd)[0] >= -1e-10, "psd part has a negative eigenvalue")
        require(np.linalg.eigvalsh(nsd)[-1] <= 1e-10, "nsd part has a positive eigenvalue")


def check_free_energy_records(seen) -> None:
    groups: dict[int, list] = {}
    for record in seen:
        groups.setdefault(id(record[2]), []).append(record)
    for records in groups.values():
        spec, z, tokens = records[0][:3]
        t = spec.temperature
        energies, floor = checks.free_energy_floor(spec.pair.weight, z, tokens, t)
        weights = np.stack([r[3] for r in records])
        values = np.array([r[4] for r in records])
        expected = checks.explicit_free_energies(energies, weights, t)
        close(values, expected, 1e-12)
        shortfall = floor - float(np.min(values))
        require(shortfall <= 1e-9, f"free energy {shortfall:.3e} below the minimum")


# ---------------------------------------------------------------------------
# descent-race: five optimizers to tolerance on one query
# ---------------------------------------------------------------------------

class Descent(Section):
    focus_units = 4
    metrics = ("descent.first_order_steps_per_s", "descent.newton_steps_per_s")
    DIM, TOKENS, HEADS = 16, 64, 4
    POOL = 7          # instances, used in turn
    # the compare command's rate, momentum and tolerance; the budget is
    # doubled so vanilla (about 1050 steps) reaches the tolerance. Newton
    # steps at 0.2 (about 240 steps to tolerance).
    LR, BETA, BUDGET, TOL, NEWTON_LR = 0.05, 0.9, 2000, 1e-6, 0.2

    def __init__(self, lib, seeds, tracer=None):
        super().__init__(lib, seeds, tracer)
        de = lib.descent
        base = int(seeds.generate_state(1)[0] % 2**30)
        self.seeds = [base + k for k in range(self.POOL)]
        self.instances = [de.conditioned_multihead_instance(
            s, self.DIM, self.TOKENS, self.HEADS) for s in self.seeds]
        self.first_order = (de.Vanilla(self.LR), de.Momentum(self.LR, self.BETA),
                            de.Nag(self.LR, self.BETA))
        self.newton = (de.NewtonSubspace(self.NEWTON_LR, "exact"),
                       de.NewtonSubspace(self.NEWTON_LR, "taylor1"))

    def _race(self, metric: str, slot: int, opts):
        spec, z0, tokens = self.instances[slot]
        evals0 = self._calls("energy.evaluate")
        rows, *seconds = self.clock.time(
            self.lib.descent.compare_optimizers, spec, z0, tokens, opts,
            budget=self.BUDGET, tol=self.TOL)
        steps = sum(row["iters_to_tol"] for row in rows)
        self._count("evaluate", self._calls("energy.evaluate") - evals0)
        self._count("steps", steps)
        self._count("runs", len(rows))
        self._count("converged", sum(r["stop_reason"] == "converged" for r in rows))
        failed = sum(r["stop_reason"] not in ("converged", "max_iters") for r in rows)
        return Sample(metric, steps, *seconds), rows, failed

    def unit(self, index: int):
        """The first-order trio, then each Newton mode, on one instance."""
        slot = index % self.POOL
        samples, rows, failed = [], [], 0
        for metric, opts in ((self.metrics[0], self.first_order),
                             (self.metrics[1], self.newton[:1]),
                             (self.metrics[1], self.newton[1:])):
            sample, race_rows, bad = self._race(metric, slot, opts)
            samples.append(sample)
            rows += race_rows
            failed += bad
        return UnitResult(samples, 3, failed, (slot, rows))

    def check(self, index: int, payload) -> None:
        slot, rows = payload
        self.check_rows(self.seeds[slot], rows)

    def check_rows(self, seed: int, rows) -> None:
        """Rebuild the instance from its seed, rerun every optimizer and
        require the same iteration counts and final energies; each converged
        run's final point must have a closed-form gradient norm below tol."""
        de = self.lib.descent
        spec, z0, tokens = de.conditioned_multihead_instance(
            seed, self.DIM, self.TOKENS, self.HEADS)
        by_label = {row["optimizer"]: row for row in rows}
        require(len(by_label) == 5, "expected five optimizer rows")
        for opt in self.first_order + self.newton:
            trace = de.descend(spec, opt, z0, tokens, max_iters=self.BUDGET,
                               tol=self.TOL)
            row = by_label[opt.label]
            iters = trace.iters_to_tol(self.TOL)
            require((self.BUDGET if iters is None else iters) == row["iters_to_tol"],
                    f"{opt.label}: iteration count differs on the same seed")
            require(trace.steps[-1].energy == row["final_energy"],
                    f"{opt.label}: final energy differs on the same seed")
            if trace.stop_reason == "converged":
                grad = checks.per_head_elastic_grad(
                    spec.pair.w_query, spec.pair.w_key, trace.steps[-1].z,
                    tokens, spec.temperature)
                norm = float(np.linalg.norm(grad))
                require(norm <= self.TOL * (1 + 1e-6),
                        f"{opt.label}: gradient norm {norm:.3e} above tol")
                require(abs(norm - trace.steps[-1].grad_norm) <= 1e-6 * self.TOL,
                        f"{opt.label}: recorded gradient norm is off")


# ---------------------------------------------------------------------------
# loop-sequence: N queries against one shared token set
# ---------------------------------------------------------------------------

class Loop(Section):
    metrics = ("loop.causal_positions_per_s", "loop.full_positions_per_s",
               "loop.train_epochs_per_s")
    focus_units = 9
    DIM, TOKENS, ITERS, ETA, TEMP = 64, 384, 2, 0.1, 1.0
    TRAIN_SAMPLES, TRAIN_TOKENS, TRAIN_DIM, EPOCHS = 4, 24, 16, 2

    def __init__(self, lib, seeds, tracer=None):
        super().__init__(lib, seeds, tracer)
        rng = np.random.default_rng(seeds)
        en, ls = lib.energy, lib.loopsim
        d = self.DIM
        self.weight = rng.standard_normal((d, d)) / np.sqrt(d)
        tokens = rng.standard_normal((d, self.TOKENS))
        self.tokens = tokens / np.linalg.norm(tokens, axis=0)
        spec = en.elastic_spec(self.weight, self.TEMP)
        self.configs = {causal: ls.LoopConfig(spec, self.ITERS, self.ETA, causal)
                        for causal in (True, False)}
        # two-cluster sequences, one label per position
        d = self.TRAIN_DIM
        anchor = rng.standard_normal(d)
        anchor /= np.linalg.norm(anchor)
        self.dataset = []
        for k in range(self.TRAIN_SAMPLES):
            label = k % 2
            cloud = (1 - 2 * label) * anchor[:, None] \
                + 0.3 * rng.standard_normal((d, self.TRAIN_TOKENS))
            labels = np.zeros((2, self.TRAIN_TOKENS))
            labels[label] = 1.0
            self.dataset.append((cloud / np.linalg.norm(cloud, axis=0), labels))
        self.train_weight = rng.standard_normal((d, d)) / np.sqrt(d)
        self.train_cfg = ls.LoopConfig(
            en.elastic_spec(self.train_weight, self.TEMP), self.ITERS, self.ETA,
            causal=True, head=0.1 * rng.standard_normal((d, 2)))

    def unit(self, index: int):
        ls = self.lib.loopsim
        samples, traces = [], {}
        positions = self.ITERS * self.TOKENS
        for metric, causal in ((self.metrics[0], True), (self.metrics[1], False)):
            evals0 = self._calls("energy.evaluate")
            trace, *seconds = self.clock.time(
                ls.loop_forward, self.configs[causal], self.tokens)
            self._count("evaluate", self._calls("energy.evaluate") - evals0)
            self._count("position_updates", positions)
            samples.append(Sample(metric, positions, *seconds))
            traces[causal] = trace
        train, *seconds = self.clock.time(
            ls.loop_alternating_optimize, self.train_cfg, self.dataset,
            self.EPOCHS)
        samples.append(Sample(self.metrics[2], self.EPOCHS, *seconds))
        failed = sum(t.stop_reason != "completed"
                     for t in (*traces.values(), train))
        return UnitResult(samples, 3, failed, (traces, train))

    def check(self, index: int, payload) -> None:
        traces, train = payload
        for causal, trace in traces.items():
            require(trace.stop_reason == "completed", "loop forward diverged")
            self.check_forward(trace, causal)
        require(train.stop_reason == "completed", "loop training diverged")
        self.check_train(train)

    def check_forward(self, trace, causal: bool) -> None:
        """Iteration 1 against a dense masked N x N softmax update, and every
        recorded objective against independently summed free energies."""
        require(len(trace.iterates) == self.ITERS + 1, "wrong iterate count")
        close(trace.iterates[0], self.tokens, 0.0)
        expected = checks.loop_step(self.weight, trace.iterates[0], self.ETA,
                                    self.TEMP, causal)
        close(trace.iterates[1], expected, 1e-10)
        objectives = [checks.loop_objective(self.weight, x, self.TEMP, causal)
                      for x in trace.iterates]
        close(trace.objectives, objectives, 1e-10)

    def check_train(self, train) -> None:
        """The last epoch's cross-entropy and free energy, recomputed from the
        final map, head and loop outputs."""
        require(len(train.epochs) == self.EPOCHS + 1, "wrong epoch count")
        last = train.epochs[-1]
        finals = train.iterates
        labels = [labels for _, labels in self.dataset]
        close(last.cross_entropy,
              checks.cross_entropy_sum(train.final_head, finals, labels), 1e-10)
        free = sum(checks.loop_objective(train.final_weight, x, self.TEMP, True)
                   for x in finals)
        close(last.free_energy, free, 1e-10)


# ---------------------------------------------------------------------------
# forward-long: every attention structure at d=256 over thousands of tokens
# ---------------------------------------------------------------------------

class Forward(Section):
    focus_units = 6
    clock = STREAM
    metrics = ("forward.mha_tokens_per_s", "forward.nag_tokens_per_s",
               "forward.newton_exact_tokens_per_s", "forward.taylor_tokens_per_s",
               "forward.light_tokens_per_s")
    VARIANTS = ("mha", "nag_mha", "mha2nd_exact", "mha2nd1st", "light_mha2nd1st")
    DIM, HEADS, TOKENS = 256, 4, 4096
    REPEATS = 2

    def __init__(self, lib, seeds, tracer=None):
        super().__init__(lib, seeds, tracer)
        rng = np.random.default_rng(seeds)
        attn = lib.attention
        d, h = self.DIM, self.HEADS
        dh = d // h

        def maps(rows, cols):
            return tuple(rng.standard_normal((rows, cols)) / np.sqrt(d)
                         for _ in range(h))

        temp = attn.default_score_temperature(dh, "distance")
        self.params = attn.AttentionParams(
            w_query=maps(dh, d), w_key=maps(dh, d), w_value=maps(dh, d),
            w_out=maps(d, dh), score_temp=(temp,) * h, bias_temp=(temp,) * h,
            tau=(0.01,) * h)
        self.z = rng.standard_normal(d) / np.sqrt(d)
        self.tokens = rng.standard_normal((d, self.TOKENS)) / np.sqrt(d)
        self.cache = attn.range_space_cache(self.params)
        self.state = attn.MomentumState.zeros(d)
        self.flops = flop_counts(d, h, self.TOKENS)

    def _call(self, variant: str, momentum):
        attn = self.lib.attention
        p, z, tokens = self.params, self.z, self.tokens
        if variant == "mha":
            return attn.mha(p, z, tokens)
        if variant == "nag_mha":
            return attn.nag_mha(p, z, tokens, momentum)
        if variant == "mha2nd_exact":
            return attn.mha2nd_exact(p, z, tokens, self.cache)
        if variant == "mha2nd1st":
            return attn.mha2nd1st(p, z, tokens, self.cache)
        return attn.light_mha2nd1st(p, z, tokens)

    def unit(self, index: int):
        """Every structure REPEATS times; the first call of each is checked.
        The momentum state threads through every nag_mha call."""
        samples, outputs = [], {"nag_state": self.state.momentum}
        for _ in range(self.REPEATS):
            for metric, variant in zip(self.metrics, self.VARIANTS):
                out, *seconds = self.clock.time(self._call, variant, self.state)
                if variant == "nag_mha":
                    out, self.state = out
                    outputs.setdefault("nag_new_state", self.state.momentum)
                self._count(f"{variant}.flops", self.flops[variant])
                self._count(f"{variant}.seconds", seconds[0])
                samples.append(Sample(metric, self.TOKENS, *seconds))
                outputs.setdefault(variant, out)
        return UnitResult(samples, self.REPEATS * len(self.VARIANTS), 0, outputs)

    def check(self, index: int, outputs) -> None:
        check_forward_outputs(self.params, self.z, self.tokens, outputs)


def check_forward_outputs(p, z, tokens, outputs) -> None:
    close(outputs["mha"], checks.ref_mha(p, z, tokens), 1e-10)
    nag_out, nag_state = checks.ref_nag(p, z, tokens, outputs["nag_state"])
    close(outputs["nag_mha"], nag_out, 1e-10)
    close(outputs["nag_new_state"], nag_state, 1e-10)
    close(outputs["mha2nd_exact"], checks.ref_mha2nd_exact(p, z, tokens), 1e-10)
    close(outputs["mha2nd1st"], checks.ref_mha2nd1st(p, z, tokens), 1e-10)
    close(outputs["light_mha2nd1st"], checks.ref_light(p, z, tokens), 1e-10)


def flop_counts(d: int, heads: int, n: int) -> dict[str, float]:
    """Computed multiply-add flops of one forward call, from the shapes:
    projections, scores, weighted sums and the per-head d_h x d_h work.
    Elementwise exp/normalization is not counted."""
    dh = d // heads
    mha = heads * (2 * dh * d + 4 * dh * d * n + 4 * dh * n + 2 * d * dh)
    exact = heads * (2 * dh * d + 2 * dh * d * n + 5 * dh * n
                     + 2 * dh * dh * n + 4 * dh ** 3 + 2 * dh * dh + 2 * d * dh)
    taylor = 2 * d * d + 2 * d * d * n + 10 * d * n + 2 * d * d
    light = mha + heads * 6 * dh * n
    return {"mha": mha, "nag_mha": mha, "mha2nd_exact": exact,
            "mha2nd1st": taylor, "light_mha2nd1st": light}


SECTIONS = {"verify": Verify, "descent": Descent, "loop": Loop,
            "forward": Forward}

# workload -> its own section; the other three sections run one unit a round
WORKLOADS = {"verify-sweep": "verify", "descent-race": "descent",
             "loop-sequence": "loop", "forward-long": "forward"}


def round_plan(workload: str) -> list[str]:
    focus = WORKLOADS[workload]
    return [focus] * SECTIONS[focus].focus_units \
        + [name for name in SECTIONS if name != focus]
