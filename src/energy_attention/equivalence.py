"""Mechanical verification of the attention/energy-descent equivalences.

Builds parameter-tied random instances and checks, numerically and at tight
tolerances, that each attention forward equals one gradient-descent step on
its matching global energy; that Boltzmann weights minimize the explicit
free energy over the simplex; and that the free-energy Hessian has the
advertised sign structure (psd Gram part plus nsd covariance part, with the
inner-product bound purely concave).

Claims are identified by what they assert:

- ``softmax-gd``: square single-head softmax forward == descent step on the
  inner-product bound, under tying value_map = eta * T * W on a common
  sphere.
- ``linear-gd``: (gated) linear attention == descent step on the gated
  square-sum energy.
- ``multihead-gd``: multi-head forward == descent step on the head-averaged
  bound under per-head tying out_h @ value_h = (eta T / H) W1_h^T W2_h.
- ``boltzmann-optimality``: explicit free energy is minimized by the
  Boltzmann weights (grid + random simplex sweeps).
- ``hessian-structure``: sign split of the Hessian, concavity of the bound,
  interior stationary points, and a non-convexity witness.

Every verifier is deterministic in its seed; instance i of a sweep uses
seed + i, which is also the witness seed reported on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from energy_attention import attention as attn
from energy_attention import energy as en
from energy_attention import numkit as nk

EQUIVALENCE_THRESHOLD = 1e-10
OPTIMALITY_THRESHOLD = 1e-9
HESSIAN_THRESHOLD = 1e-8

_REJECTION_BUDGET = 100
_MAX_CONDITION = 1e3
_WITNESS_BUDGET = 32


@dataclass(frozen=True)
class InstanceConfig:
    dim: int = 8
    tokens: int = 16
    heads: int = 2
    radius: float = 1.0
    eta: float = 0.1
    temperature: float = 1.0


@dataclass(frozen=True, eq=False)
class TiedInstance:
    spec: en.EnergySpec
    params: attn.AttentionParams
    z: np.ndarray
    tokens: np.ndarray
    radius: float
    eta: float
    tying: str


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    instances: int
    max_abs_error: float
    threshold: float
    passed: bool
    witness_seed: int | None = None
    details: dict = field(default_factory=dict)


def _report(claim: str, instances: int, max_abs_error: float, threshold: float,
            witness_seed: int | None, details: dict | None = None) -> VerificationReport:
    max_abs_error = float(max_abs_error)
    passed = max_abs_error <= threshold  # a plain bool, as JSON needs
    return VerificationReport(claim, instances, max_abs_error, threshold,
                              passed, None if passed else witness_seed,
                              details or {})


def merge_reports(reports: list[VerificationReport]) -> VerificationReport:
    """Max-reduction over reports of the same claim."""
    if not reports:
        raise ValueError("nothing to merge")
    claim = reports[0].claim
    if any(r.claim != claim for r in reports):
        raise ValueError("cannot merge reports for different claims")
    worst = max(reports, key=lambda r: r.max_abs_error)
    details: dict = {}
    for r in reports:
        details.update(r.details)
    return _report(claim, sum(r.instances for r in reports), worst.max_abs_error,
                   worst.threshold, worst.witness_seed, details)


# ---------------------------------------------------------------------------
# tied-instance construction
# ---------------------------------------------------------------------------

def _well_conditioned(rng: nk.Rng, n: int) -> np.ndarray:
    """Gaussian n x n matrix, redrawn until its condition number is small."""
    for _ in range(_REJECTION_BUDGET):
        w = rng.normal_matrix(n, n, 1.0 / np.sqrt(n))
        gram_eigs = nk.sym_eigvals(w.T @ w)
        if gram_eigs[0] > 0.0 and np.sqrt(gram_eigs[-1] / gram_eigs[0]) < _MAX_CONDITION:
            return w
    raise ValueError("cannot satisfy norm constraints")


def _block_embed(block: np.ndarray, head: int, heads: int) -> np.ndarray:
    """Place a d_h x d_h block into the d_h x d map selecting head ``head``."""
    head_dim = block.shape[0]
    wide = np.zeros((head_dim, head_dim * heads))
    wide[:, head * head_dim:(head + 1) * head_dim] = block
    return wide


def make_tied_instance(rng: nk.Rng, tying: str, dim: int, tokens: int,
                       heads: int = 1, radius: float = 1.0, eta: float = 0.1,
                       temperature: float = 1.0,
                       break_tying: bool = False) -> TiedInstance:
    """Random instance satisfying one tying family's hypotheses exactly.

    softmax: invertible W with query and mapped tokens on the radius sphere
    (tokens are pulled back through W^-1). linear: unconstrained Gaussian
    draws. multihead: block-diagonal per-head maps so that every per-head
    norm constraint is simultaneously satisfiable; the query/key
    factorization uses the per-head maps themselves. The rate ``eta`` (0
    allowed) enters through the tied value or output maps only; the params
    keep their default momentum-variant rate.

    ``break_tying`` deliberately violates the value-map tying (doubling it,
    on the last head for multihead instances) to serve as a negative
    control.
    """
    if tying == "softmax":
        weight = _well_conditioned(rng, dim)
        weight_inv = nk.solve_inverse(weight)
        z = nk.sample_hypersphere(rng, dim, radius)
        cols = [weight_inv @ nk.sample_hypersphere(rng, dim, radius)
                for _ in range(tokens)]
        token_mat = np.stack(cols, axis=1)
        value_scale = eta * temperature * (2.0 if break_tying else 1.0)
        params = attn.single_head_params(np.eye(dim), weight,
                                         value_scale * weight, temperature)
        return TiedInstance(en.elastic_spec(weight, temperature), params, z,
                            token_mat, radius, eta, tying)

    if tying == "linear":
        weight = rng.normal_matrix(dim, dim, 1.0 / np.sqrt(dim))
        z = rng.normal_vector(dim)
        token_mat = rng.normal_matrix(dim, tokens)
        value_scale = eta * temperature * (2.0 if break_tying else 1.0)
        params = attn.single_head_params(np.eye(dim), weight,
                                         value_scale * weight, temperature)
        return TiedInstance(en.square_sum_spec(weight, temperature), params, z,
                            token_mat, radius, eta, tying)

    if tying == "multihead":
        if dim % heads != 0:
            raise ValueError("heads must divide the dimension")
        head_dim = dim // heads
        q_blocks = [_well_conditioned(rng, head_dim) for _ in range(heads)]
        k_blocks = [_well_conditioned(rng, head_dim) for _ in range(heads)]
        w1 = tuple(_block_embed(b, h, heads) for h, b in enumerate(q_blocks))
        w2 = tuple(_block_embed(b, h, heads) for h, b in enumerate(k_blocks))
        z = np.concatenate([
            nk.solve_inverse(q_blocks[h]) @ nk.sample_hypersphere(rng, head_dim, radius)
            for h in range(heads)])
        k_invs = [nk.solve_inverse(b) for b in k_blocks]
        token_mat = np.stack([
            np.concatenate([k_invs[h] @ nk.sample_hypersphere(rng, head_dim, radius)
                            for h in range(heads)])
            for _ in range(tokens)], axis=1)
        out_scale = eta * temperature / heads
        w_out = []
        for h in range(heads):
            scale = out_scale * (2.0 if break_tying and h == heads - 1 else 1.0)
            w_out.append(scale * w1[h].T)
        params = attn.AttentionParams(
            w_query=w1, w_key=w2, w_value=w2, w_out=tuple(w_out),
            score_temp=(temperature,) * heads, bias_temp=(temperature,) * heads)
        return TiedInstance(en.per_head_elastic_spec(w1, w2, temperature),
                            params, z, token_mat, radius, eta, tying)

    raise ValueError(f"unknown tying {tying!r}")


def make_relaxed_instance(rng: nk.Rng, dim: int, tokens: int, heads: int,
                          radius: float, temperature: float
                          ) -> tuple[en.EnergySpec, np.ndarray, np.ndarray]:
    """Per-head elastic instance with all mapped norms inside the radius ball."""
    inst = make_tied_instance(rng, "multihead", dim, tokens, heads, radius,
                              eta=1.0, temperature=temperature)
    n = tokens
    z = inst.z * (0.3 + 0.7 * rng.uniform())
    token_mat = inst.tokens * (0.3 + 0.7 * rng.uniforms(n))
    return inst.spec, z, token_mat


# ---------------------------------------------------------------------------
# per-instance checks
# ---------------------------------------------------------------------------

def check_softmax_instance(inst: TiedInstance) -> float:
    forward = attn.softmax_attention(inst.params, inst.z, inst.tokens)
    bound = en.upper_bound_spec(inst.spec)
    step = inst.z - inst.eta * en.grad_z(bound, inst.z, inst.tokens, "tied")
    return float(np.max(np.abs(forward - step)))


def check_linear_instance(inst: TiedInstance, gates: np.ndarray | None = None) -> float:
    weight = inst.spec.pair.weight
    spec = en.square_sum_spec(weight, inst.spec.temperature, gates)
    forward = attn.linear_attention(inst.params, inst.z, inst.tokens, gates)
    step = inst.z - inst.eta * en.grad_z(spec, inst.z, inst.tokens, "strict")
    return float(np.max(np.abs(forward - step)))


def check_multihead_instance(inst: TiedInstance) -> float:
    forward = attn.mha(inst.params, inst.z, inst.tokens)
    bound = en.upper_bound_spec(inst.spec)
    step = inst.z - inst.eta * en.grad_z(bound, inst.z, inst.tokens, "tied")
    return float(np.max(np.abs(forward - step)))


# ---------------------------------------------------------------------------
# sweep verifiers
# ---------------------------------------------------------------------------

def _sweep(tying: str, heads: int, check, cfg: InstanceConfig, instances: int,
           seed: int, break_tying: bool) -> VerificationReport:
    """The ``<tying>-gd`` claim: the worst ``check(inst, rng)`` over the
    instances of seeds seed + i, where ``rng`` built instance i."""
    worst, witness = 0.0, None
    for i in range(instances):
        rng = nk.Rng(seed + i)
        inst = make_tied_instance(rng, tying, cfg.dim, cfg.tokens, heads,
                                  cfg.radius, cfg.eta, cfg.temperature,
                                  break_tying)
        err = check(inst, rng)
        if err > worst:
            worst, witness = err, seed + i
    return _report(f"{tying}-gd", instances, worst, EQUIVALENCE_THRESHOLD, witness)


def verify_softmax_gd(cfg: InstanceConfig, instances: int, seed: int,
                      break_tying: bool = False) -> VerificationReport:
    return _sweep("softmax", 1, lambda inst, rng: check_softmax_instance(inst),
                  cfg, instances, seed, break_tying)


def verify_linear_gd(cfg: InstanceConfig, instances: int, seed: int,
                     break_tying: bool = False) -> VerificationReport:
    def check(inst, rng):
        gates = rng.uniforms(cfg.tokens)
        return max(check_linear_instance(inst), check_linear_instance(inst, gates))

    return _sweep("linear", 1, check, cfg, instances, seed, break_tying)


def verify_multihead_gd(cfg: InstanceConfig, instances: int, seed: int,
                        break_tying: bool = False) -> VerificationReport:
    return _sweep("multihead", cfg.heads,
                  lambda inst, rng: check_multihead_instance(inst),
                  cfg, instances, seed, break_tying)


def _simplex_grid(resolution: float) -> np.ndarray:
    """All points of the 3-simplex lattice at the given resolution."""
    k = round(1.0 / resolution)
    points = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            points.append((i, j, k - i - j))
    return np.array(points, dtype=np.float64) / k


def verify_boltzmann_optimality(spec: en.EnergySpec, z: np.ndarray,
                                tokens: np.ndarray, grid_res: float = 0.01,
                                dirichlet_draws: int = 10_000,
                                rng: nk.Rng | None = None,
                                seed_label: int | None = None) -> VerificationReport:
    """Check the explicit free energy against its claimed minimum.

    For 3 tokens, sweep the whole simplex lattice at ``grid_res`` and also
    require the lattice argmin to fall within one cell of the Boltzmann
    weights; for up to 8 tokens, sweep ``dirichlet_draws`` uniform simplex
    points. The reported error is the worst shortfall F_min - F(p) (clamped
    at zero), inflated past the threshold if the argmin lands in the wrong
    cell.
    """
    n = tokens.shape[1]
    if n > 8:
        raise ValueError("use sampling mode")
    best = en.helmholtz_free_energy(spec, z, tokens)
    violation = 0.0
    details: dict = {}

    if n == 3:
        grid = _simplex_grid(grid_res)
        values = np.array([en.free_energy(spec, z, tokens, p) for p in grid])
        violation = max(violation, float(np.max(best - values)))
        argmin = grid[int(np.argmin(values))]
        target = en.boltzmann_weights(spec, z, tokens)
        cell_gap = float(np.max(np.abs(argmin - target)))
        details["argmin_cell_gap"] = cell_gap
        if cell_gap > grid_res + 1e-12:
            violation = max(violation, cell_gap)

    if dirichlet_draws > 0:
        rng = rng or nk.Rng(0)
        for _ in range(dirichlet_draws):
            # unit-rate exponentials normalized: uniform on the simplex
            draws = -np.log(1.0 - rng.uniforms(n))
            p = draws / float(np.sum(draws))
            violation = max(violation, best - en.free_energy(spec, z, tokens, p))

    return _report("boltzmann-optimality", 1, max(violation, 0.0),
                   OPTIMALITY_THRESHOLD, seed_label, details)


def boltzmann_suite(cfg: InstanceConfig, instances: int, seed: int,
                    grid_res: float = 0.01,
                    dirichlet_draws: int = 10_000) -> VerificationReport:
    """Random single-head elastic instances at 3 tokens (grid + sampling)
    and 8 tokens (sampling only)."""
    reports = []
    for i in range(instances):
        rng = nk.Rng(seed + i)
        weight = _well_conditioned(rng, cfg.dim)
        for n in (3, 8):
            z = nk.sample_hypersphere(rng, cfg.dim, cfg.radius)
            cols = np.stack([nk.sample_hypersphere(rng, cfg.dim, cfg.radius)
                             for _ in range(n)], axis=1)
            reports.append(verify_boltzmann_optimality(
                en.elastic_spec(weight, cfg.temperature), z, cols,
                grid_res=grid_res if n == 3 else 0.0,
                dirichlet_draws=dirichlet_draws, rng=rng, seed_label=seed + i))
    return merge_reports(reports)


def _indefinite(hessian: np.ndarray) -> bool:
    """True when the Hessian has eigenvalues of both signs past the threshold."""
    eigs = nk.sym_eigvals(hessian)
    return bool(eigs[0] <= -HESSIAN_THRESHOLD and eigs[-1] >= HESSIAN_THRESHOLD)


def verify_hessian_structure(cfg: InstanceConfig, instances: int,
                             seed: int) -> VerificationReport:
    """Sign structure of the Hessian split plus a non-convexity witness.

    Per instance: the nsd part must have no eigenvalue above the threshold
    and the psd part none below its negative; the inner-product bound's
    Hessian must be entirely non-positive; the Hessian must match the
    finite-difference Jacobian of the gradient (relative 1e-4, folded into
    the report scale); and at a fixed-point-constructed interior stationary
    point the summed per-head gradient must vanish. Every third instance is
    drawn at a tenth of the temperature: sharp instances are where the free
    energy stops being convex, and one must exhibit a genuinely indefinite
    Hessian. When no instance of the sweep does (a sweep of fewer than
    three instances has no sharp one), further sharp instances at seeds
    seed + instances, seed + instances + 1, ... are drawn for that test
    alone, up to ``_WITNESS_BUDGET`` of them.
    """
    worst, witness = 0.0, None
    indefinite_seed = None
    stationary_checked = 0
    stationary_skipped = 0
    fd_worst = 0.0
    for i in range(instances):
        inst_seed = seed + i
        rng = nk.Rng(inst_seed)
        temp = cfg.temperature * (0.1 if i % 3 == 2 else 1.0)
        spec, z, token_mat = make_relaxed_instance(
            rng, cfg.dim, cfg.tokens, cfg.heads, cfg.radius, temp)

        psd, nsd = en.hessian_split(spec, z, token_mat)
        nsd_eigs = nk.sym_eigvals(nsd)
        psd_eigs = nk.sym_eigvals(psd)
        err = max(float(nsd_eigs[-1]), -float(psd_eigs[0]), 0.0)

        bound_hess = en.hessian_z(en.upper_bound_spec(spec), z, token_mat)
        err = max(err, float(nk.sym_eigvals(bound_hess)[-1]))

        if indefinite_seed is None and _indefinite(psd + nsd):
            indefinite_seed = inst_seed

        fd_hess = nk.fd_jacobian(
            lambda point: en.grad_z(spec, point, token_mat, "strict"), z)
        scale = max(float(np.max(np.abs(psd + nsd))), 1e-12)
        fd_rel = float(np.max(np.abs(fd_hess - (psd + nsd)))) / scale
        fd_worst = max(fd_worst, fd_rel)
        err = max(err, fd_rel * (HESSIAN_THRESHOLD / 1e-4))

        if temp == cfg.temperature:
            fixed = en.stationary_point(spec, z, token_mat)
            if fixed is None:
                stationary_skipped += 1
            else:
                stationary_checked += 1
                resid = spec.heads * en.grad_z(spec, fixed, token_mat, "strict")
                err = max(err, float(np.linalg.norm(resid)))

        if err > worst:
            worst, witness = err, inst_seed

    for extra_seed in range(seed + instances, seed + instances + _WITNESS_BUDGET):
        if indefinite_seed is not None:
            break
        spec, z, token_mat = make_relaxed_instance(
            nk.Rng(extra_seed), cfg.dim, cfg.tokens, cfg.heads, cfg.radius,
            cfg.temperature * 0.1)
        psd, nsd = en.hessian_split(spec, z, token_mat)
        if _indefinite(psd + nsd):
            indefinite_seed = extra_seed

    details = {
        "indefinite_witness_seed": indefinite_seed,
        "stationary_checked": stationary_checked,
        "stationary_skipped": stationary_skipped,
        "fd_max_relative_error": fd_worst,
    }
    if indefinite_seed is None:
        worst = max(worst, 10.0 * HESSIAN_THRESHOLD)
    return _report("hessian-structure", instances, worst, HESSIAN_THRESHOLD,
                   witness, details)


# claim -> (cfg, instances, seed, break_tying) -> report; each verifier is
# looked up when called, so a patched or traced one is the one that runs
VERIFIERS = {
    "softmax-gd": lambda cfg, n, seed, tying: verify_softmax_gd(cfg, n, seed, tying),
    "linear-gd": lambda cfg, n, seed, tying: verify_linear_gd(cfg, n, seed, tying),
    "multihead-gd": lambda cfg, n, seed, tying: verify_multihead_gd(
        cfg, n, seed, tying),
    # the simplex sweep is costly: it runs a twentieth of the instances
    "boltzmann-optimality": lambda cfg, n, seed, tying: boltzmann_suite(
        cfg, max(1, n // 20), seed),
    "hessian-structure": lambda cfg, n, seed, tying: verify_hessian_structure(
        cfg, n, seed),
}
CLAIMS = tuple(VERIFIERS)


def verify_all(cfg: InstanceConfig, instances: int, seed: int,
               break_tying: bool = False) -> list[VerificationReport]:
    return [verify(cfg, instances, seed, break_tying)
            for verify in VERIFIERS.values()]
