"""Optimizers minimizing a global energy directly over the query point.

Vanilla, momentum and Nesterov first-order steps plus per-subspace Newton
steps (exact bracket inverse or its first-order Taylor truncation), all
producing an auditable ``DescentTrace``. The learning rate multiplies the
momentum in the position update; the momentum itself accumulates raw
gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from energy_attention import energy as en
from energy_attention import numkit as nk


@dataclass(frozen=True)
class Vanilla:
    eta: float

    label = "vanilla"


@dataclass(frozen=True)
class Momentum:
    eta: float
    beta: float

    label = "momentum"


@dataclass(frozen=True)
class Nag:
    """Nesterov accelerated gradient in the raw-gradient parametrization.

    The gradient is taken at the point the momentum step is about to reach:
    ``p <- beta p + grad E(z - eta beta p)``, then ``z <- z - eta p``.
    """

    eta: float
    beta: float

    label = "nag"


@dataclass(frozen=True)
class NewtonSubspace:
    eta: float = 1.0
    mode: str = "exact"  # "exact" | "taylor1"
    eps: float = 0.0

    @property
    def label(self) -> str:
        return f"newton-{self.mode}"


def _validate(opt) -> None:
    if not isinstance(opt, (Vanilla, Momentum, Nag, NewtonSubspace)):
        raise ValueError(f"unknown optimizer {type(opt).__name__}")
    if not (math.isfinite(opt.eta) and opt.eta > 0.0):
        raise ValueError("learning rate must be finite and > 0")
    beta = getattr(opt, "beta", 0.0)
    if not 0.0 <= beta < 1.0:
        raise ValueError("momentum coefficient must lie in [0, 1)")
    if isinstance(opt, NewtonSubspace):
        if opt.mode not in ("exact", "taylor1"):
            raise ValueError(f"unknown Newton mode {opt.mode!r}")
        if not (math.isfinite(opt.eps) and opt.eps >= 0.0):
            raise ValueError("regularization must be finite and >= 0")


@dataclass
class StepRecord:
    step: int
    z: np.ndarray
    energy: float
    grad_norm: float


@dataclass
class DescentTrace:
    steps: list[StepRecord]
    metadata: dict = field(default_factory=dict)

    @property
    def stop_reason(self) -> str:
        return self.metadata.get("stop_reason", "unknown")

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.steps])

    def iters_to_tol(self, tol: float) -> int | None:
        for record in self.steps:
            if record.grad_norm < tol:
                return record.step
        return None

    def rows(self) -> list[tuple[int, float, float]]:
        return [(s.step, s.energy, s.grad_norm) for s in self.steps]


def _newton_direction(spec: en.EnergySpec, core, mode: str, eps: float):
    """``(z, weights) -> (1/H) sum_h M_h B_h^-1 (q_h - kbar_h)``, or its
    Taylor truncation, from the descent's energy core and the Boltzmann
    weights at ``z``; M_h is the range-space pseudoinverse of W1_h, the
    identity for the full-space elastic energy."""
    pair = spec.pair
    if isinstance(pair, en.Elastic):
        maps = np.eye(pair.weight.shape[0])[None]
    elif isinstance(pair, en.PerHeadElastic):
        maps = np.stack([nk.range_space_pinv(w) for w in pair.w_query])
    else:
        raise ValueError("Newton preconditioning requires an elastic energy")
    heads = spec.heads
    temps = np.full((heads, 1), spec.temperature)

    def direction(z, weights):
        queries = z if core.query_map is None else core.query_map @ z
        steps = en.newton_step(queries.reshape(heads, -1), core.head_keys,
                               weights.reshape(heads, -1), temps, mode, eps)
        return np.einsum("hdk,hk->d", maps, steps) / heads

    return direction


def descend(spec: en.EnergySpec, optimizer, z0: np.ndarray, tokens: np.ndarray,
            max_iters: int = 1000, tol: float = 1e-8,
            convention: str = "strict",
            project_radius: float | None = None) -> DescentTrace:
    """Iterate the optimizer until the gradient norm drops below ``tol``.

    Every step records the matching energy value and gradient norm; step 0
    is the initial point. A non-finite energy truncates the trace with stop
    reason "diverged"; an uninvertible Newton bracket (without eps) stops
    with "singular". ``project_radius`` optionally rescales each iterate back
    to that norm (radial projection), off by default. A start point or
    tokens that do not fit the spec's dimensions, or are not finite, raise
    ``ValueError``.
    """
    _validate(optimizer)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tolerance must be finite and > 0")
    z, tokens = en._inputs(spec, z0, tokens)
    # one core per descent; each iterate's evaluation also yields the
    # Boltzmann weights the Newton bracket needs
    core = en._Core(spec, tokens, convention)
    if isinstance(optimizer, NewtonSubspace):
        newton = _newton_direction(spec, core, optimizer.mode, optimizer.eps)

    def measure(point):
        value, grad, weights = core.measure(point)
        return float(value), float(np.linalg.norm(grad)), grad, weights

    value, grad_norm, grad, weights = measure(z)
    steps = [StepRecord(0, z.copy(), value, grad_norm)]
    metadata = {
        "energy": type(spec.pair).__name__,
        "global_energy": type(spec.global_energy).__name__,
        "optimizer": optimizer.label,
        "eta": optimizer.eta,
        "tol": tol,
        "max_iters": max_iters,
        "convention": convention,
        "stop_reason": "max_iters",
    }
    if grad_norm < tol:
        metadata["stop_reason"] = "converged"
        return DescentTrace(steps, metadata)

    # heavy ball: vanilla is beta = 0; Nesterov takes its gradient where the
    # momentum step is about to land
    momentum = np.zeros_like(z)
    eta, beta = optimizer.eta, getattr(optimizer, "beta", 0.0)
    lookahead = isinstance(optimizer, Nag) and beta != 0.0
    # overflow on a diverging run is detected and reported, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iters + 1):
            if isinstance(optimizer, NewtonSubspace):
                try:
                    z = z - eta * newton(z, weights)
                except ValueError:
                    metadata["stop_reason"] = "singular"
                    break
            else:
                if lookahead:
                    grad = core.measure(z - eta * beta * momentum)[1]
                momentum = grad if beta == 0.0 else beta * momentum + grad
                z = z - eta * momentum
            if project_radius is not None:
                norm = float(np.linalg.norm(z))
                if norm > 0.0:
                    z = (project_radius / norm) * z
            if not np.all(np.isfinite(z)):
                metadata["stop_reason"] = "diverged"
                break
            value, grad_norm, grad, weights = measure(z)
            if not np.isfinite(value) or not np.isfinite(grad_norm):
                metadata["stop_reason"] = "diverged"
                break
            steps.append(StepRecord(k, z.copy(), value, grad_norm))
            if grad_norm < tol:
                metadata["stop_reason"] = "converged"
                break
    return DescentTrace(steps, metadata)


def monotone_descend(spec: en.EnergySpec, z0: np.ndarray, tokens: np.ndarray,
                     steps: int = 50, start_eta: float = 1.0,
                     min_eta: float = 1e-6, slack: float = 1e-12) -> DescentTrace:
    """Halve the rate from ``start_eta`` until the energy is non-increasing.

    The accepted rate is recorded in the trace metadata as "monotone_eta".
    """
    eta = start_eta
    while eta >= min_eta:
        trace = descend(spec, Vanilla(eta), z0, tokens, max_iters=steps, tol=1e-300)
        energies = trace.energies
        if trace.stop_reason != "diverged" and np.all(np.diff(energies) <= slack):
            trace.metadata["monotone_eta"] = eta
            return trace
        eta *= 0.5
    raise ValueError("no monotone rate found above the floor")


def compare_optimizers(spec: en.EnergySpec, z0: np.ndarray, tokens: np.ndarray,
                       optimizers, budget: int, tol: float) -> list[dict]:
    """Run each optimizer from the same start; one summary row per optimizer.

    ``iters_to_tol`` is the first step whose gradient norm is below ``tol``,
    or the budget when that never happens. Rows are sorted by iteration
    count with ties broken by final energy (stable for exact ties).
    """
    rows = []
    for opt in optimizers:
        trace = descend(spec, opt, z0, tokens, max_iters=budget, tol=tol)
        iters = trace.iters_to_tol(tol)
        rows.append({
            "optimizer": opt.label,
            "iters_to_tol": budget if iters is None else iters,
            "final_energy": trace.steps[-1].energy,
            "stop_reason": trace.stop_reason,
        })
    rows.sort(key=lambda r: (r["iters_to_tol"], r["final_energy"]))
    return rows


def conditioned_multihead_instance(seed: int, dim: int, tokens: int, heads: int,
                                   temperature: float = 1.0
                                   ) -> tuple[en.EnergySpec, np.ndarray, np.ndarray]:
    """Per-head elastic instance with orthonormal block-diagonal maps.

    Random per-head maps at heads * head_dim = dim barely span the space,
    leaving near-zero curvature directions that stall every first-order
    method; block rotations make the query-side Gram term exactly I/heads,
    so iteration counts to a gradient tolerance are meaningful and
    comparable across optimizers.
    """
    if dim % heads != 0:
        raise ValueError("heads must divide the dimension")
    head_dim = dim // heads
    rng = nk.Rng(seed)

    def block_diag_rows():
        maps = []
        for h in range(heads):
            wide = np.zeros((head_dim, dim))
            wide[:, h * head_dim:(h + 1) * head_dim] = \
                nk.orthonormal_rows(rng, head_dim, head_dim)
            maps.append(wide)
        return tuple(maps)

    spec = en.per_head_elastic_spec(block_diag_rows(), block_diag_rows(),
                                    temperature)
    z0 = nk.sample_hypersphere(rng, dim, 1.0)
    token_mat = np.stack(
        [nk.sample_hypersphere(rng, dim, 1.0) for _ in range(tokens)], axis=1)
    return spec, z0, token_mat
