"""Weight-shared loop forward and alternating-optimization training.

The loop forward applies one attention-as-descent step to every position
against its attended set (the causal prefix or the whole set), then
synchronizes the token matrix with the updated positions. Updates are
Jacobi-style: within an iteration every position reads the same frozen
token matrix, so the position order is irrelevant.

Training couples the token energy with a cross-entropy head: positions (or
a designated classification query) descend the energy, while the shared
energy map and the projection head descend their own gradients, one
averaged step per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from energy_attention import energy as en
from energy_attention import numkit as nk


@dataclass(frozen=True, eq=False)
class LoopConfig:
    spec: en.EnergySpec
    iterations: int
    eta: float
    causal: bool = True
    convention: str = "tied"
    head: np.ndarray | None = None  # class projection, dim x classes

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iteration count must be nonnegative")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("learning rate must be finite and > 0")


@dataclass
class EpochRecord:
    epoch: int
    cross_entropy: float
    free_energy: float
    weight_norm: float
    head_norm: float

    @property
    def total(self) -> float:
        return self.cross_entropy + self.free_energy


@dataclass
class LoopTrace:
    iterates: list[np.ndarray] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    stop_reason: str = "completed"
    epochs: list[EpochRecord] = field(default_factory=list)
    final_weight: np.ndarray | None = None
    final_head: np.ndarray | None = None


def _attended(tokens: np.ndarray, position: int, causal: bool) -> np.ndarray:
    return tokens[:, :position + 1] if causal else tokens


def _total_energy(cfg: LoopConfig, tokens: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed per-position energy of a token matrix and every position's
    gradient (d x N), from one block evaluation of all positions against
    their attended sets."""
    evaluate = en.gradient_engine(cfg.spec, tokens, cfg.convention)
    n = tokens.shape[1]
    values, grads = evaluate(tokens, np.arange(1, n + 1) if cfg.causal else None)
    return float(np.sum(values)), grads


def loop_forward(cfg: LoopConfig, tokens0: np.ndarray) -> LoopTrace:
    """Run the iterations on a token matrix, recording every iterate.

    Positions initialize to the input tokens. Each iteration moves every
    position by one descent step against the frozen previous matrix, then
    the matrix is replaced by the updated positions. The recorded objective
    is the summed per-position energy against the attended sets (the causal
    prefix including the position itself, or the whole matrix); the same
    evaluation gives the gradients of the next step.
    """
    tokens = nk.as_matrix(tokens0).copy()
    objective, grads = _total_energy(cfg, tokens)
    trace = LoopTrace([tokens.copy()], [objective])
    for _ in range(cfg.iterations):
        updated = tokens - cfg.eta * grads
        objective, grads = _total_energy(cfg, updated)
        if not np.isfinite(objective) or not np.all(np.isfinite(updated)):
            trace.stop_reason = "diverged"
            return trace
        tokens = updated
        trace.iterates.append(tokens.copy())
        trace.objectives.append(objective)
    return trace


# ---------------------------------------------------------------------------
# cross-entropy head
# ---------------------------------------------------------------------------

def cross_entropy(logits: np.ndarray, target: np.ndarray) -> float:
    """-sum_c target_c log softmax(logits)_c, evaluated in log space."""
    logits = nk.as_vector(logits)
    target = nk.as_vector(target, dim=logits.shape[0])
    if np.any(target < -1e-10) or abs(float(np.sum(target)) - 1.0) > 1e-10:
        raise ValueError("target off the probability simplex")
    return nk.logsumexp(logits) - float(target @ logits)


def ce_grad_head(head: np.ndarray, z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of cross_entropy(head^T z, target) in the head matrix:
    z (softmax(head^T z) - target)^T."""
    return np.outer(z, nk.softmax(head.T @ z) - target)


def one_hot(label: int, classes: int) -> np.ndarray:
    v = np.zeros(classes)
    v[label] = 1.0
    return v


def two_cluster_dataset(rng: nk.Rng, samples_per_class: int, tokens_per_sample: int,
                        dim: int, radius: float = 1.0, spread: float = 0.3
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Binary classification toy set: token clouds around two antipodal
    directions on the radius sphere, labels one-hot."""
    anchor = nk.sample_hypersphere(rng, dim, 1.0)
    data = []
    for label, center in enumerate((anchor, -anchor)):
        for _ in range(samples_per_class):
            cols = []
            for _ in range(tokens_per_sample):
                noisy = center + spread * rng.normal_vector(dim)
                cols.append(radius * noisy / float(np.linalg.norm(noisy)))
            data.append((np.stack(cols, axis=1), one_hot(label, 2)))
    return data


# ---------------------------------------------------------------------------
# alternating optimization
# ---------------------------------------------------------------------------

def _rebuild_spec(spec: en.EnergySpec, weight: np.ndarray) -> en.EnergySpec:
    return en.EnergySpec(type(spec.pair)(weight), spec.global_energy)


def _trainable_weight(spec: en.EnergySpec) -> np.ndarray:
    """A copy of the energy map that training updates."""
    if not isinstance(spec.pair, (en.Elastic, en.InnerProduct)):
        raise ValueError("training supports single-head Elastic or InnerProduct "
                         f"pair energies, not {type(spec.pair).__name__}")
    return spec.pair.weight.copy()


def _require_head(cfg: LoopConfig, classes: int) -> np.ndarray:
    if cfg.head is not None:
        return nk.as_matrix(cfg.head).copy()
    return np.zeros((cfg.spec.pair.weight.shape[0], classes))


def alternating_optimize(cfg: LoopConfig, dataset, epochs: int,
                         eta: float | None = None,
                         convention: str = "strict") -> LoopTrace:
    """Single-attention-layer training as alternating descent.

    Each sample carries a token matrix and a one-hot label; a classification
    query per sample (initialized to the sample's token mean) attends to all
    of its tokens. Per epoch: one descent step on every query, then one
    dataset-averaged step on the shared energy map, then one on the
    projection head. The recorded objective is total cross-entropy plus
    total free energy, evaluated at the end of the epoch; record 0 is the
    initialization.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    eta = cfg.eta if eta is None else eta
    classes = dataset[0][1].shape[0]
    weight = _trainable_weight(cfg.spec)
    head = _require_head(cfg, classes)
    spec = _rebuild_spec(cfg.spec, weight)
    queries = [np.mean(tokens, axis=1) for tokens, _ in dataset]

    def snapshot(epoch: int) -> EpochRecord:
        ce = sum(cross_entropy(head.T @ q, y) for q, (_, y) in zip(queries, dataset))
        fe = sum(en.energy_value(spec, q, tokens)
                 for q, (tokens, _) in zip(queries, dataset))
        return EpochRecord(epoch, float(ce), float(fe),
                           float(np.linalg.norm(weight)),
                           float(np.linalg.norm(head)))

    trace = LoopTrace(epochs=[snapshot(0)])
    for epoch in range(1, epochs + 1):
        for idx, (tokens, _) in enumerate(dataset):
            queries[idx] = queries[idx] - eta * en.grad_z(
                spec, queries[idx], tokens, convention)
        weight_grad = np.mean(
            [en.grad_weight(spec, q, tokens)
             for q, (tokens, _) in zip(queries, dataset)], axis=0)
        weight = weight - eta * weight_grad
        spec = _rebuild_spec(spec, weight)
        head_grad = np.mean(
            [ce_grad_head(head, q, y) for q, (_, y) in zip(queries, dataset)], axis=0)
        head = head - eta * head_grad
        record = snapshot(epoch)
        if not (np.isfinite(record.cross_entropy) and np.isfinite(record.free_energy)):
            trace.stop_reason = "diverged"
            return trace
        trace.epochs.append(record)
    trace.final_weight = weight
    trace.final_head = head
    trace.iterates = [np.stack(queries, axis=1)] if queries else []
    return trace


def loop_alternating_optimize(cfg: LoopConfig, dataset, epochs: int,
                              eta: float | None = None) -> LoopTrace:
    """Loop-transformer training pass, repeated ``epochs`` times.

    Each sample is a token sequence with per-position one-hot labels
    (classes x positions). A pass runs the full loop forward from the raw
    tokens under the current energy map, then takes one averaged descent
    step on the map (using the final iterate and its attended sets) and one
    on the projection head.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    eta = cfg.eta if eta is None else eta
    classes = dataset[0][1].shape[0]
    weight = _trainable_weight(cfg.spec)
    head = _require_head(cfg, classes)
    spec = _rebuild_spec(cfg.spec, weight)

    def run_forward(tokens):
        live = LoopConfig(spec, cfg.iterations, eta, cfg.causal, cfg.convention)
        return loop_forward(live, tokens)

    def snapshot(epoch: int, finals) -> EpochRecord:
        ce = 0.0
        fe = 0.0
        for final, (_, labels) in zip(finals, dataset):
            for i in range(final.shape[1]):
                ce += cross_entropy(head.T @ final[:, i], labels[:, i])
            fe += _total_energy(LoopConfig(spec, 0, eta, cfg.causal), final)[0]
        return EpochRecord(epoch, float(ce), float(fe),
                           float(np.linalg.norm(weight)),
                           float(np.linalg.norm(head)))

    finals = [run_forward(tokens).iterates[-1] for tokens, _ in dataset]
    trace = LoopTrace(epochs=[snapshot(0, finals)])
    for epoch in range(1, epochs + 1):
        finals = []
        for tokens, _ in dataset:
            forward = run_forward(tokens)
            if forward.stop_reason == "diverged":
                trace.stop_reason = "diverged"
                return trace
            finals.append(forward.iterates[-1])
        weight_grads = []
        head_grads = []
        for final, (_, labels) in zip(finals, dataset):
            for i in range(final.shape[1]):
                attended = _attended(final, i, cfg.causal)
                weight_grads.append(en.grad_weight(spec, final[:, i], attended))
                head_grads.append(ce_grad_head(head, final[:, i], labels[:, i]))
        weight = weight - eta * np.mean(weight_grads, axis=0)
        spec = _rebuild_spec(spec, weight)
        head = head - eta * np.mean(head_grads, axis=0)
        record = snapshot(epoch, finals)
        if not (np.isfinite(record.cross_entropy) and np.isfinite(record.free_energy)):
            trace.stop_reason = "diverged"
            return trace
        trace.epochs.append(record)
    trace.final_weight = weight
    trace.final_head = head
    trace.iterates = finals
    return trace
