"""Weight-shared loop forward and alternating-optimization training.

The loop forward applies one attention-as-descent step to every position
against its attended set (the causal prefix or the whole set), then
synchronizes the token matrix with the updated positions. Updates are
Jacobi-style: within an iteration every position reads the same frozen
token matrix, so the position order is irrelevant.

Training couples the token energy with a cross-entropy head: positions (or
a designated classification query) descend the energy, while the shared
energy map and the projection head descend their own gradients, one
averaged step per epoch. Both trainers share one epoch loop over per-sample
position blocks: per sample and epoch, one masked block evaluation gives
every position's energy and Boltzmann weights, the map gradient is one
formula over those weights, and the cross-entropy is a column-wise
log-softmax. Datasets are checked once, when training starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    evaluation gives the gradients of the next step. Tokens that are not a
    finite d x N matrix with N >= 1 raise ``ValueError``, as does a spec
    whose query and token dimensions differ.
    """
    dim, token_dim = en._pair_dims(cfg.spec.pair)
    if dim != token_dim:
        raise ValueError(f"loop query and token dimensions differ: {dim} != {token_dim}")
    tokens = nk.as_tokens(tokens0, dim).copy()
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
                        dim: int, radius: float = 1.0
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Binary classification toy set: token clouds (noise scale 0.3) around
    two antipodal directions on the radius sphere, labels one-hot."""
    anchor = nk.sample_hypersphere(rng, dim, 1.0)
    data = []
    for label, center in enumerate((anchor, -anchor)):
        for _ in range(samples_per_class):
            cols = []
            for _ in range(tokens_per_sample):
                noisy = center + 0.3 * rng.normal_vector(dim)
                cols.append(radius * noisy / float(np.linalg.norm(noisy)))
            data.append((np.stack(cols, axis=1), one_hot(label, 2)))
    return data


# ---------------------------------------------------------------------------
# alternating optimization
# ---------------------------------------------------------------------------

def _checked(cfg: LoopConfig, dataset, per_position: bool) -> list:
    """The samples as float arrays, checked once: finite d x N tokens with
    N >= 1, labels on the simplex, length C per sample or C x N with
    ``per_position``, one class count C throughout and a d x C head; any
    other dataset raises ``ValueError``."""
    if not dataset:
        raise ValueError("dataset must be nonempty")
    if not isinstance(cfg.spec.pair, (en.Elastic, en.InnerProduct)):
        raise ValueError("training supports single-head Elastic or InnerProduct "
                         f"pair energies, not {type(cfg.spec.pair).__name__}")
    dim = cfg.spec.pair.weight.shape[0]
    checked = []
    for index, (tokens, labels) in enumerate(dataset):
        try:
            tokens = nk.as_tokens(tokens, dim)
        except ValueError as err:
            raise ValueError(f"sample {index}: {err}") from None
        labels = np.asarray(labels, dtype=np.float64)
        positions = tokens.shape[1:] if per_position else ()
        if labels.ndim == 0 or labels.shape[1:] != positions:
            layout = "a C x N matrix" if per_position else "a length-C vector"
            raise ValueError(f"sample {index}: labels must be {layout}, "
                             f"got shape {labels.shape} for {tokens.shape[1]} tokens")
        classes = len(checked[0][1]) if checked else len(labels)
        if len(labels) != classes:
            raise ValueError(f"sample {index} has {len(labels)} classes, "
                             f"sample 0 has {classes}")
        if not (np.all(labels >= -1e-10)
                and np.all(np.abs(labels.sum(axis=0) - 1.0) <= 1e-10)):
            raise ValueError(f"sample {index}: labels off the probability simplex")
        checked.append((tokens, labels))
    shape = (dim, len(checked[0][1]))
    if cfg.head is not None and np.shape(cfg.head) != shape:
        raise ValueError(f"head must be a {shape[0]} x {shape[1]} (dim x classes) "
                         f"matrix, got shape {np.shape(cfg.head)}")
    return checked


def _head_terms(head: np.ndarray, z: np.ndarray, labels: np.ndarray
                ) -> tuple[float, np.ndarray]:
    """Summed cross-entropy of the columns of head^T z (d x Q) against the
    label columns (C x Q), and its gradient in the head."""
    logits = head.T @ z
    probs, lse = nk.softmax_lse_rows(logits.T)
    return float(np.sum(lse) - np.sum(labels * logits)), z @ (probs - labels.T)


def _alternate(cfg: LoopConfig, blocks, epochs: int, advance) -> LoopTrace:
    """The epoch loop both trainers share.

    A block is one sample's positions (d x Q), tokens (d x N), token mask
    (Q x N, True at the pairs left out, or None) and labels (C x Q);
    ``blocks`` are the first ones. ``advance(spec, blocks)`` returns the
    next epoch's blocks under the map ``spec`` and whether a forward
    diverged. Per epoch the map and the head each take one ``cfg.eta`` step
    on their gradients averaged over all positions; record 0 is the
    initialization and the final positions become the iterates.
    """
    spec = cfg.spec
    weight = spec.pair.weight.copy()
    head = (np.zeros((weight.shape[0], blocks[0][3].shape[0])) if cfg.head is None
            else nk.as_matrix(cfg.head).copy())

    def record(epoch: int) -> EpochRecord:
        """One masked block evaluation per sample."""
        ce = sum(_head_terms(head, z, labels)[0] for z, _, _, labels in blocks)
        fe = sum(float(np.sum(en._Core(spec, tokens).value(z, mask)[0]))
                 for z, tokens, mask, _ in blocks)
        return EpochRecord(epoch, float(ce), fe, float(np.linalg.norm(weight)),
                           float(np.linalg.norm(head)))

    trace = LoopTrace(epochs=[record(0)])
    positions = sum(z.shape[1] for z, *_ in blocks)
    for epoch in range(1, epochs + 1):
        blocks, diverged = advance(spec, blocks)
        if diverged:
            trace.stop_reason = "diverged"
            return trace
        weight_grad = sum(en._map_grad(spec, z, tokens, mask)
                          for z, tokens, mask, _ in blocks)
        head_grad = sum(_head_terms(head, z, labels)[1]
                        for z, _, _, labels in blocks)
        weight = weight - cfg.eta * weight_grad / positions
        spec = en.EnergySpec(type(spec.pair)(weight), spec.global_energy)
        head = head - cfg.eta * head_grad / positions
        current = record(epoch)
        if not (np.isfinite(current.cross_entropy) and np.isfinite(current.free_energy)):
            trace.stop_reason = "diverged"
            return trace
        trace.epochs.append(current)
    trace.final_weight = weight
    trace.final_head = head
    trace.iterates = [z for z, *_ in blocks]
    return trace


def alternating_optimize(cfg: LoopConfig, dataset, epochs: int) -> LoopTrace:
    """Single-attention-layer training as alternating descent.

    Each sample carries a token matrix and a one-hot label; a classification
    query per sample (initialized to the sample's token mean) attends to all
    of its tokens. Per epoch, at rate ``cfg.eta``: one strict descent step on
    every query, one dataset-averaged step on the shared energy map and one
    on the projection head. The recorded objective is total cross-entropy
    plus total free energy at the end of the epoch (record 0: the
    initialization); the final queries are the one iterate, d x samples.
    """
    dataset = _checked(cfg, dataset, per_position=False)

    def advance(spec, blocks):
        return [(z - cfg.eta * en.gradient_engine(spec, tokens)(z)[1], tokens, None, labels)
                for z, tokens, _, labels in blocks], False

    first = [(tokens.mean(axis=1, keepdims=True), tokens, None, label[:, None])
             for tokens, label in dataset]
    trace = _alternate(cfg, first, epochs, advance)
    trace.iterates = [np.hstack(trace.iterates)] if trace.iterates else []
    return trace


def loop_alternating_optimize(cfg: LoopConfig, dataset, epochs: int) -> LoopTrace:
    """Loop-transformer training pass, repeated ``epochs`` times.

    Each sample is a token sequence with per-position one-hot labels
    (classes x positions). A pass runs the full loop forward from the raw
    tokens under the current energy map, then takes one averaged descent
    step on the map (every final position against its attended set in the
    final iterate) and one on the projection head, all at rate ``cfg.eta``.
    The iterates are the samples' final loop iterates.
    """
    dataset = _checked(cfg, dataset, per_position=True)

    # position q attends to tokens 0..q when causal
    masks = [~np.tri(t.shape[1], dtype=bool) if cfg.causal else None for t, _ in dataset]

    def forwards(spec):
        """Every sample's final loop iterate as its block, and whether one diverged."""
        live = replace(cfg, spec=spec)
        traces = [loop_forward(live, tokens) for tokens, _ in dataset]
        return ([(t.iterates[-1], t.iterates[-1], mask, labels)
                 for t, mask, (_, labels) in zip(traces, masks, dataset)],
                any(t.stop_reason == "diverged" for t in traces))

    # the initial map's forwards give record 0 and also epoch 1's blocks
    first, diverged = forwards(cfg.spec)
    return _alternate(cfg, first, epochs, lambda spec, blocks: (
        (blocks, diverged) if spec is cfg.spec else forwards(spec)))
