import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from energy_attention import attention as attn
from energy_attention import descent as de
from energy_attention import energy as en
from energy_attention import equivalence as eq
from energy_attention import loopsim as ls
from energy_attention import numkit as nk


def _tied_loop_setup(seed, n=6, eta=0.1, temp=1.0):
    """Inner-product spec plus the matching tied attention params."""
    inst = eq.make_tied_instance(nk.Rng(seed), "softmax", 8, n, 1, 1.0, eta, temp)
    bound = en.upper_bound_spec(inst.spec)
    return bound, inst


# ---------------------------------------------------------------------------
# loop forward
# ---------------------------------------------------------------------------

def test_loop_zero_iterations_echoes_input():
    bound, inst = _tied_loop_setup(0)
    cfg = ls.LoopConfig(bound, 0, 0.1)
    trace = ls.loop_forward(cfg, inst.tokens)
    assert len(trace.iterates) == 1
    np.testing.assert_array_equal(trace.iterates[0], inst.tokens)
    assert len(trace.objectives) == 1


def test_loop_single_iteration_equals_batched_tied_attention():
    bound, inst = _tied_loop_setup(1, n=7)
    cfg = ls.LoopConfig(bound, 1, inst.eta, causal=False, convention="tied")
    trace = ls.loop_forward(cfg, inst.tokens)
    batched = np.stack(
        [attn.softmax_attention(inst.params, inst.tokens[:, i], inst.tokens)
         for i in range(7)], axis=1)
    assert np.max(np.abs(trace.iterates[1] - batched)) < 1e-12


def test_loop_zero_value_tying_freezes_tokens():
    # zero energy map: the tied gradient vanishes, every iterate equals input
    spec = en.inner_product_spec(np.zeros((4, 4)), 1.0)
    cfg = ls.LoopConfig(spec, 3, 0.2, convention="tied")
    tokens = nk.Rng(2).normal_matrix(4, 5)
    trace = ls.loop_forward(cfg, tokens)
    for iterate in trace.iterates:
        np.testing.assert_allclose(iterate, tokens, atol=1e-15)


def test_loop_causal_position_ignores_future_tokens():
    bound, inst = _tied_loop_setup(3, n=6)
    cfg = ls.LoopConfig(bound, 2, 0.05, causal=True, convention="tied")
    base = ls.loop_forward(cfg, inst.tokens)
    perturbed_tokens = inst.tokens.copy()
    perturbed_tokens[:, 4:] += 0.7
    perturbed = ls.loop_forward(cfg, perturbed_tokens)
    for k in range(1, 3):
        np.testing.assert_allclose(base.iterates[k][:, :4],
                                   perturbed.iterates[k][:, :4], atol=1e-14)


def test_loop_jacobi_updates_read_frozen_matrix():
    # recomputing every position directly from the frozen previous iterate
    # (in reversed order) reproduces the loop's update exactly
    bound, inst = _tied_loop_setup(4, n=5)
    cfg = ls.LoopConfig(bound, 1, 0.1, causal=True, convention="tied")
    trace = ls.loop_forward(cfg, inst.tokens)
    manual = np.empty_like(inst.tokens)
    for i in reversed(range(5)):
        attended = inst.tokens[:, :i + 1]
        grad = en.grad_z(bound, inst.tokens[:, i], attended, "tied")
        manual[:, i] = inst.tokens[:, i] - 0.1 * grad
    np.testing.assert_allclose(trace.iterates[1], manual, atol=1e-13)


def test_loop_single_token_causal_matches_chained_descend():
    # the attended token re-syncs to the moving position each iteration, so
    # each loop step equals a fresh one-step descent with the synced set
    bound, inst = _tied_loop_setup(5, n=1)
    cfg = ls.LoopConfig(bound, 4, 0.05, causal=True, convention="tied")
    trace = ls.loop_forward(cfg, inst.tokens[:, :1])
    z = inst.tokens[:, 0].copy()
    for k in range(4):
        step = de.descend(bound, de.Vanilla(0.05), z, z.reshape(-1, 1),
                          max_iters=1, tol=1e-300, convention="tied")
        z = step.steps[-1].z
        np.testing.assert_allclose(trace.iterates[k + 1][:, 0], z, atol=1e-13)


def test_loop_objective_decreases_for_elastic_energy():
    rng = nk.Rng(6)
    spec = en.elastic_spec(rng.normal_matrix(6, 6, 1 / math.sqrt(6)), 1.0)
    tokens = np.stack([nk.sample_hypersphere(rng, 6, 1.0) for _ in range(8)],
                      axis=1)
    cfg = ls.LoopConfig(spec, 6, 0.05, causal=True, convention="strict")
    trace = ls.loop_forward(cfg, tokens)
    assert trace.objectives[-1] < trace.objectives[0]


def _loop_specs(seed, d=6, n=7):
    rng = nk.Rng(seed)
    w = rng.normal_matrix(d, d, 1 / math.sqrt(d))
    w1 = tuple(rng.normal_matrix(3, d, 1 / math.sqrt(d)) for _ in range(2))
    w2 = tuple(rng.normal_matrix(3, d, 1 / math.sqrt(d)) for _ in range(2))
    return {
        "elastic": (en.elastic_spec(w, 0.8), "strict"),
        "inner-tied": (en.inner_product_spec(w, 0.8), "tied"),
        "per-head-elastic": (en.per_head_elastic_spec(w1, w2, 0.8), "strict"),
        "per-head-inner": (en.per_head_inner_spec(w1, w2, 0.8), "tied"),
        "square-sum": (en.square_sum_spec(w, 0.8, rng.uniforms(n)), "strict"),
    }


def _reference_loop(spec, tokens, iterations, eta, causal, convention):
    """Per-position Jacobi loop on ``grad_z``/``energy_value`` over each
    position's attended prefix (gates truncated with it)."""
    n = tokens.shape[1]

    def position(x, i):
        m = i + 1 if causal else n
        g = spec.global_energy
        s = spec
        if isinstance(g, en.WeightedSquareSum):
            s = en.square_sum_spec(spec.pair.weight, g.temperature, g.gates[:m])
        return s, x[:, i], x[:, :m]

    def total(x):
        return sum(en.energy_value(*position(x, i)) for i in range(n))

    iterates, objectives = [tokens], [total(tokens)]
    for _ in range(iterations):
        x = iterates[-1]
        updated = np.empty_like(x)
        for i in range(n):
            updated[:, i] = x[:, i] - eta * en.grad_z(*position(x, i), convention)
        iterates.append(updated)
        objectives.append(total(updated))
    return iterates, objectives


@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("kind", ["elastic", "inner-tied", "per-head-elastic",
                                  "per-head-inner", "square-sum"])
def test_loop_forward_matches_per_position_reference(kind, causal):
    spec, convention = _loop_specs(8)[kind]
    tokens = nk.Rng(9).normal_matrix(6, 7, 1 / math.sqrt(6))
    cfg = ls.LoopConfig(spec, 3, 0.1, causal=causal, convention=convention)
    trace = ls.loop_forward(cfg, tokens)
    iterates, objectives = _reference_loop(spec, tokens, 3, 0.1, causal, convention)
    assert trace.stop_reason == "completed"
    assert len(trace.iterates) == len(iterates) == 4
    for got, want in zip(trace.iterates, iterates):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(trace.objectives, objectives, rtol=1e-12, atol=0.0)


def test_loop_divergence_stops_before_non_finite_iterate():
    # square-sum descent grows the tokens by a factor ~eta*T*||W||^2 per step;
    # a huge rate overflows the objective after the first step
    spec = en.square_sum_spec(nk.Rng(10).normal_matrix(4, 4), 1.0)
    tokens = nk.Rng(11).normal_matrix(4, 5)
    cfg = ls.LoopConfig(spec, 3, 1e200, causal=True)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = ls.loop_forward(cfg, tokens)
    assert trace.stop_reason == "diverged"
    assert len(trace.iterates) == len(trace.objectives) == 1
    assert np.all(np.isfinite(trace.iterates[0]))
    assert np.isfinite(trace.objectives[0])


@pytest.mark.parametrize("weight, tokens, message", [
    (np.eye(4), np.ones((3, 5)), r"tokens must be a 4 x N matrix .* got shape \(3, 5\)"),
    (np.eye(4), np.ones((4, 0)), r"with N >= 1, got shape \(4, 0\)"),
    (np.eye(4), np.full((4, 2), np.nan), "tokens have non-finite entries"),
    (np.ones((4, 3)), np.ones((3, 5)), "query and token dimensions differ: 4 != 3"),
], ids=["token-dimension", "no-tokens", "non-finite", "spec-dimensions"])
def test_loop_forward_rejects_bad_tokens(weight, tokens, message):
    cfg = ls.LoopConfig(en.elastic_spec(weight, 1.0), 2, 0.1)
    with pytest.raises(ValueError, match=message):
        ls.loop_forward(cfg, tokens)


# ---------------------------------------------------------------------------
# cross-entropy head
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits_one_hot():
    assert ls.cross_entropy(np.zeros(5), ls.one_hot(2, 5)) == pytest.approx(
        math.log(5), abs=1e-14)


def test_cross_entropy_aligned_spike_near_zero():
    logits = np.zeros(4)
    logits[1] = 1000.0
    assert ls.cross_entropy(logits, ls.one_hot(1, 4)) < 1e-12


def test_cross_entropy_matches_extended_precision():
    rng = nk.Rng(7)
    logits = 3.0 * rng.normals(6)
    target = rng.uniforms(6)
    target /= target.sum()
    got = ls.cross_entropy(logits, target)
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(v)) for v in logits]
        total = sum(exps)
        expected = -sum(mpmath.mpf(t) * mpmath.log(e / total)
                        for t, e in zip(target, exps))
    assert got == pytest.approx(float(expected), rel=1e-13)


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(ValueError, match="simplex"):
        ls.cross_entropy(np.zeros(3), np.array([0.5, 0.2, 0.2]))
    with pytest.raises(ValueError):
        ls.cross_entropy(np.zeros(3), np.array([0.5, 0.5]))


def test_ce_grad_head_zero_cases():
    rng = nk.Rng(8)
    head = rng.normal_matrix(6, 3, 0.5)
    z = rng.normal_vector(6)
    # target equal to the softmax output
    target = nk.softmax(head.T @ z)
    np.testing.assert_allclose(ls.ce_grad_head(head, z, target), 0.0, atol=1e-14)
    np.testing.assert_allclose(ls.ce_grad_head(head, np.zeros(6), ls.one_hot(0, 3)),
                               0.0, atol=1e-14)


def test_ce_grad_head_matches_finite_differences():
    for seed in range(10):
        rng = nk.Rng(100 + seed)
        head = rng.normal_matrix(5, 3, 0.6)
        z = rng.normal_vector(5)
        target = ls.one_hot(seed % 3, 3)
        grad = ls.ce_grad_head(head, z, target)
        fd = nk.fd_gradient(
            lambda flat: ls.cross_entropy(flat.reshape(5, 3).T @ z, target),
            head.ravel()).reshape(5, 3)
        scale = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(grad - fd)) / scale < 1e-6


# ---------------------------------------------------------------------------
# alternating optimization
# ---------------------------------------------------------------------------

def _training_config(seed, dim=8, temp=1.0, eta=0.1, iterations=1):
    rng = nk.Rng(seed)
    weight = np.eye(dim) + rng.normal_matrix(dim, dim, 0.01)
    head = rng.normal_matrix(dim, 2, 0.1)
    return ls.LoopConfig(en.elastic_spec(weight, temp), iterations, eta,
                         causal=False, head=head), rng


def test_alternating_zero_epochs_leaves_parameters_unchanged():
    cfg, rng = _training_config(0)
    data = ls.two_cluster_dataset(rng, 3, 4, 8)
    trace = ls.alternating_optimize(cfg, data, epochs=0)
    assert len(trace.epochs) == 1
    np.testing.assert_array_equal(trace.final_weight, cfg.spec.pair.weight)
    np.testing.assert_array_equal(trace.final_head, cfg.head)


def test_alternating_constructed_equilibrium_is_flat():
    # all tokens equal the query and the label equals the softmax output:
    # every gradient vanishes and the objective does not move
    dim = 6
    rng = nk.Rng(1)
    z = rng.normal_vector(dim)
    tokens = np.tile(z[:, None], (1, 4))
    head = rng.normal_matrix(dim, 2, 0.3)
    label = nk.softmax(head.T @ z)
    cfg = ls.LoopConfig(en.elastic_spec(np.eye(dim), 1.0), 1, 0.1,
                        causal=False, head=head)
    trace = ls.alternating_optimize(cfg, [(tokens, label)], epochs=3)
    first, last = trace.epochs[0], trace.epochs[-1]
    assert abs(first.total - last.total) < 1e-10
    np.testing.assert_allclose(trace.final_weight, np.eye(dim), atol=1e-10)
    np.testing.assert_allclose(trace.final_head, head, atol=1e-10)


def test_alternating_two_cluster_training_reduces_cross_entropy():
    improved = 0
    for seed in range(5):
        cfg, rng = _training_config(seed, eta=0.1)
        data = ls.two_cluster_dataset(rng, 10, 6, 8)
        trace = ls.alternating_optimize(cfg, data, epochs=30)
        if trace.epochs[-1].cross_entropy < trace.epochs[0].cross_entropy:
            improved += 1
    assert improved >= 4


def test_alternating_requires_data():
    cfg, _ = _training_config(2)
    with pytest.raises(ValueError):
        ls.alternating_optimize(cfg, [], epochs=1)


def test_loop_config_rejects_non_finite_rate():
    cfg, _ = _training_config(3)
    for eta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning rate must be finite and > 0"):
            ls.LoopConfig(cfg.spec, 1, eta)


def test_training_rejects_unsupported_specs():
    rng = nk.Rng(4)
    maps = [tuple(rng.normal_matrix(4, 8) for _ in range(2)) for _ in range(2)]
    specs = (en.per_head_elastic_spec(*maps, 1.0), en.per_head_inner_spec(*maps, 1.0),
             en.kernel_spec(rng.normal_matrix(8, 8), rng.normal_matrix(8, 8), 1.0))
    data = ls.two_cluster_dataset(rng, 1, 4, 8)
    sequences = [(tokens, np.tile(label[:, None], (1, 4))) for tokens, label in data]
    for spec in specs:
        cfg = ls.LoopConfig(spec, 1, 0.1, causal=False)
        for train, dataset in ((ls.alternating_optimize, data),
                               (ls.loop_alternating_optimize, sequences)):
            with pytest.raises(ValueError, match="single-head Elastic or InnerProduct"):
                train(cfg, dataset, epochs=1)


def _sequences(data):
    return [(tokens, np.tile(label[:, None], (1, tokens.shape[1])))
            for tokens, label in data]


@pytest.mark.parametrize("bad, message", [
    ("nan token", "sample 1: tokens have non-finite entries"),
    ("wrong token dim", r"sample 0: tokens must be a 8 x N matrix with N >= 1"),
    ("no tokens", r"sample 0: tokens must be a 8 x N matrix with N >= 1"),
    ("token vector", r"sample 0: tokens must be a 8 x N matrix with N >= 1"),
    ("label matrix", "sample 0: labels must be a length-C vector"),
    ("scalar label", "sample 0: labels must be a length-C vector"),
    ("off simplex", "sample 2: labels off the probability simplex"),
    ("nan label", "sample 2: labels off the probability simplex"),
    ("mixed classes", "sample 1 has 3 classes, sample 0 has 2"),
    ("wrong head", r"head must be a 8 x 2 \(dim x classes\) matrix"),
])
def test_alternating_rejects_bad_dataset_at_entry(bad, message):
    cfg, rng = _training_config(5)
    data = ls.two_cluster_dataset(rng, 2, 4, 8)
    tokens, label = data[0]
    edits = {
        "nan token": (1, (np.where(tokens == tokens[3, 1], np.nan, tokens), label)),
        "wrong token dim": (0, (tokens[:6], label)),
        "no tokens": (0, (tokens[:, :0], label)),
        "token vector": (0, (tokens[:, 0], label)),
        "label matrix": (0, (tokens, label[:, None])),
        "scalar label": (0, (tokens, 1.0)),
        "off simplex": (2, (tokens, np.array([0.7, 0.7]))),
        "nan label": (2, (tokens, np.array([np.nan, 1.0]))),
        "mixed classes": (1, (tokens, ls.one_hot(0, 3))),
    }
    if bad == "wrong head":
        cfg = ls.LoopConfig(cfg.spec, 1, 0.1, causal=False, head=cfg.head[:, :1])
    else:
        index, sample = edits[bad]
        data[index] = sample
    with pytest.raises(ValueError, match=message):
        ls.alternating_optimize(cfg, data, epochs=1)


@pytest.mark.parametrize("bad, message", [
    ("inf token", "sample 3: tokens have non-finite entries"),
    ("no tokens", r"sample 0: tokens must be a 8 x N matrix with N >= 1"),
    ("label vector", r"sample 0: labels must be a C x N matrix, got shape \(2,\)"),
    ("short labels", r"sample 1: labels must be a C x N matrix, got shape \(2, 3\) "
                     "for 4 tokens"),
    ("off simplex", "sample 0: labels off the probability simplex"),
    ("mixed classes", "sample 2 has 3 classes, sample 0 has 2"),
    ("wrong head", r"head must be a 8 x 2 \(dim x classes\) matrix, got shape \(2, 8\)"),
])
def test_loop_alternating_rejects_bad_dataset_at_entry(bad, message):
    cfg, rng = _training_config(6)
    data = _sequences(ls.two_cluster_dataset(rng, 2, 4, 8))
    tokens, labels = data[0]
    three = np.vstack([labels, np.zeros((1, 4))])
    edits = {
        "inf token": (3, (np.where(tokens == tokens[0, 0], np.inf, tokens), labels)),
        "no tokens": (0, (tokens[:, :0], labels)),
        "label vector": (0, (tokens, labels[:, 0])),
        "short labels": (1, (tokens, labels[:, :3])),
        "off simplex": (0, (tokens, 0.5 * labels)),
        "mixed classes": (2, (tokens, three)),
    }
    if bad == "wrong head":
        cfg = ls.LoopConfig(cfg.spec, 1, 0.1, causal=True, head=cfg.head.T)
    else:
        index, sample = edits[bad]
        data[index] = sample
    with pytest.raises(ValueError, match=message):
        ls.loop_alternating_optimize(cfg, data, epochs=1)


def test_loop_alternating_runs_and_improves():
    cfg, rng = _training_config(3, iterations=2)
    cfg = ls.LoopConfig(cfg.spec, 2, 0.05, causal=True, head=cfg.head)
    data = []
    for tokens, label in ls.two_cluster_dataset(rng, 4, 4, 8):
        labels = np.tile(label[:, None], (1, tokens.shape[1]))
        data.append((tokens, labels))
    trace = ls.loop_alternating_optimize(cfg, data, epochs=10)
    assert trace.stop_reason == "completed"
    assert len(trace.epochs) == 11
    assert trace.epochs[-1].cross_entropy < trace.epochs[0].cross_entropy


def test_loop_training_runs_each_forward_once(monkeypatch):
    # the initial map's forwards give record 0 and epoch 1's blocks, so
    # each sample is run once per epoch (once with no epoch at all)
    cfg, rng = _training_config(5, iterations=2)
    data = _sequences(ls.two_cluster_dataset(rng, 2, 4, 8))
    calls = []
    forward = ls.loop_forward
    monkeypatch.setattr(ls, "loop_forward",
                        lambda *args: calls.append(args) or forward(*args))
    for epochs in (0, 1, 3):
        calls.clear()
        trace = ls.loop_alternating_optimize(cfg, data, epochs)
        assert trace.stop_reason == "completed"
        assert len(trace.epochs) == epochs + 1
        assert len(calls) == len(data) * max(epochs, 1)
    # an initial forward that diverges still stops training at epoch 1
    calls.clear()
    with np.errstate(over="ignore", invalid="ignore"):
        trace = ls.loop_alternating_optimize(replace(cfg, eta=1e200), data, 3)
        assert any(forward(*args).stop_reason == "diverged" for args in calls)
    assert trace.stop_reason == "diverged"
    assert len(trace.epochs) == 1 and len(calls) == len(data)


def test_two_cluster_dataset_shapes():
    data = ls.two_cluster_dataset(nk.Rng(4), 3, 5, 8, radius=2.0)
    assert len(data) == 6
    labels = np.stack([y for _, y in data])
    assert labels.sum() == 6.0
    for tokens, _ in data:
        assert tokens.shape == (8, 5)
        np.testing.assert_allclose(np.linalg.norm(tokens, axis=0), 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# per-position reference trainers
# ---------------------------------------------------------------------------

def _prefix(x, i, causal):
    return x[:, :i + 1] if causal else x


def _reference_alternating(cfg, dataset, epochs, eta):
    """Single-layer alternating descent, one query and one call per sample."""
    weight = cfg.spec.pair.weight.copy()
    head = cfg.head.copy()
    spec = cfg.spec
    queries = [np.mean(tokens, axis=1) for tokens, _ in dataset]

    def snapshot(epoch):
        ce = sum(ls.cross_entropy(head.T @ q, y) for q, (_, y) in zip(queries, dataset))
        fe = sum(en.energy_value(spec, q, tokens)
                 for q, (tokens, _) in zip(queries, dataset))
        return [epoch, ce, fe, np.linalg.norm(weight), np.linalg.norm(head)]

    records = [snapshot(0)]
    for epoch in range(1, epochs + 1):
        queries = [q - eta * en.grad_z(spec, q, tokens)
                   for q, (tokens, _) in zip(queries, dataset)]
        weight = weight - eta * np.mean(
            [en.grad_weight(spec, q, tokens) for q, (tokens, _) in zip(queries, dataset)],
            axis=0)
        spec = en.EnergySpec(type(spec.pair)(weight), spec.global_energy)
        head = head - eta * np.mean(
            [ls.ce_grad_head(head, q, y) for q, (_, y) in zip(queries, dataset)], axis=0)
        records.append(snapshot(epoch))
    return records, weight, head, [np.stack(queries, axis=1)]


def _reference_loop_alternating(cfg, dataset, epochs, eta):
    """Loop training with every map, head and energy term taken per position
    against its attended set in the final iterate."""
    weight = cfg.spec.pair.weight.copy()
    head = cfg.head.copy()
    spec = cfg.spec

    def forward():
        live = ls.LoopConfig(spec, cfg.iterations, eta, cfg.causal, cfg.convention)
        return [ls.loop_forward(live, tokens).iterates[-1] for tokens, _ in dataset]

    def snapshot(epoch, finals):
        ce = fe = 0.0
        for final, (_, labels) in zip(finals, dataset):
            for i in range(final.shape[1]):
                ce += ls.cross_entropy(head.T @ final[:, i], labels[:, i])
                fe += en.energy_value(spec, final[:, i], _prefix(final, i, cfg.causal))
        return [epoch, ce, fe, np.linalg.norm(weight), np.linalg.norm(head)]

    finals = forward()
    records = [snapshot(0, finals)]
    for epoch in range(1, epochs + 1):
        finals = forward()
        weight_grads, head_grads = [], []
        for final, (_, labels) in zip(finals, dataset):
            for i in range(final.shape[1]):
                attended = _prefix(final, i, cfg.causal)
                weight_grads.append(en.grad_weight(spec, final[:, i], attended))
                head_grads.append(ls.ce_grad_head(head, final[:, i], labels[:, i]))
        weight = weight - eta * np.mean(weight_grads, axis=0)
        spec = en.EnergySpec(type(spec.pair)(weight), spec.global_energy)
        head = head - eta * np.mean(head_grads, axis=0)
        records.append(snapshot(epoch, finals))
    return records, weight, head, finals


def _oracle_case(trainer, energy, causal, temp, seed=41):
    rng = nk.Rng(seed)
    d, n = 5, 4
    make = en.elastic_spec if energy == "elastic" else en.inner_product_spec
    cfg = ls.LoopConfig(make(rng.normal_matrix(d, d, 1 / math.sqrt(d)), temp), 2, 0.2,
                        causal=causal, head=rng.normal_matrix(d, 3, 0.3))
    data = []
    for tokens, _ in ls.two_cluster_dataset(rng, 2, n, d):
        labels = rng.uniforms(3 * n).reshape(3, n)
        labels /= labels.sum(axis=0)
        data.append((tokens, labels if trainer == "loop" else labels[:, 0]))
    return cfg, data


@pytest.mark.parametrize("temp", [1.0, 0.5, 0.05])
@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("energy", ["elastic", "inner"])
@pytest.mark.parametrize("trainer", ["single", "loop"])
def test_trainers_match_per_position_reference(trainer, energy, causal, temp):
    cfg, data = _oracle_case(trainer, energy, causal, temp)
    train, reference = {
        "single": (ls.alternating_optimize, _reference_alternating),
        "loop": (ls.loop_alternating_optimize, _reference_loop_alternating),
    }[trainer]
    trace = train(cfg, data, 3)
    records, weight, head, iterates = reference(cfg, data, 3, cfg.eta)
    assert trace.stop_reason == "completed"
    got = [[r.epoch, r.cross_entropy, r.free_energy, r.weight_norm, r.head_norm]
           for r in trace.epochs]
    np.testing.assert_allclose(got, records, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.final_weight, weight, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(trace.final_head, head, rtol=1e-12, atol=1e-14)
    assert len(trace.iterates) == len(iterates)
    for got_x, want_x in zip(trace.iterates, iterates):
        np.testing.assert_allclose(got_x, want_x, rtol=1e-12, atol=1e-14)


@st.composite
def _block_terms_cases(draw):
    causal = draw(st.booleans())
    tokens = draw(st.integers(1, 6))
    return {"energy": draw(st.sampled_from(["elastic", "inner"])),
            "causal": causal, "dim": draw(st.integers(1, 5)), "tokens": tokens,
            "queries": tokens if causal else draw(st.integers(1, 5)),
            "classes": draw(st.integers(1, 3)),
            "temperature": 10.0 ** draw(st.floats(-2.0, 2.0)),
            "seed": draw(st.integers(0, 2**32 - 1))}


def _close_to_sum(got, terms):
    """``got`` equals the sum of ``terms`` at 1e-12 of their magnitude."""
    terms = np.asarray(terms)
    scale = 1.0 + np.max(np.abs(terms))
    np.testing.assert_allclose(got, terms.sum(axis=0), rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=80, deadline=None)
@given(_block_terms_cases())
@example({"energy": "elastic", "causal": True, "dim": 3, "tokens": 1, "queries": 1,
          "classes": 2, "temperature": 1.0, "seed": 0})
@example({"energy": "inner", "causal": False, "dim": 4, "tokens": 1, "queries": 3,
          "classes": 3, "temperature": 0.01, "seed": 1})
def test_block_training_terms_equal_per_column_terms(case):
    # the summed cross-entropy, free energy, map gradient and head gradient of
    # one masked block against the per-position single-vector helpers
    rng = np.random.default_rng(case["seed"])
    d, n, q, c = case["dim"], case["tokens"], case["queries"], case["classes"]
    make = en.elastic_spec if case["energy"] == "elastic" else en.inner_product_spec
    spec = make(rng.standard_normal((d, d)) / math.sqrt(d), case["temperature"])
    tokens = rng.standard_normal((d, n))
    if case["causal"]:
        block, mask = tokens, np.arange(n) > np.arange(n)[:, None]
    else:
        block, mask = rng.standard_normal((d, q)), None
    head = rng.standard_normal((d, c))
    labels = rng.uniform(size=(c, q))
    labels /= labels.sum(axis=0)
    attended = [_prefix(tokens, i, case["causal"]) for i in range(q)]
    columns = list(zip(block.T, labels.T, attended))

    ce, head_grad = ls._head_terms(head, block, labels)
    _close_to_sum(ce, [ls.cross_entropy(head.T @ z, y) for z, y, _ in columns])
    _close_to_sum(head_grad, [ls.ce_grad_head(head, z, y) for z, y, _ in columns])
    _close_to_sum(en._map_grad(spec, block, tokens, mask),
                  [en.grad_weight(spec, z, h) for z, _, h in columns])
    _close_to_sum(np.sum(en._Core(spec, tokens).value(block, mask)[0]),
                  [en.energy_value(spec, z, h) for z, _, h in columns])
