"""Network tests: hand-checked recurrence, gradient oracle, padding
neutrality, training signal, determinism, serialization."""

import math
import pickle

import numpy as np
import pytest

from pdeeplearn.encoding import EncodedSequence
from pdeeplearn.lstm import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    PARAM_ORDER,
    AdamState,
    LstmParameters,
    NumericError,
    TrainConfig,
    TrainingDivergence,
    _flat,
    _run_forward,
    _sigmoid,
    accuracy,
    adam_step,
    init_parameters,
    load_params,
    loss_and_gradients,
    lstm_forward,
    make_dropout_masks,
    save_params,
    sequence_loss,
    train,
    zero_like,
)
from pdeeplearn.util import stream_rng


def random_sequence(rng, pad, d, n, valid):
    inputs = np.zeros((pad, d))
    targets = np.zeros((pad, n))
    for t in range(valid):
        inputs[t, int(rng.integers(n))] = 1.0
        inputs[t, n:] = (rng.random(d - n) < 0.4).astype(float)
        if t < valid - 1:
            targets[t, int(rng.integers(n))] = 1.0
    return EncodedSequence(inputs, targets, valid)


def test_zero_parameters_give_uniform_softmax():
    d, h, n = 4, 3, 4
    params = LstmParameters(np.zeros((d, 4 * h)), np.zeros((h, 4 * h)),
                            np.zeros(4 * h), np.zeros((h, n)), np.zeros(n))
    seq = random_sequence(stream_rng(0, "uniform"), 3, d, n, 3)
    probs = lstm_forward(params, seq)
    assert np.allclose(probs, 0.25)


def test_hand_computed_two_step_recurrence():
    # h = 1, d = 1, n = 1: all weights 0.5, biases 0.1, input 1.0 twice.
    # Worked by hand with the gate order input/forget/output/candidate:
    #   z  = x*0.5 + h*0.5 + 0.1
    #   t1: z = 0.6 -> i = f = o = sigmoid(0.6), g = tanh(0.6)
    #       c1 = i*g, h1 = o*tanh(c1)
    #   t2: z = 1*0.5 + h1*0.5 + 0.1 -> c2 = f2*c1 + i2*g2, h2 = o2*tanh(c2)
    W = np.full((1, 4), 0.5)
    U = np.full((1, 4), 0.5)
    b = np.full(4, 0.1)
    params = LstmParameters(W, U, b, np.full((1, 1), 0.5), np.zeros(1))
    inputs = np.ones((2, 1))
    targets = np.zeros((2, 1))
    targets[0, 0] = 1.0
    seq = EncodedSequence(inputs, targets, 2)

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    z1 = 0.6
    i1 = f1 = o1 = sig(z1)
    g1 = math.tanh(z1)
    c1 = i1 * g1
    h1 = o1 * math.tanh(c1)
    z2 = 0.5 + 0.5 * h1 + 0.1
    i2 = f2 = o2 = sig(z2)
    g2 = math.tanh(z2)
    c2 = f2 * c1 + i2 * g2
    h2 = o2 * math.tanh(c2)

    cache_probs = lstm_forward(params, seq)
    # n = 1 forces probability 1; verify the hidden trajectory instead
    # through the loss path by rebuilding h from the internals.
    from pdeeplearn.lstm import _run_forward

    cache = _run_forward(params, seq, None)
    assert cache.hs[1, 0] == pytest.approx(h1, abs=1e-12)
    assert cache.hs[2, 0] == pytest.approx(h2, abs=1e-12)
    assert cache.cs[2, 0] == pytest.approx(c2, abs=1e-12)
    assert np.allclose(cache_probs, 1.0)


def test_softmax_rows_sum_to_one():
    rng = stream_rng(5, "softmax")
    params = init_parameters(6, 5, 3, rng)
    seq = random_sequence(rng, 6, 6, 3, 5)
    probs = lstm_forward(params, seq)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_cross_entropy_of_uniform_prediction_is_log_n():
    d, h, n = 5, 4, 3
    params = LstmParameters(np.zeros((d, 4 * h)), np.zeros((h, 4 * h)),
                            np.zeros(4 * h), np.zeros((h, n)), np.zeros(n))
    seq = random_sequence(stream_rng(1, "ce"), 4, d, n, 4)
    loss, steps = sequence_loss(lstm_forward(params, seq), seq)
    assert steps == 3
    assert loss / steps == pytest.approx(math.log(n), abs=1e-12)


GRADCHECK_SEEDS = list(range(10))


@pytest.mark.parametrize("seed", GRADCHECK_SEEDS)
def test_gradients_match_central_differences(seed):
    rng = stream_rng(seed, "gradcheck")
    d, h, n, pad, valid = 6, 4, 2, 5, 4
    seq = random_sequence(rng, pad, d, n, valid)
    params = init_parameters(d, h, n, rng)
    masks = make_dropout_masks(rng, valid, h, 0.5) if seed % 2 else None
    _, _, grads = loss_and_gradients(params, seq, masks)
    eps = 1e-5
    worst = 0.0
    for name in PARAM_ORDER:
        arr = getattr(params, name)
        g = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            hi, _ = sequence_loss(lstm_forward(params, seq, masks), seq)
            arr[idx] = orig - eps
            lo, _ = sequence_loss(lstm_forward(params, seq, masks), seq)
            arr[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            worst = max(worst, abs(numeric - g[idx]) / max(1e-8, abs(numeric) + abs(g[idx])))
    assert worst < 1e-4


def test_padding_rows_are_bit_neutral():
    # Perturbing any padding input must leave loss, gradients, and
    # accuracy byte-for-byte identical.
    rng = stream_rng(2, "padding")
    d, h, n = 6, 4, 3
    seq = random_sequence(rng, 8, d, n, 4)
    params = init_parameters(d, h, n, rng)
    loss_a, steps_a, grads_a = loss_and_gradients(params, seq)
    acc_a = accuracy(params, [seq])

    noisy_inputs = seq.inputs.copy()
    noisy_inputs[4:] = rng.random((4, d)) * 100 - 50
    noisy_targets = seq.targets.copy()
    noisy_targets[4:] = rng.random((4, n))
    noisy = EncodedSequence(noisy_inputs, noisy_targets, 4)

    loss_b, steps_b, grads_b = loss_and_gradients(params, noisy)
    assert loss_a == loss_b and steps_a == steps_b
    for name in PARAM_ORDER:
        assert np.array_equal(getattr(grads_a, name), getattr(grads_b, name))
    assert accuracy(params, [noisy]) == acc_a


def test_final_action_row_contributes_input_but_no_loss():
    rng = stream_rng(3, "final-row")
    d, h, n = 6, 4, 3
    seq = random_sequence(rng, 5, d, n, 4)
    params = init_parameters(d, h, n, rng)
    loss_a, _, grads_a = loss_and_gradients(params, seq)
    # changing the final real input row must not change the loss either
    changed = seq.inputs.copy()
    changed[3] = 0.0
    changed[3, 0] = 1.0
    seq_b = EncodedSequence(changed, seq.targets.copy(), 4)
    loss_b, _, grads_b = loss_and_gradients(params, seq_b)
    assert loss_a == loss_b
    for name in PARAM_ORDER:
        assert np.array_equal(getattr(grads_a, name), getattr(grads_b, name))


def _alternating_corpus(pad=8, copies=24):
    # Two actions strictly alternating; class 0 rows follow class 1 rows.
    seqs = []
    for start in (0, 1):
        inputs = np.zeros((pad, 4))
        targets = np.zeros((pad, 2))
        for t in range(pad):
            cls = (start + t) % 2
            inputs[t, cls] = 1.0
            inputs[t, 2 + cls] = 1.0
            if t < pad - 1:
                targets[t, (cls + 1) % 2] = 1.0
        seqs.append(EncodedSequence(inputs, targets, pad))
    return seqs * copies


def test_training_learns_the_alternating_task():
    dataset = _alternating_corpus()
    cfg = TrainConfig(hidden_units=16, dropout_rate=0.0, epochs=10, folds=2,
                      rng_seed=4)
    params, history = train(dataset, cfg)
    assert history[9] < history[0]
    correct, total = accuracy(params, dataset)
    assert correct / total >= 0.95


def test_training_is_deterministic_with_fixed_seed():
    dataset = _alternating_corpus(copies=4)
    cfg = TrainConfig(hidden_units=8, dropout_rate=0.0, epochs=3, folds=2, rng_seed=11)
    params_a, hist_a = train(dataset, cfg)
    params_b, hist_b = train(dataset, cfg)
    assert hist_a == hist_b
    for name in PARAM_ORDER:
        assert np.array_equal(getattr(params_a, name), getattr(params_b, name))


def test_training_with_dropout_is_also_deterministic():
    dataset = _alternating_corpus(copies=4)
    cfg = TrainConfig(hidden_units=8, dropout_rate=0.5, epochs=2, folds=2, rng_seed=12)
    params_a, _ = train(dataset, cfg)
    params_b, _ = train(dataset, cfg)
    for name in PARAM_ORDER:
        assert np.array_equal(getattr(params_a, name), getattr(params_b, name))


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_train_matches_the_plain_per_sequence_loop_bit_for_bit(dropout):
    # train skips the gradient pass of a sequence without a target and
    # takes the zero-gradient Adam step; the plain loop computes every
    # gradient and takes the full step, with the same random streams.
    rng = stream_rng(17, "train-loop", str(dropout))
    d, h, n, pad = 6, 4, 3, 6
    dataset = [random_sequence(rng, pad, d, n, valid) for valid in (1, 2, 3, 5, 6) * 3]
    assert {seq.target_steps for seq in dataset} == {0, 1, 2, 4, 5}
    cfg = TrainConfig(hidden_units=h, dropout_rate=dropout, epochs=3, folds=2,
                      init_gain=3.0, rng_seed=5)
    seed_key = ("fold", 1)
    got, got_history = train(dataset, cfg, seed_key)

    params = init_parameters(d, h, n, stream_rng(cfg.rng_seed, "init", *seed_key),
                             cfg.init_gain)
    state = AdamState.for_params(params)
    grads = zero_like(params)
    loop_rng = stream_rng(cfg.rng_seed, "train", *seed_key)
    history = []
    for _ in range(cfg.epochs):
        total_loss, total_steps = 0.0, 0
        for idx in loop_rng.permutation(len(dataset)):
            seq = dataset[int(idx)]
            masks = make_dropout_masks(loop_rng, seq.valid_steps, h, dropout)
            loss, steps, _ = loss_and_gradients(params, seq, masks, out=grads)
            total_loss += loss
            total_steps += steps
            adam_step(params, grads, state, cfg)
        history.append(total_loss / max(total_steps, 1))
    assert got_history == history
    _assert_same_bytes(got, params)


def test_parameter_files_round_trip_bytes(tmp_path):
    rng = stream_rng(6, "serialize")
    params = init_parameters(5, 3, 2, rng)
    path = tmp_path / "params.bin"
    save_params(path, params, layout_hash="abc123", extra={"fold": 0})
    loaded, header = load_params(path)
    assert header["layout_hash"] == "abc123"
    assert header["fold"] == 0
    for name in PARAM_ORDER:
        assert np.array_equal(getattr(loaded, name), getattr(params, name))
    save_params(tmp_path / "again.bin", loaded, layout_hash="abc123",
                extra={"fold": 0})
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        TrainConfig(folds=1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(init_gain=0.0)


def test_adam_step_matches_the_out_of_place_formula_bit_for_bit():
    rng = stream_rng(7, "adam")
    cfg = TrainConfig(learning_rate=3e-3)
    params = init_parameters(5, 4, 3, rng)
    state = AdamState.for_params(params)
    expected = {name: getattr(params, name).copy() for name in PARAM_ORDER}
    m = {name: np.zeros_like(a) for name, a in expected.items()}
    v = {name: np.zeros_like(a) for name, a in expected.items()}
    for t in range(1, 6):
        grads = zero_like(params)
        for name in PARAM_ORDER:
            getattr(grads, name)[...] = rng.normal(size=expected[name].shape)
        returned = adam_step(params, grads, state, cfg)
        assert returned is params
        for name in PARAM_ORDER:
            g = getattr(grads, name)
            m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
            root_c2 = np.sqrt(1.0 - ADAM_BETA2 ** t)
            step = cfg.learning_rate * root_c2 / (1.0 - ADAM_BETA1 ** t)
            # The textbook form: the same update up to rounding.
            m_hat = m[name] / (1.0 - ADAM_BETA1 ** t)
            v_hat = v[name] / (1.0 - ADAM_BETA2 ** t)
            textbook = expected[name] - cfg.learning_rate * m_hat / (
                np.sqrt(v_hat) + ADAM_EPSILON)
            expected[name] = expected[name] - step * (m[name] / (
                np.sqrt(v[name]) + ADAM_EPSILON * root_c2))
            assert np.array_equal(getattr(params, name), expected[name])
            assert np.allclose(expected[name], textbook, rtol=1e-12, atol=0)


def test_adam_step_without_a_gradient_matches_a_zero_gradient_bit_for_bit():
    # Earlier steps on random gradients leave negative entries in m and
    # tiny ones in v; the zero-gradient form only decays them, which must
    # round exactly as adding (1 - beta) * (+0) to them does.
    rng = stream_rng(16, "adam-zero")
    cfg = TrainConfig(learning_rate=3e-3)
    params = init_parameters(5, 4, 3, rng)
    state = AdamState.for_params(params)
    for _ in range(4):
        grads = zero_like(params)
        _flat(grads)[:] = rng.normal(size=_flat(grads).size) * 10.0 ** rng.integers(
            -200, 3, size=_flat(grads).size)
        adam_step(params, grads, state, cfg)
    assert (state.m < 0).any() and (state.v < 1e-300).any()
    twin = zero_like(params)
    _flat(twin)[:] = _flat(params)
    twin_state = AdamState(state.m.copy(), state.v.copy(), np.empty_like(state.m), state.t)
    for _ in range(3):
        assert adam_step(params, None, state, cfg) is params
        adam_step(twin, zero_like(params), twin_state, cfg)
        assert state.t == twin_state.t
        assert _flat(params).tobytes() == _flat(twin).tobytes()
        assert state.m.tobytes() == twin_state.m.tobytes()
        assert state.v.tobytes() == twin_state.v.tobytes()


def test_adam_step_rejects_parameters_outside_one_buffer():
    params = init_parameters(3, 2, 2, stream_rng(8, "adam"))
    loose = params.copy()
    with pytest.raises(ValueError):
        adam_step(loose, zero_like(params), AdamState.for_params(params), TrainConfig())


def test_training_divergence_survives_pickling():
    error = TrainingDivergence(3)
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is TrainingDivergence
    assert again.epoch == 3
    assert str(again) == str(error) == "training loss became non-finite at epoch 3"


def _reference_loss_and_gradients(params, seq, masks, rows=None):
    """BPTT written out in full over the first `rows` steps, all real steps
    by default: every step adds np.outer(x_t, dz) to dW and
    np.outer(h_{t-1}, dz) to dU, including t = 0 and the zero rows of
    x_t. loss_and_gradients sums the same terms in another order. The
    head's dh comes from one gemm over the target rows, as there, so that
    both start every step from the same dh and the same dz_t: then, with
    rows = target_steps, so that the forward gemm has the same shape too,
    a weight-gradient entry that is a single product matches bit for bit."""
    cache = _run_forward(params, seq, masks, rows)
    h = params.hidden
    grads = zero_like(params)
    dW, dU, db, dw_out, db_out = grads.arrays().values()
    target = seq.target_steps
    dhds = (cache.probs[:target] - seq.targets[:target]) @ params.w_out.T
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    loss = 0.0
    for t in range(len(cache.xs) - 1, -1, -1):
        dh = dh_next
        if t < seq.target_steps:
            y = seq.targets[t]
            p = cache.probs[t]
            loss += float(-np.log((p * y).sum()))
            dlogits = p - y
            dw_out += np.outer(cache.dropped[t], dlogits)
            db_out += dlogits
            dhd = dhds[t]
            dh += dhd * masks[t] if masks is not None else dhd
        gate = cache.gates[t]
        sig = gate[:3 * h]
        i, f, o, g = gate[:h], gate[h:2 * h], gate[2 * h:3 * h], gate[3 * h:]
        tc = cache.tanh_cs[t]
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = np.empty(4 * h)
        np.multiply(dc, g, out=dz[:h])
        np.multiply(dc, cache.cs[t], out=dz[h:2 * h])
        np.multiply(dh, tc, out=dz[2 * h:3 * h])
        dz[:3 * h] *= sig
        dz[:3 * h] *= 1.0 - sig
        np.multiply(dc, i, out=dz[3 * h:])
        dz[3 * h:] *= 1.0 - g * g
        dc_next = dc * f
        dW += np.outer(cache.xs[t], dz)
        dU += np.outer(cache.hs[t], dz)
        db += dz
        dh_next = params.U @ dz
    return loss, seq.target_steps, grads


def _real_valued_sequence(rng, pad, d, n, valid):
    # Signed values, exact zeros and negative zeros in the input rows.
    inputs = rng.normal(size=(pad, d)) * (rng.random((pad, d)) < 0.6)
    inputs[rng.random((pad, d)) < 0.15] = -0.0
    targets = np.zeros((pad, n))
    for t in range(valid - 1):
        targets[t, int(rng.integers(n))] = 1.0
    return EncodedSequence(inputs, targets, valid)


def _assert_same_bytes(got, want):
    for name in PARAM_ORDER:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _assert_close_to_oracle(got, want):
    for name in PARAM_ORDER:
        a, b = getattr(got, name), getattr(want, name)
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0), name


def _oracle_cases(inputs, valid, dropout):
    """Three sequences, each with the oracle's (loss, steps, gradient) and
    loss_and_gradients' result in a fresh buffer and in one reused buffer
    that starts out holding NaN and garbage."""
    rng = stream_rng(valid, "bptt-oracle", inputs, str(dropout))
    d, h, n, pad = 7, 5, 3, 6
    make = random_sequence if inputs == "binary" else _real_valued_sequence
    seqs = [make(rng, pad, d, n, valid) for _ in range(3)]
    params = init_parameters(d, h, n, rng, input_gain=3.0)
    params.b[:] = rng.normal(size=params.b.shape)
    out = zero_like(params)
    _flat(out)[:] = rng.normal(size=_flat(out).size) * 1e6
    _flat(out)[::3] = np.nan
    for seq in seqs:
        masks = make_dropout_masks(rng, valid, h, dropout)
        want = _reference_loss_and_gradients(params, seq, masks)
        fresh = loss_and_gradients(params, seq, masks)
        reused = loss_and_gradients(params, seq, masks, out=out)
        assert reused[2] is out
        yield params, seq, masks, want, fresh, reused


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("valid", [1, 2, 3, 5])
@pytest.mark.parametrize("inputs", ["binary", "real"])
def test_bptt_matches_the_full_outer_product_oracle_to_1e12(inputs, valid, dropout):
    # The gemms sum the oracle's terms in another order, so each array is
    # held to within 1e-12 of its largest oracle entry.
    for _, _, _, (want_loss, want_steps, want), fresh, reused in _oracle_cases(inputs, valid, dropout):
        for loss, steps, grads in (fresh, reused):
            assert steps == want_steps
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            _assert_close_to_oracle(grads, want)


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("valid", [1, 2, 3, 5])
@pytest.mark.parametrize("inputs", ["binary", "real"])
def test_bptt_matches_the_full_outer_product_oracle_bit_for_bit(inputs, valid, dropout):
    # What must match exactly: a reused buffer and a fresh one agree bit
    # for bit, and every gradient entry that is a single product plus exact
    # zeros equals the oracle's. A row of dW, dU or dw_out is such a sum
    # when its factor (x_t, h_{t-1} or the dropped h_t) is nonzero at no
    # more than one target step; db and db_out are, up to one target step.
    # Up to two target steps that covers all of dU, since h_0 = 0, and
    # there dU equals even the full oracle's. The oracle otherwise runs the
    # same target rows, so that its forward pass rounds as
    # loss_and_gradients' does.
    for params, seq, masks, (_, _, full), (_, steps, fresh), (_, _, reused) in _oracle_cases(
            inputs, valid, dropout):
        _assert_same_bytes(reused, fresh)
        _, _, want = _reference_loss_and_gradients(params, seq, masks, steps)
        cache = _run_forward(params, seq, masks, steps)
        for name, factors in (("W", cache.xs), ("U", cache.hs), ("w_out", cache.dropped)):
            rows = (factors[:steps] != 0).sum(axis=0) <= 1
            assert np.array_equal(getattr(fresh, name)[rows], getattr(want, name)[rows]), name
        if steps <= 1:
            assert np.array_equal(fresh.b, want.b)
            assert np.array_equal(fresh.b_out, want.b_out)
        if steps <= 2:
            assert np.array_equal(fresh.U, full.U)


def test_bptt_without_out_returns_a_fresh_unaliased_buffer():
    rng = stream_rng(9, "bptt-fresh")
    d, h, n = 6, 4, 3
    seq = random_sequence(rng, 5, d, n, 4)
    params = init_parameters(d, h, n, rng)
    out = zero_like(params)
    _, _, into_out = loss_and_gradients(params, seq, out=out)
    _, _, first = loss_and_gradients(params, seq)
    _, _, second = loss_and_gradients(params, seq)
    buffers = [_flat(params), _flat(out), _flat(first), _flat(second)]
    for a in range(len(buffers)):
        for b in range(a + 1, len(buffers)):
            assert not np.shares_memory(buffers[a], buffers[b])
    _assert_same_bytes(first, into_out)
    _assert_same_bytes(second, into_out)


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_the_two_branch_formula_bit_for_bit():
    edges = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -1.0, 36.0, -36.0,
             709.0, -709.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf,
             np.nan, -np.nan]
    rng = stream_rng(10, "sigmoid")
    for scale in (1e-3, 1.0, 30.0, 800.0):
        z = np.concatenate([edges, rng.normal(scale=scale, size=1001)])
        want = _two_branch_sigmoid(z).tobytes()
        assert _sigmoid(z).tobytes() == want
        # Written into part of a larger row, as the forward pass does.
        row = np.full(z.size + 2, 7.0)
        assert _sigmoid(z, out=row[1:-1]) is not None
        assert row[1:-1].tobytes() == want
        assert row[0] == row[-1] == 7.0


def test_non_finite_gradients_still_stop_the_next_forward_pass():
    # A zeroed dropout mask keeps the logits finite while w_out @ dlogits
    # overflows, so dh = inf * 0 = NaN and dz is NaN at every step. Both
    # paths then write NaN into all of dW (0 * NaN is NaN, so a zero entry
    # of x_t does not shield its row) and into db, so Adam puts NaN into W
    # and b and the next forward raises NumericError on both paths.
    rng = stream_rng(11, "non-finite")
    d, h, n = 5, 2, 3
    seq = random_sequence(rng, 4, d, n, 4)
    masks = np.zeros((4, h))
    cfg = TrainConfig()
    for bptt in (_reference_loss_and_gradients, loss_and_gradients):
        params = init_parameters(d, h, n, stream_rng(11, "non-finite", "init"))
        params.w_out[:] = 1.5e308
        params.w_out[:, 0] = -1.5e308
        lstm_forward(params, seq, masks)  # finite
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, grads = bptt(params, seq, masks)
        assert np.isnan(grads.b).all()
        adam_step(params, grads, AdamState.for_params(params), cfg)
        with pytest.raises(NumericError):
            lstm_forward(params, seq)


def test_non_finite_head_weights_raise_at_step_0():
    rng = stream_rng(12, "non-finite-head")
    d, h, n = 5, 3, 3
    seq = random_sequence(rng, 4, d, n, 4)
    params = init_parameters(d, h, n, rng)
    params.w_out[1, 2] = np.inf
    with pytest.raises(NumericError, match="^non-finite activation at step 0$"):
        lstm_forward(params, seq)


def test_a_non_finite_input_row_raises_at_its_step():
    rng = stream_rng(13, "non-finite-input")
    d, h, n = 5, 3, 3
    seq = random_sequence(rng, 5, d, n, 5)
    params = init_parameters(d, h, n, rng)
    seq.inputs[2, 0] = np.nan
    with pytest.raises(NumericError, match="^non-finite activation at step 2$"):
        lstm_forward(params, seq)


def test_a_one_action_sequence_has_a_zero_gradient_without_a_forward_pass():
    rng = stream_rng(14, "one-action")
    d, h, n = 5, 3, 3
    seq = random_sequence(rng, 4, d, n, 1)
    params = init_parameters(d, h, n, rng)
    params.W[:] = np.nan  # any forward pass over its row would raise
    with pytest.raises(NumericError):
        lstm_forward(params, seq)
    out = zero_like(params)
    _flat(out)[:] = rng.normal(size=_flat(out).size) * 1e6
    _flat(out)[::3] = np.nan
    loss, steps, grads = loss_and_gradients(params, seq, out=out)
    assert (loss, steps) == (0.0, 0)
    assert grads is out
    assert _flat(grads).tobytes() == np.zeros(_flat(grads).size).tobytes()
    assert accuracy(params, [seq]) == (0, 0)


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_the_final_real_input_row_enters_neither_training_nor_accuracy(dropout):
    rng = stream_rng(15, "final-row-nan", str(dropout))
    d, h, n = 6, 4, 3
    seq = random_sequence(rng, 6, d, n, 4)
    params = init_parameters(d, h, n, rng)
    masks = make_dropout_masks(rng, 4, h, dropout)
    zero_row, nan_row = seq.inputs.copy(), seq.inputs.copy()
    zero_row[3] = 0.0
    nan_row[3] = np.nan
    zeroed = EncodedSequence(zero_row, seq.targets, 4)
    poisoned = EncodedSequence(nan_row, seq.targets, 4)
    want_loss, want_steps, want = loss_and_gradients(params, zeroed, masks)
    loss, steps, got = loss_and_gradients(params, poisoned, masks)
    assert (loss, steps) == (want_loss, want_steps)
    assert steps == 3
    _assert_same_bytes(got, want)
    assert accuracy(params, [poisoned]) == accuracy(params, [zeroed])
    # lstm_forward still runs every real row.
    with pytest.raises(NumericError, match="^non-finite activation at step 3$"):
        lstm_forward(params, poisoned)
