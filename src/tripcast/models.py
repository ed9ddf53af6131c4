"""Forecasting model zoo: LSTM baseline plus four transformer variants.

Every model maps a window of ``n_features`` observations to a forecast of
``n_targets`` values over ``horizon`` future steps. The transformer variants
differ in how the forecast is produced:

``lstm``
    Stacked LSTM over the embedded window; the top layer's final hidden
    state feeds a linear head emitting the whole horizon at once.
``enc_tst``
    Encoder-only transformer; the encoded window is flattened and a linear
    head emits the whole horizon at once.
``v_tst``
    Full encoder-decoder transformer. The decoder consumes previous target
    values (teacher forcing during training, its own predictions at
    inference) under a causal mask and emits one step per position.
``tst_lstm``
    Same wiring as ``v_tst`` with every block's feed-forward sub-layer
    replaced by a single-layer LSTM of hidden size ``d_model``.
``enc_tst_dec_lstm``
    Transformer encoder feeding a stacked-LSTM decoder; the LSTM's final
    hidden state feeds the whole-horizon linear head.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import serialize
from .layers import (
    DecodeCache,
    DecoderBlock,
    EncoderBlock,
    Linear,
    LayerNorm,
    Lstm,
    Module,
    causal_mask,
    positional_encoding,
)
from .tensor import ShapeError, Tensor, _as_tensor, add, no_grad

KINDS = ("lstm", "enc_tst", "v_tst", "tst_lstm", "enc_tst_dec_lstm")

# kinds whose decoder consumes previous target values
DECODER_INPUT_KINDS = ("v_tst", "tst_lstm")


def is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a finite real number (an integer if
    ``integer``). A bool, such as a JSON ``true``, is not."""
    types = (int, np.integer) if integer else (int, float, np.integer,
                                               np.floating)
    return (isinstance(value, types) and not isinstance(value, bool)
            and (isinstance(value, (int, np.integer)) or math.isfinite(value)))


def number_problems(key: str, value, kind: str = "positive integer") -> list:
    """``[message]`` naming ``key`` unless ``value`` is a ``kind``, such as
    "integer", "positive number" or "non-negative integer"."""
    sign, _, noun = kind.rpartition(" ")
    if is_number(value, integer=noun == "integer") and (
            not sign or value > 0 or sign == "non-negative" and value == 0):
        return []
    article = "an" if kind[0] in "aeiou" else "a"
    return [f"{key} must be {article} {kind}, got {value!r}"]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture hyperparameters; defaults match the standard setup."""

    kind: str
    window: int = 12
    horizon: int = 6
    n_features: int = 15
    n_targets: int = 2
    d_model: int = 128
    n_heads: int = 8
    enc_layers: int = 4
    dec_layers: int = 4
    ffn_width: int = 128
    lstm_layers: int = 4

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"ModelSpec.kind: unknown model kind "
                             f"{self.kind!r}; expected one of: "
                             + ", ".join(KINDS))
        for f in fields(self)[1:]:   # every field after kind is a size
            for problem in number_problems(f"ModelSpec.{f.name}",
                                           getattr(self, f.name)):
                raise ValueError(problem)
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.kind != "lstm" and self.d_model % 2:
            raise ValueError(f"ModelSpec.d_model must be even for the sin/cos "
                             f"position tables of kind {self.kind!r}, got "
                             f"{self.d_model}")


class Model(Module):
    """A built forecaster: parameter container plus the forward pass. Each
    kind assigns only the parts it has, and the assignment order below is
    the parameter order (see :class:`~tripcast.layers.Module`)."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        d, heads, width = spec.d_model, spec.n_heads, spec.ffn_width
        sub = "lstm" if spec.kind == "tst_lstm" else "ffn"

        self.embed = Linear(spec.n_features, d, rng)
        if spec.kind != "lstm":
            self.pe_enc = positional_encoding(spec.window, d).data
            self.encoder = [EncoderBlock(d, heads, width, rng, sub_layer=sub)
                            for _ in range(spec.enc_layers)]
            self.encoder_norm = LayerNorm(d)
        else:
            self.lstm = Lstm(d, d, spec.lstm_layers, rng)
        if spec.kind in DECODER_INPUT_KINDS:
            self.decoder_embed = Linear(spec.n_targets, d, rng,
                                        per_position=True)
            self.pe_dec = positional_encoding(spec.horizon, d).data
            self.mask_dec = causal_mask(spec.horizon).data
            self.decoder = [DecoderBlock(d, heads, width, rng, sub_layer=sub)
                            for _ in range(spec.dec_layers)]
            self.decoder_norm = LayerNorm(d)
        if spec.kind == "enc_tst_dec_lstm":
            self.decoder_lstm = Lstm(d, d, spec.lstm_layers, rng)

        # per-position head for decoder-input kinds, whole-horizon head else
        if spec.kind in DECODER_INPUT_KINDS:
            self.head = Linear(d, spec.n_targets, rng, per_position=True)
        elif spec.kind == "enc_tst":
            self.head = Linear(spec.window * d, spec.horizon * spec.n_targets, rng)
        else:
            self.head = Linear(d, spec.horizon * spec.n_targets, rng)

    def count_parameters(self) -> int:
        return int(sum(t.data.size for _, t in self.named_params()))

    # ------------------------------------------------------------- forward

    def _encode(self, x: Tensor) -> Tensor:
        e = add(self.embed(x), Tensor(self.pe_enc))
        for blk in self.encoder:
            e = blk(e)
        return self.encoder_norm(e)

    def _project_cross_kv(self, enc_out: Tensor) -> list:
        # every decoding step attends to the same encoder output, so each
        # layer projects its keys and values once per forward call
        return [blk.cross_attn.project_kv(enc_out) for blk in self.decoder]

    def _decode(self, y_in: Tensor, cross_kv: list,
                caches: list | None = None) -> Tensor:
        """Decoder output for the teacher-forced inputs ``y_in``, or, with
        one :class:`~tripcast.layers.DecodeCache` per layer, for the one
        position ``y_in`` holds at the caches' step."""
        first = caches[0].step if caches else 0
        rows = slice(first, first + y_in.data.shape[1])
        pe = Tensor._result(self.pe_dec[rows], None)    # views, not copies
        mask = Tensor._result(self.mask_dec[rows], None)
        d = add(self.decoder_embed(y_in), pe)
        for blk, kv, cache in zip(self.decoder, cross_kv,
                                  caches or [None] * len(self.decoder)):
            d = blk(d, kv, mask, cache)[0]
        return self.head(self.decoder_norm(d))

    def _autoregress(self, x: Tensor, start: Tensor) -> Tensor:
        # Decode one position per step. Every decoder GEMM and attention
        # product runs per position in teacher forcing too, and a step's
        # query reads all H cached key rows under its mask row, so a step
        # repeats, for its row, the arithmetic of a teacher-forced pass fed
        # these inputs, bit for bit. Earlier positions reach it only through
        # each layer's cached keys, values and LSTM states. The forecast is
        # returned detached, so nothing is recorded.
        spec = self.spec
        batch = start.shape[0]
        preds = np.empty((batch, spec.horizon, spec.n_targets))
        y = start.data[:, None, :]
        with no_grad():
            cross_kv = self._project_cross_kv(self._encode(x))
            caches = [DecodeCache(batch, spec.horizon, spec.n_heads,
                                  spec.d_model // spec.n_heads)
                      for _ in self.decoder]
            for step in range(spec.horizon):
                y = self._decode(Tensor(y), cross_kv, caches).data
                preds[:, step] = y[:, 0]
        return Tensor(preds)

    def _input(self, name: str, value, shape: tuple, mode: str) -> Tensor:
        """``value`` as a Tensor of ``shape``, in which ``None`` stands for
        any batch size. A missing input is a ``ValueError`` and a misshapen
        one a ``ShapeError``; each names the input."""
        if value is None:
            raise ValueError(f"{mode} forward for kind {self.spec.kind!r} "
                             f"needs {name}")
        t = _as_tensor(value)
        if len(t.shape) != len(shape) or any(
                want not in (None, got) for want, got in zip(shape, t.shape)):
            want = ", ".join("batch" if n is None else str(n) for n in shape)
            raise ShapeError(f"{name} must have shape ({want}), got {t.shape}")
        return t

    def forward(self, x_enc, teacher=None, start=None,
                training: bool = False) -> Tensor:
        """Forecast ``(batch, horizon, n_targets)`` from an input window.

        ``x_enc`` has shape ``(batch, window, n_features)``. For kinds with a
        decoder input (``v_tst``, ``tst_lstm``) a training-mode call needs
        ``teacher``, the previous target values ``(batch, horizon,
        n_targets)``; an inference-mode call needs ``start``, the last
        observed target values ``(batch, n_targets)``, and decodes
        autoregressively from there; that forecast is computed under
        :func:`~tripcast.tensor.no_grad` and returned detached. Other kinds
        ignore both.
        """
        spec = self.spec
        mode = "training" if training else "inference"
        x = self._input("x_enc", x_enc, (None, spec.window, spec.n_features),
                        mode)
        batch = x.shape[0]
        if spec.kind in DECODER_INPUT_KINDS:
            if not training:
                return self._autoregress(x, self._input(
                    "start", start, (batch, spec.n_targets), mode))
            teacher = self._input("teacher", teacher,
                                  (batch, spec.horizon, spec.n_targets), mode)
            return self._decode(teacher,
                                self._project_cross_kv(self._encode(x)))

        if spec.kind == "lstm":
            features = self.lstm(self.embed(x))[0][:, -1]
        elif spec.kind == "enc_tst":
            features = self._encode(x).reshape(batch,
                                               spec.window * spec.d_model)
        else:   # enc_tst_dec_lstm
            features = self.decoder_lstm(self._encode(x))[0][:, -1]
        return self.head(features).reshape(batch, spec.horizon, spec.n_targets)

    __call__ = forward


def build(spec: ModelSpec, seed: int) -> Model:
    """Construct a model with seed-determined initial weights.

    The same ``(spec, seed)`` pair always yields bit-identical parameters.
    """
    return Model(spec, np.random.default_rng(seed))


# --------------------------------------------------------------- checkpoints

def save_checkpoint(model: Model, path, extra_meta: dict | None = None,
                    extra_arrays: dict | None = None) -> None:
    """Write spec, weights, and optional extras to a container file."""
    meta = {"spec": asdict(model.spec), "extra": extra_meta or {}}
    arrays = [(f"param.{name}", t.data) for name, t in model.named_params()]
    for name, arr in (extra_arrays or {}).items():
        arrays.append((f"extra.{name}", np.asarray(arr, dtype=np.float64)))
    serialize.write_container(path, "checkpoint", meta, arrays)


class _NoDraw:
    """Generator stand-in for a model whose every parameter array is
    replaced after it is built, so no initial value is drawn:
    :func:`load_checkpoint` binds the stored arrays, and the worker
    process binds each replica to its model's shared-memory block."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def load_checkpoint(path):
    """Load a checkpoint, returning ``(model, extra_meta, extra_arrays)``."""
    _, meta, arrays = serialize.read_container(path, expect_kind="checkpoint")
    spec = meta.get("spec") if isinstance(meta, dict) else None
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: checkpoint holds no model spec")
    try:
        spec = ModelSpec(**spec)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: bad model spec: {exc}") from None
    model = Model(spec, _NoDraw())
    wanted = {f"param.{name}" for name, _ in model.named_params()}
    stored = {n for n in arrays if n.startswith("param.")}
    if wanted != stored:
        missing = sorted(wanted - stored)
        surplus = sorted(stored - wanted)
        raise ValueError(
            f"{path}: checkpoint parameters do not match spec "
            f"(missing {missing[:3]}..., surplus {surplus[:3]}...)"
            if len(missing) > 3 or len(surplus) > 3 else
            f"{path}: checkpoint parameters do not match spec "
            f"(missing {missing}, surplus {surplus})"
        )
    for name, tensor in model.named_params():
        stored_arr = arrays[f"param.{name}"]
        if stored_arr.shape != tensor.data.shape:
            raise ValueError(
                f"{path}: shape mismatch for {name}: stored "
                f"{stored_arr.shape}, expected {tensor.data.shape}"
            )
        if not np.isfinite(stored_arr).all():
            raise ValueError(
                f"{path}: parameter {name} holds non-finite values"
            )
        tensor.data = stored_arr
    extra = {n[len("extra."):]: a for n, a in arrays.items()
             if n.startswith("extra.")}
    return model, meta.get("extra", {}), extra
