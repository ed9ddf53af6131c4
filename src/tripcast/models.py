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

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import serialize
from .layers import (
    DecoderBlock,
    EncoderBlock,
    Linear,
    LayerNorm,
    Lstm,
    causal_mask,
    positional_encoding,
)
from .tensor import ShapeError, Tensor, _as_tensor, add, no_grad

KINDS = ("lstm", "enc_tst", "v_tst", "tst_lstm", "enc_tst_dec_lstm")

# kinds whose decoder consumes previous target values
DECODER_INPUT_KINDS = ("v_tst", "tst_lstm")


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
            raise ValueError(
                f"unknown model kind {self.kind!r}; expected one of: "
                + ", ".join(KINDS)
            )
        for name in ("window", "horizon", "n_features", "n_targets", "d_model",
                     "n_heads", "enc_layers", "dec_layers", "ffn_width",
                     "lstm_layers"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value <= 0:
                raise ValueError(f"ModelSpec.{name} must be a positive integer, "
                                 f"got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown ModelSpec fields: {', '.join(unknown)}")
        return cls(**d)


class Model:
    """A built forecaster: parameter container plus the forward pass."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        d, heads, width = spec.d_model, spec.n_heads, spec.ffn_width
        sub = "lstm" if spec.kind == "tst_lstm" else "ffn"
        parts = []

        self.embed = Linear(spec.n_features, d, rng)
        parts.append(("embed", self.embed))

        self.enc_blocks = []
        self.enc_norm = None
        self.pe_enc = None
        if spec.kind != "lstm":
            self.pe_enc = positional_encoding(spec.window, d).data
            for i in range(spec.enc_layers):
                blk = EncoderBlock(d, heads, width, rng, sub_layer=sub)
                self.enc_blocks.append(blk)
                parts.append((f"encoder.{i}", blk))
            self.enc_norm = LayerNorm(d)
            parts.append(("encoder_norm", self.enc_norm))

        self.lstm = None
        if spec.kind == "lstm":
            self.lstm = Lstm(d, d, spec.lstm_layers, rng)
            parts.append(("lstm", self.lstm))

        self.dec_embed = None
        self.dec_blocks = []
        self.dec_norm = None
        self.pe_dec = None
        if spec.kind in DECODER_INPUT_KINDS:
            self.dec_embed = Linear(spec.n_targets, d, rng)
            parts.append(("decoder_embed", self.dec_embed))
            self.pe_dec = positional_encoding(spec.horizon, d).data
            for i in range(spec.dec_layers):
                blk = DecoderBlock(d, heads, width, rng, sub_layer=sub)
                self.dec_blocks.append(blk)
                parts.append((f"decoder.{i}", blk))
            self.dec_norm = LayerNorm(d)
            parts.append(("decoder_norm", self.dec_norm))

        self.dec_lstm = None
        if spec.kind == "enc_tst_dec_lstm":
            self.dec_lstm = Lstm(d, d, spec.lstm_layers, rng)
            parts.append(("decoder_lstm", self.dec_lstm))

        # per-position head for decoder-input kinds, whole-horizon head else
        if spec.kind in DECODER_INPUT_KINDS:
            self.head = Linear(d, spec.n_targets, rng)
        elif spec.kind == "enc_tst":
            self.head = Linear(spec.window * d, spec.horizon * spec.n_targets, rng)
        else:
            self.head = Linear(d, spec.horizon * spec.n_targets, rng)
        parts.append(("head", self.head))

        self._params = []
        for prefix, layer in parts:
            for name, tensor in layer.named_params():
                self._params.append((f"{prefix}.{name}", tensor))
        names = [n for n, _ in self._params]
        if len(names) != len(set(names)):
            raise RuntimeError("duplicate parameter names in model assembly")

    def named_params(self) -> list:
        return list(self._params)

    def count_parameters(self) -> int:
        return int(sum(t.data.size for _, t in self._params))

    # ------------------------------------------------------------- forward

    def _encode(self, x: Tensor) -> Tensor:
        e = add(self.embed(x), Tensor(self.pe_enc))
        for blk in self.enc_blocks:
            e = blk(e)
        return self.enc_norm(e)

    def _project_cross_kv(self, enc_out: Tensor) -> list:
        # every decoding step attends to the same encoder output, so each
        # layer projects its keys and values once per forward call
        return [blk.cross_attn.project_kv(enc_out) for blk in self.dec_blocks]

    def _decode(self, y_in: Tensor, cross_kv: list,
                prev: list | None = None) -> tuple:
        """Decoder output and, per layer, what its sub-layer carries to the
        next decoding step; ``prev`` passes those carries back in."""
        steps = y_in.shape[1]
        d = add(self.dec_embed(y_in), Tensor(self.pe_dec[:steps]))
        mask = causal_mask(steps)
        outs = []
        for i, (blk, kv) in enumerate(zip(self.dec_blocks, cross_kv)):
            d, out = blk(d, kv, mask, None if prev is None else prev[i])
            outs.append(out)
        return self.head(self.dec_norm(d)), outs

    def _autoregress(self, x: Tensor, start: Tensor) -> Tensor:
        # Decode at full horizon length every step, with future positions
        # zero-padded. The causal mask gives padded positions exactly zero
        # weight, and keeping the matrix shapes fixed keeps the float
        # summation order fixed, so each collected row is bit-identical to a
        # teacher-forced pass fed these same inputs.
        #
        # Each decoder LSTM resumes at row ``step`` from its outputs of the
        # previous step (rows < step) and runs one recurrence step; rows
        # past ``step`` stay zero and are masked like the padded positions.
        # The forecast is returned detached, so nothing is recorded.
        spec = self.spec
        batch = start.shape[0]
        buf = np.zeros((batch, spec.horizon, spec.n_targets))
        buf[:, 0, :] = start.data
        preds = np.zeros_like(buf)
        prev = [Tensor(np.zeros((batch, 0, 2 * spec.d_model)))] * len(
            self.dec_blocks)
        with no_grad():
            cross_kv = self._project_cross_kv(self._encode(x))
            for step in range(spec.horizon):
                out, outs = self._decode(Tensor(buf), cross_kv, prev)
                preds[:, step, :] = out.data[:, step, :]
                if step + 1 < spec.horizon:
                    buf[:, step + 1, :] = preds[:, step, :]
                    prev = [None if o is None else o[:, :step + 1]
                            for o in outs]
        return Tensor(preds)

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
        x = _as_tensor(x_enc)
        if x.data.ndim != 3 or x.shape[1:] != (spec.window, spec.n_features):
            raise ShapeError(
                f"x_enc must have shape (batch, {spec.window}, "
                f"{spec.n_features}), got {x.shape}"
            )
        batch = x.shape[0]

        if spec.kind == "lstm":
            seq, _ = self.lstm(self.embed(x))
            out = self.head(seq[:, -1])
            return out.reshape(batch, spec.horizon, spec.n_targets)

        if spec.kind in DECODER_INPUT_KINDS and not training:
            if start is None:
                raise ValueError(
                    f"inference forward for kind {spec.kind!r} needs start "
                    "values (last observed targets) to seed autoregressive "
                    "decoding"
                )
            s = _as_tensor(start)
            if s.data.ndim != 2 or s.shape != (batch, spec.n_targets):
                raise ShapeError(
                    f"start must have shape ({batch}, {spec.n_targets}), "
                    f"got {s.shape}"
                )
            return self._autoregress(x, s)

        enc_out = self._encode(x)

        if spec.kind == "enc_tst":
            flat = enc_out.reshape(batch, spec.window * spec.d_model)
            return self.head(flat).reshape(batch, spec.horizon, spec.n_targets)

        if spec.kind == "enc_tst_dec_lstm":
            seq, _ = self.dec_lstm(enc_out)
            out = self.head(seq[:, -1])
            return out.reshape(batch, spec.horizon, spec.n_targets)

        # v_tst / tst_lstm, teacher forced
        if teacher is None:
            raise ValueError(
                f"training forward for kind {spec.kind!r} needs teacher "
                "inputs (previous target values)"
            )
        t = _as_tensor(teacher)
        if t.data.ndim != 3 or t.shape != (batch, spec.horizon,
                                           spec.n_targets):
            raise ShapeError(
                f"teacher must have shape ({batch}, {spec.horizon}, "
                f"{spec.n_targets}), got {t.shape}"
            )
        return self._decode(t, self._project_cross_kv(enc_out))[0]

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
    meta = {"spec": model.spec.to_dict(), "extra": extra_meta or {}}
    arrays = [(f"param.{name}", t.data) for name, t in model.named_params()]
    for name, arr in (extra_arrays or {}).items():
        arrays.append((f"extra.{name}", np.asarray(arr, dtype=np.float64)))
    serialize.write_container(path, "checkpoint", meta, arrays)


class _NoDraw:
    """Generator stand-in for :func:`load_checkpoint`: every initial value
    is overwritten by a stored array, so none is drawn."""

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
        spec = ModelSpec.from_dict(spec)
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
