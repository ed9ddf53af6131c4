"""Loss, metrics, optimizers, the teacher-forced training loop, evaluation,
and the W×H experiment-grid runner.

Training minimizes MSE on normalized targets with Adam, global gradient-norm
clipping, per-epoch validation, and best-validation parameter restore with
early stopping. Evaluation decodes autoregressively for decoder-input kinds
and reports R² per target in physical units plus a pooled R² in normalized
units. A batch of ``PAIR_MIN_ROWS`` rows or more runs as two halves at
once, the first in the worker process on a replica of the model that
shares its parameters (:func:`worker.pair`).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .models import Model, ModelSpec, build, is_number, number_problems
from .pipeline import DEFAULT_SCHEMA, DatasetSplit, NormStats, Windows
from .tensor import Tensor, _as_tensor, mse, no_grad
from .worker import pair

GRID_REPORT_VERSION = 1


# ----------------------------------------------------------------- metrics

def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements; differentiable in ``pred``."""
    return mse(pred, _as_tensor(target))


def r_squared(pred, target) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot.

    Returns NaN when the target has zero variance (R² undefined); callers
    that need to distinguish that case should check ``math.isnan``.
    """
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(target, dtype=np.float64).ravel()
    if p.shape != t.shape:
        raise ValueError(f"r_squared lengths differ: {p.size} vs {t.size}")
    if t.size < 2:
        raise ValueError(f"r_squared needs at least 2 points, got {t.size}")
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        return float("nan")
    ss_res = float(np.sum((p - t) ** 2))
    return 1.0 - ss_res / ss_tot


# -------------------------------------------------------------- optimizers

def clip_gradients(grads: dict, max_norm: float | None) -> float:
    """Scale all gradients in place so their global L2 norm is ≤ max_norm.

    Returns the pre-clip norm.
    """
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm is not None and total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


class Adam:
    """Adam with bias-corrected moments; each parameter's array is updated
    in place."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list, lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params}
        self.v = {name: np.zeros_like(p.data) for name, p in params}

    def step(self, grads: dict) -> None:
        self.step_count += 1
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(
                    f"non-finite gradient for parameter {name!r} at "
                    f"optimizer step {self.step_count}")
        b1, b2, t = self.BETA1, self.BETA2, self.step_count
        for name, p in self.params:
            g, m, v = grads[name], self.m[name], self.v[name]
            # in place, with the operations of b1·m + (1-b1)·g,
            # b2·v + (1-b2)·g·g and lr·m̂ / (sqrt(v̂) + eps) in their order
            step = np.multiply(g, 1.0 - b1)     # scratch, later the step
            m *= b1
            m += step
            np.multiply(g, 1.0 - b2, out=step)
            step *= g
            v *= b2
            v += step
            denom = np.divide(v, 1.0 - b2 ** t)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            np.divide(m, 1.0 - b1 ** t, out=step)
            step *= self.lr
            step /= denom
            p.data -= step


# ------------------------------------------------------------------ config

@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 1e-3
    grad_clip_norm: float | None = 1.0
    patience: int = 20
    seed: int = 0
    # optional stop once pooled autoregressive validation R² reaches this;
    # computed on the validation split only, so the test set stays unseen
    target_val_r2: float | None = None

    def __post_init__(self):
        kinds = {"epochs": "positive integer", "batch_size": "positive integer",
                 "learning_rate": "positive number",
                 "patience": "non-negative integer",
                 "seed": "non-negative integer"}
        problems = [p for name, kind in kinds.items()
                    for p in number_problems(f"train.{name}",
                                             getattr(self, name), kind)]
        if self.grad_clip_norm is not None:
            problems += number_problems("train.grad_clip_norm",
                                        self.grad_clip_norm, "positive number")
        if self.target_val_r2 is not None and not (
                is_number(self.target_val_r2) and self.target_val_r2 <= 1.0):
            problems.append(f"train.target_val_r2 must be a number ≤ 1 or "
                            f"None, got {self.target_val_r2!r}")
        if problems:
            raise ValueError("; ".join(problems))


# ----------------------------------------------------------- training loop

@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainLog:
    entries: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    stop_reason: str = "max epochs reached"


def _batch_ranges(n: int, batch_size: int):
    return [(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]


# ------------------------------------------------------------- two halves

# A batch of at least this many rows, training or no-tape, runs as two
# halves at once through worker.pair: the data parallelism of PyTorch DDP (Li et
# al. 2020, arXiv:2006.15704) on two cores. A half's bits depend only on its
# own rows, so the result is the same whether the halves run in two
# processes, take turns in one, or run in the other order. On a 2-core VM
# with OpenBLAS at one thread, the halves of a batch-64 forecast took 0.53
# (enc_tst) to 0.79 (v_tst) of the time of the whole batch; split, v_tst's
# 32- and 16-row no-tape batches ran at 0.84x and 0.56x the speed, so
# smaller batches run whole.
PAIR_MIN_ROWS = 64


def _forward(model: Model, x, row_inputs: dict) -> np.ndarray:
    """``model.forward``'s output array, with no tape. ``row_inputs`` holds
    ``teacher`` for a teacher-forced forward or ``start`` for a forecast."""
    with no_grad():
        return model.forward(x, training="teacher" in row_inputs,
                             **row_inputs).data


def _gradients(model: Model, x, teacher, y, where: str) -> tuple:
    """``(loss, {name: gradient})`` of one teacher-forced minibatch. A
    non-finite loss is raised, naming ``where``, before ``backward()``."""
    loss = mse_loss(model.forward(x, teacher=teacher, training=True), y)
    loss_val = float(loss.data)
    if not math.isfinite(loss_val):
        raise FloatingPointError(
            f"non-finite training loss ({loss_val}) at {where}")
    loss.backward()
    grads = {}
    for name, p in model.named_params():
        grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.zero_grad()
    return loss_val, grads


def _no_tape_batches(model: Model, xs, batch_size: int, **row_inputs) -> list:
    """Each batch's ``model.forward`` output array, with no tape.

    ``row_inputs`` are the forward's other inputs, row-aligned with ``xs``:
    ``teacher`` for a teacher-forced forward, ``start`` for a forecast. A
    batch of at least ``PAIR_MIN_ROWS`` rows runs as two halves at once.
    """
    def rows(lo, hi):
        return xs[lo:hi], {k: v[lo:hi] for k, v in row_inputs.items()}

    outs = []
    for lo, hi in _batch_ranges(len(xs), batch_size):
        if hi - lo < PAIR_MIN_ROWS:
            outs.append(_forward(model, *rows(lo, hi)))
        else:
            mid = lo + (hi - lo) // 2
            outs.append(np.concatenate(pair(_forward, rows(lo, mid),
                                            rows(mid, hi), model)))
    return outs


def _predict_ar(model: Model, xs, teach, batch_size: int) -> np.ndarray:
    """Inference-mode predictions; decoder kinds autoregress from teach[:,0]."""
    return np.concatenate(_no_tape_batches(model, xs, batch_size,
                                           start=teach[:, 0, :]), axis=0)


def _teacher_forced_loss(model: Model, xs, teach, ys, batch_size: int) -> float:
    preds = _no_tape_batches(model, xs, batch_size, teacher=teach)
    total = 0.0
    for (lo, hi), pred in zip(_batch_ranges(len(xs), batch_size), preds):
        total += float(mse_loss(Tensor(pred), ys[lo:hi]).data) * (hi - lo)
    return total / len(xs)


def _join(halves, w1: float, w2: float) -> tuple:
    """The row-weighted loss and gradients ``w1·first + w2·second`` of two
    halves' ``(loss, grads)``, first half first."""
    (loss1, grads1), (loss2, grads2) = halves
    for name, g in grads1.items():
        g *= w1
        g += np.multiply(grads2[name], w2, out=grads2[name])
    return w1 * loss1 + w2 * loss2, grads1


def train(model: Model, split: DatasetSplit, cfg: TrainConfig,
          on_epoch=None):
    """Teacher-forced minibatch training with best-validation restore.

    Stops early after more than ``cfg.patience`` consecutive epochs without
    validation improvement (``patience=0`` stops at the first non-improving
    epoch), or once ``cfg.target_val_r2`` is reached in autoregressive
    validation. Returns ``(model, TrainLog)`` with the best-validation
    parameters restored.
    """
    xs, teach, ys = split.train.x_enc, split.train.teacher, split.train.y
    val = split.validation
    n = len(xs)
    rng = np.random.default_rng(cfg.seed)
    params = model.named_params()
    opt = Adam(params, cfg.learning_rate)
    log = TrainLog()
    best_params = {name: p.data.copy() for name, p in params}
    bad_epochs = 0

    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        order = rng.permutation(n)
        total = 0.0
        for batch_i, (lo, hi) in enumerate(_batch_ranges(n, cfg.batch_size)):
            idx = order[lo:hi]
            where = f"epoch {epoch}, batch {batch_i}"
            if len(idx) < PAIR_MIN_ROWS:
                loss_val, grads = _gradients(model, xs[idx], teach[idx],
                                             ys[idx], where)
            else:
                mid = len(idx) // 2
                halves = pair(_gradients,
                              (xs[idx[:mid]], teach[idx[:mid]],
                               ys[idx[:mid]], where),
                              (xs[idx[mid:]], teach[idx[mid:]],
                               ys[idx[mid:]], where), model)
                loss_val, grads = _join(halves, mid / len(idx),
                                        (len(idx) - mid) / len(idx))
            clip_gradients(grads, cfg.grad_clip_norm)
            opt.step(grads)
            total += loss_val * len(idx)
        train_loss = total / n
        val_loss = _teacher_forced_loss(model, val.x_enc, val.teacher, val.y,
                                        cfg.batch_size)
        entry = EpochLog(epoch, train_loss, val_loss,
                         time.perf_counter() - tic)
        log.entries.append(entry)
        if on_epoch is not None:
            on_epoch(entry)

        if val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best_params = {name: p.data.copy() for name, p in params}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                log.stop_reason = (
                    f"early stop: no validation improvement in {bad_epochs} "
                    f"epoch(s) (patience {cfg.patience})"
                )
                break

        if cfg.target_val_r2 is not None:
            preds = _predict_ar(model, val.x_enc, val.teacher, cfg.batch_size)
            val_r2 = r_squared(preds, val.y)
            if val_r2 >= cfg.target_val_r2:
                log.stop_reason = (
                    f"target validation R² reached: {val_r2:.4f} ≥ "
                    f"{cfg.target_val_r2} at epoch {epoch}"
                )
                break

    for name, p in params:
        p.data = best_params[name]
    return model, log


# -------------------------------------------------------------- evaluation

@dataclass
class EvalReport:
    split: str
    kind: str
    window: int
    horizon: int
    param_count: int
    n_samples: int
    mse: float                    # normalized units, all targets pooled
    mse_per_target: dict          # name -> normalized-unit MSE
    r2_per_target: dict           # name -> R² in physical units
    r2_defined: dict              # name -> False when target variance was zero
    r2_pooled: float              # normalized units, all targets pooled
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        """Every field but the timing, which belongs in ``meta.json``."""
        d = asdict(self)
        del d["wall_clock_seconds"]
        return d


def evaluate(model: Model, windows: Windows, stats: NormStats,
             target_names=DEFAULT_SCHEMA.target_channels,
             split_name: str = "test",
             batch_size: int = 64) -> EvalReport:
    """Inference-mode metrics; decoder-input kinds decode autoregressively.

    The only ground-truth future information used is none at all: decoding
    is seeded from the last observed target values, and MSE/R² compare the
    resulting predictions against the held-out targets. As in training, a
    batch of at least ``PAIR_MIN_ROWS`` rows runs as two halves.
    """
    if not len(windows):
        raise ValueError(f"cannot evaluate on an empty {split_name!r} split")
    tic = time.perf_counter()
    ys = windows.y
    preds = _predict_ar(model, windows.x_enc, windows.teacher, batch_size)

    mse = float(np.mean((preds - ys) ** 2))
    mse_per, r2_per, defined = {}, {}, {}
    preds_phys = stats.denormalize_targets(preds)
    ys_phys = stats.denormalize_targets(ys)
    for j, name in enumerate(target_names):
        mse_per[name] = float(np.mean((preds[..., j] - ys[..., j]) ** 2))
        r2 = r_squared(preds_phys[..., j], ys_phys[..., j])
        r2_per[name] = r2
        defined[name] = not math.isnan(r2)
    return EvalReport(
        split=split_name,
        kind=model.spec.kind,
        window=model.spec.window,
        horizon=model.spec.horizon,
        param_count=model.count_parameters(),
        n_samples=len(windows),
        mse=mse,
        mse_per_target=mse_per,
        r2_per_target=r2_per,
        r2_defined=defined,
        r2_pooled=r_squared(preds, ys),
        wall_clock_seconds=time.perf_counter() - tic,
    )


def evaluate_split(model: Model, split: DatasetSplit, target_names,
                   batch_size: int) -> dict:
    """:func:`evaluate` on each portion, as ``{portion: EvalReport}``."""
    return {name: evaluate(model, getattr(split, name), split.stats,
                           target_names, name, batch_size)
            for name in ("train", "validation", "test")}


# ------------------------------------------------------------- grid runner

# the reference ranking reported for the original dataset, best to worst
REFERENCE_RANKING = ("v_tst", "lstm", "tst_lstm", "enc_tst",
                     "enc_tst_dec_lstm")


@dataclass
class GridCell:
    kind: str
    window: int
    horizon: int
    status: str = "ok"            # or "failed"
    error: str = ""
    param_count: int = 0
    train_mse: float = float("nan")
    val_mse: float = float("nan")
    test_mse: float = float("nan")
    test_r2_pooled: float = float("nan")
    test_r2_per_target: dict = field(default_factory=dict)
    epochs_run: int = 0
    seconds: float = 0.0


@dataclass
class GridReport:
    kinds: list
    cases: list                   # list of (window, horizon)
    cells: list                   # list of GridCell
    annotations: list

    def cell(self, kind: str, case) -> GridCell:
        for c in self.cells:
            if c.kind == kind and (c.window, c.horizon) == tuple(case):
                return c
        raise KeyError(f"no grid cell for {kind} at {case}")

    def to_dict(self) -> dict:
        """Every field plus the format version; cell timings belong in
        ``meta.json``."""
        d = {"version": GRID_REPORT_VERSION, **asdict(self)}
        for cell in d["cells"]:
            del cell["seconds"]
        return d

    def format_table(self) -> str:
        """Aligned text table: per case, error rows and test R² per model."""
        rows = [
            ("Params", lambda c: f"{c.param_count:,}"),
            ("Training error", lambda c: _fmt(c.train_mse)),
            ("Validation error", lambda c: _fmt(c.val_mse)),
            ("Testing error", lambda c: _fmt(c.test_mse)),
            ("R² (test)", lambda c: _fmt(c.test_r2_pooled)),
        ]
        texts = {(case, label): [getter(c) if c.status == "ok" else "failed"
                                 for c in (self.cell(k, case)
                                           for k in self.kinds)]
                 for case in self.cases for label, getter in rows}
        col_w = 2 + max([len(k) for k in self.kinds]
                        + [len(v) for vs in texts.values() for v in vs])
        label_w = 22
        lines = []
        header = " " * label_w + "".join(f"{k:>{col_w}}" for k in self.kinds)
        for case in self.cases:
            lines.append(f"Case W={case[0]}, H={case[1]}")
            lines.append(header)
            for label, _ in rows:
                lines.append(f"{label:<{label_w}}" + "".join(
                    f"{v:>{col_w}}" for v in texts[case, label]))
            lines.append("")
        if self.annotations:
            lines.append("Annotations (non-binding observations):")
            for a in self.annotations:
                lines.append(f"  - {a}")
            lines.append("")
        lines.append("Errors are MSE in normalized target units; R² is pooled "
                      "over targets.")
        return "\n".join(lines)


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.4f}"


def _grid_annotations(report: GridReport) -> list:
    notes = []
    # horizon-matched window comparison across all kinds
    by_h = {}
    for w, h in report.cases:
        by_h.setdefault(h, []).append(w)
    for h, ws in by_h.items():
        if len(ws) < 2:
            continue
        ws = sorted(ws)
        means = {}
        for w in ws:
            vals = [report.cell(k, (w, h)).test_r2_pooled
                    for k in report.kinds
                    if report.cell(k, (w, h)).status == "ok"]
            if vals:
                means[w] = float(np.mean(vals))
        if len(means) < 2:
            continue
        w_lo, w_hi = min(means), max(means)
        trend = "increased" if means[w_hi] > means[w_lo] else "did not increase"
        notes.append(
            f"mean test R² at H={h} {trend} with larger W: "
            + ", ".join(f"W={w}: {means[w]:.4f}" for w in ws if w in means)
            + " (reference behavior: larger W helps; non-binding)"
        )
    # observed ranking vs the reference ranking, per case
    for case in report.cases:
        scored = [(k, report.cell(k, case).test_r2_pooled)
                  for k in report.kinds
                  if report.cell(k, case).status == "ok"
                  and not math.isnan(report.cell(k, case).test_r2_pooled)]
        if len(scored) < 2:
            continue
        observed = [k for k, _ in sorted(scored, key=lambda kv: -kv[1])]
        ref = [k for k in REFERENCE_RANKING if k in dict(scored)]
        agree = "matches" if observed == ref else "differs from"
        notes.append(
            f"W={case[0]}, H={case[1]}: observed ranking "
            + " > ".join(observed)
            + f" {agree} the reference ranking "
            + " > ".join(ref)
            + " (dataset-specific; non-binding)"
        )
    return notes


def run_grid(kinds: list, cases: list, make_dataset, train_cfg: TrainConfig,
             spec: ModelSpec, seed: int = 0,
             target_names=DEFAULT_SCHEMA.target_channels,
             on_cell=None) -> GridReport:
    """Train and evaluate every (kind, case) cell with fresh weights.

    ``make_dataset(window, horizon)`` supplies the DatasetSplit for a case;
    each cell's model is ``spec`` with the cell's kind, window and horizon.
    Cell failures are caught and marked; surviving cells still run. Every
    cell's randomness is derived from ``seed`` and the cell coordinates, so
    reruns reproduce the whole grid.
    """
    report = GridReport(kinds=list(kinds),
                        cases=[tuple(c) for c in cases],
                        cells=[], annotations=[])
    for ci, case in enumerate(report.cases):
        w, h = case
        try:
            ds = make_dataset(w, h)
        except Exception as exc:          # noqa: BLE001 - isolate cell failures
            ds = exc
        for ki, kind in enumerate(kinds):
            cell = GridCell(kind=kind, window=w, horizon=h)
            tic = time.perf_counter()
            try:
                if isinstance(ds, Exception):
                    raise RuntimeError(f"dataset build failed: {ds}") from ds
                build_seed, train_seed = (
                    int(s) for s in np.random.SeedSequence(
                        (seed, ci, ki)).generate_state(2)
                )
                model = build(replace(spec, kind=kind, window=w, horizon=h),
                              seed=build_seed)
                model, log = train(model, ds,
                                   replace(train_cfg, seed=train_seed))
                cell.param_count = model.count_parameters()
                cell.epochs_run = len(log.entries)
                reps = evaluate_split(model, ds, target_names,
                                      train_cfg.batch_size)
                cell.train_mse = reps["train"].mse
                cell.val_mse = reps["validation"].mse
                cell.test_mse = reps["test"].mse
                cell.test_r2_pooled = reps["test"].r2_pooled
                cell.test_r2_per_target = reps["test"].r2_per_target
            except Exception as exc:      # noqa: BLE001 - isolate cell failures
                cell.status = "failed"
                cell.error = f"{type(exc).__name__}: {exc}"
            cell.seconds = time.perf_counter() - tic
            report.cells.append(cell)
            if on_cell is not None:
                on_cell(cell)
    report.annotations = _grid_annotations(report)
    return report
