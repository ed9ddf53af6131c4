"""Span tracer that wraps tripcast's public callables from the outside.

``Tracer.install()`` replaces module attributes and class methods of the
package with thin wrappers that record one span per call: its name, start,
end, the span that was open when it began (its parent), and a few
attributes. Spans stay in memory; ``Tracer.uninstall()`` restores the
originals. Nothing under ``src/`` is modified: callers inside the package
look the patched names up at call time (module globals, class attributes),
so they reach the wrappers.

``per_layer_metrics`` turns the recorded spans into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict

from tripcast import layers, models, pipeline, serialize, synth, tensor, training
from tripcast.models import DECODER_INPUT_KINDS, KINDS

LAYER_CLASSES = ("MultiHeadAttention", "Lstm", "FeedForward", "LayerNorm",
                 "Linear", "EncoderBlock", "DecoderBlock")

# name of each end-to-end metric paired with whether a larger value is better
E2E_DIRECTION = {
    **{f"samples_per_s.{k}": True for k in KINDS},
    "latency_p50_ms": False,
    "latency_p90_ms": False,
    "trips_per_s": True,
}

# span list fields
NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Records nested spans while installed; inert otherwise."""

    def __init__(self):
        self.spans = []        # [name, start_ns, end_ns, parent_index, attrs]
        self._open = []        # indices of the spans currently open
        self._patches = []     # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           attrs or {}])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            attrs = before(args) if before is not None else None
            index = tracer.begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer.spans[index][ATTRS], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute, name, before=None, after=None):
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(name, original, before, after))

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        if self._patches:
            return
        for cls_name in (*LAYER_CLASSES, "LstmSubLayer"):
            self._patch(getattr(layers, cls_name), "__call__",
                        f"layers.{cls_name}")

        # Model.__call__ is an alias of forward made at class creation, so
        # both names are wrapped around the same original
        original_forward = vars(models.Model)["forward"]
        forward = self._wrap("models.Model.forward", original_forward,
                             after=_record_forward_mode)
        for attribute in ("forward", "__call__"):
            self._patches.append((models.Model, attribute,
                                  vars(models.Model)[attribute]))
            setattr(models.Model, attribute, forward)
        self._patch(models, "save_checkpoint", "models.save_checkpoint")
        self._patch(models, "load_checkpoint", "models.load_checkpoint")

        self._patch(tensor.Tensor, "backward", "tensor.Tensor.backward",
                    before=_count_tape)

        for fn_name in ("train", "evaluate", "clip_gradients",
                        "_teacher_forced_loss", "_predict_ar"):
            self._patch(training, fn_name, f"training.{fn_name}")
        self._patch(training.Adam, "step", "training.Adam.step")

        self._patch(pipeline, "write_trip_csv", "pipeline.write_trip_csv",
                    after=_record_csv_bytes)
        self._patch(pipeline, "load_trips", "pipeline.load_trips",
                    after=_record_rows)
        self._patch(pipeline, "make_windows", "pipeline.make_windows",
                    after=_record_windows)
        for fn_name in ("prepare_dataset", "aggregate_redundant",
                        "smooth_trip", "resample", "normalize_and_split"):
            self._patch(pipeline, fn_name, f"pipeline.{fn_name}")
        # smooth_trip calls the filter through the name pipeline imported
        self._patch(pipeline, "savgol_smooth", "savgol.savgol_smooth")

        self._patch(synth, "synthesize_trips", "synth.synthesize_trips")
        self._patch(serialize, "write_container", "serialize.write_container")
        self._patch(serialize, "read_container", "serialize.read_container")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


def _count_tape(args) -> dict:
    """Count the tape nodes reachable from the loss, by op.

    Runs before ``backward()`` consumes the graph and before its span opens,
    so the walk is not part of the backward time.
    """
    counts = Counter()
    seen = set()
    pending = [args[0]]
    while pending:
        t = pending.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.node is not None:
            counts[t.node.op] += 1
            pending.extend(t.node.inputs)
    return {"tape": counts}


def _record_forward_mode(attrs, args, kwargs, result):
    attrs["training"] = bool(kwargs.get("training", False))
    attrs["batch"] = int(result.shape[0])


def _record_csv_bytes(attrs, args, kwargs, result):
    attrs["bytes"] = os.path.getsize(args[1])


def _record_rows(attrs, args, kwargs, result):
    attrs["rows"] = sum(trip.length for trip in result)


def _record_windows(attrs, args, kwargs, result):
    attrs["windows"] = len(result)


# ----------------------------------------------------------------- analysis

def _p50(values):
    return statistics.median(values) if values else None


class _Index:
    """Parent/child bookkeeping over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_ns = [0] * len(spans)
        self.root = [0] * len(spans)
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                self.child_ns[parent] += span[END] - span[START]
                self.root[i] = self.root[parent]
            else:
                self.root[i] = i

    def duration_s(self, i):
        return (self.spans[i][END] - self.spans[i][START]) * 1e-9

    def self_s(self, i):
        span = self.spans[i]
        return (span[END] - span[START] - self.child_ns[i]) * 1e-9

    def root_attrs(self, i):
        return self.spans[self.root[i]][ATTRS]

    def parent_name(self, i):
        parent = self.spans[i][PARENT]
        return self.spans[parent][NAME] if parent >= 0 else None

    def ancestor(self, i, name):
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return parent
            parent = self.spans[parent][PARENT]
        return -1


def per_layer_metrics(spans, checkpoint_bytes, e2e_traced,
                      e2e_untraced) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``spans`` come from the run's traced rounds; each top-level span is a
    benchmark operation whose attributes carry ``op``, ``kind`` and
    ``coverage`` (true in the fixed coverage round). Call counts, tape
    counts and layer totals come from the coverage round only, so they
    describe a fixed amount of work; per-call times are medians over every
    traced call.
    """
    ix = _Index(spans)
    out = {}
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def in_coverage(i):
        return bool(ix.root_attrs(i).get("coverage"))

    def kind_of(i):
        return ix.root_attrs(i).get("kind")

    def op_of(i):
        return ix.root_attrs(i).get("op")

    # tensor: backward time per step and the tape behind it
    backward_spans = by_name["tensor.Tensor.backward"]
    for kind in KINDS:
        bwd = [i for i in backward_spans
               if kind_of(i) == kind and op_of(i) == "train"]
        out[f"tensor.backward_ms.{kind}"] = (
            _p50([ix.duration_s(i) * 1e3 for i in bwd]), "ms")
        tapes = [spans[i][ATTRS]["tape"] for i in bwd if in_coverage(i)]
        counts = tapes[0] if tapes else Counter()
        out[f"tensor.nodes.{kind}"] = (sum(counts.values()), "count")
        for op in ("matmul", "concat", "slice"):
            out[f"tensor.nodes.{kind}.{op}"] = (counts.get(op, 0), "count")

    # models: teacher-forced step forward, batched forecast, decoder reruns
    forward_spans = by_name["models.Model.forward"]
    for kind in KINDS:
        tf = [ix.duration_s(i) * 1e3 for i in forward_spans
              if kind_of(i) == kind and ix.parent_name(i) == "training.train"]
        out[f"models.forward_ms.{kind}"] = (_p50(tf), "ms")
        fc = [ix.duration_s(i) * 1e3 for i in forward_spans
              if kind_of(i) == kind and op_of(i) == "forecast"
              and not spans[i][ATTRS].get("training")]
        out[f"models.forecast_ms.{kind}"] = (_p50(fc), "ms")
    for kind in DECODER_INPUT_KINDS:
        forecasts = {i for i in forward_spans
                     if in_coverage(i) and kind_of(i) == kind
                     and op_of(i) == "forecast"
                     and not spans[i][ATTRS].get("training")}
        blocks = sum(1 for i in by_name["layers.DecoderBlock"]
                     if ix.ancestor(i, "models.Model.forward") in forecasts)
        per_call = blocks / len(forecasts) if forecasts else None
        out[f"models.decoder_block_calls_per_forecast.{kind}"] = (per_call,
                                                                  "count")

    # layers: fixed-work totals over the coverage round
    for cls_name in LAYER_CLASSES:
        idx = [i for i in by_name[f"layers.{cls_name}"] if in_coverage(i)]
        out[f"layers.{cls_name}.fwd_s"] = (sum(ix.duration_s(i) for i in idx),
                                           "s")
        out[f"layers.{cls_name}.self_s"] = (sum(ix.self_s(i) for i in idx), "s")
        out[f"layers.{cls_name}.calls"] = (len(idx), "count")

    # training: optimizer work per step, validation and evaluation per call
    for kind in KINDS:
        clips = [ix.duration_s(i) for i in by_name["training.clip_gradients"]
                 if kind_of(i) == kind]
        steps = [ix.duration_s(i) for i in by_name["training.Adam.step"]
                 if kind_of(i) == kind]
        optim = [(c + s) * 1e3 for c, s in zip(clips, steps)]
        out[f"training.optim_ms.{kind}"] = (_p50(optim), "ms")
        val = [ix.duration_s(i) for i in by_name["training._teacher_forced_loss"]
               if kind_of(i) == kind and ix.parent_name(i) == "training.train"]
        out[f"training.val_s.{kind}"] = (_p50(val), "s")
        ev = [ix.duration_s(i) for i in by_name["training.evaluate"]
              if kind_of(i) == kind]
        out[f"training.evaluate_s.{kind}"] = (_p50(ev), "s")

    # data path: seconds per ingest pass, counts from the coverage pass
    passes = [i for i in range(len(spans))
              if spans[i][PARENT] < 0 and spans[i][ATTRS].get("op") == "ingest"]
    per_pass = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(int)
    for name, metric in (("synth.synthesize_trips", "synth.synthesize_s"),
                         ("pipeline.write_trip_csv", "pipeline.write_csv_s"),
                         ("pipeline.load_trips", "pipeline.load_trips_s"),
                         ("pipeline.aggregate_redundant", "pipeline.aggregate_s"),
                         ("pipeline.resample", "pipeline.resample_s"),
                         ("pipeline.make_windows", "pipeline.make_windows_s"),
                         ("pipeline.normalize_and_split",
                          "pipeline.normalize_split_s"),
                         ("savgol.savgol_smooth", "savgol.smooth_s")):
        for i in by_name[name]:
            if op_of(i) != "ingest":
                continue
            per_pass[metric][ix.root[i]] += ix.duration_s(i)
            if in_coverage(i):
                attrs = spans[i][ATTRS]
                counts["pipeline.rows_parsed"] += attrs.get("rows", 0)
                counts["pipeline.windows"] += attrs.get("windows", 0)
                counts["pipeline.csv_bytes"] += attrs.get("bytes", 0)
        values = [per_pass[metric][p] for p in passes if p in per_pass[metric]]
        out[metric] = (_p50(values), "s")
    for metric in ("pipeline.rows_parsed", "pipeline.windows",
                   "pipeline.csv_bytes"):
        out[metric] = (counts[metric], "count")

    # serialize: checkpoint save and load per set-up (all five models)
    setups = [i for i in range(len(spans))
              if spans[i][PARENT] < 0 and spans[i][ATTRS].get("op") == "setup"]
    for name, metric in (("serialize.write_container", "serialize.save_s"),
                         ("serialize.read_container", "serialize.load_s")):
        totals = defaultdict(float)
        for i in by_name[name]:
            totals[ix.root[i]] += ix.duration_s(i)
        out[metric] = (_p50([totals[s] for s in setups if s in totals]), "s")
    out["serialize.checkpoint_bytes"] = (checkpoint_bytes, "count")

    # tracing overhead: relative slowdown of each end-to-end metric
    for name, higher_better in E2E_DIRECTION.items():
        traced, plain = e2e_traced.get(name), e2e_untraced.get(name)
        if traced is None or plain is None:
            value = None
        elif higher_better:
            value = plain / traced - 1.0
        else:
            value = traced / plain - 1.0
        out[f"trace.overhead.{name}"] = (value, "ratio")
    return out

