"""The benchmark workloads and the operations they are made of.

A run sets up five times (synthesize and prepare the model split, build
the five kinds, round-trip each through a checkpoint), then repeats the
workload's mix of operations until the measuring time is up. A traced run
starts with one coverage round that runs every operation once, so every
per-layer metric is measured on every workload, and then traces every
second mix round, so the untraced ones give its tracing overhead. The
operations:

``train``     ``training.train`` for one kind: one epoch over the train
              split (teacher-forced, Adam, clipping) plus its validation.
``forecast``  ``training.evaluate`` for one kind on the held-out split;
              decoder kinds decode autoregressively.
``serve``     a block of batch-1 ``v_tst`` forecasts from one closed-loop
              client, each timed on its own; a block follows each call
              of the other operations.
``ingest``    ``synthesize_trips`` -> ``write_trip_csv`` -> ``load_trips``
              -> ``prepare_dataset`` for one set of trips.

Every model operation starts from the checkpoint-loaded weights. After the
measured time the run checks the outputs; each failed check is a failed
operation.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from tripcast import models, pipeline, synth, tensor, training
from tripcast.models import DECODER_INPUT_KINDS, KINDS, ModelSpec
from tripcast.pipeline import DEFAULT_SCHEMA

from spans import Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent

# pipeline settings of the paper's standard setup (the datagen defaults)
SAMPLE_PERIOD_S = 0.5
SAVGOL_WINDOW, SAVGOL_ORDER = 21, 2
TARGET_PERIOD_S = 5.0

# the seed the stored reference losses belong to
DEFAULT_SEED = 0

# tags that fan one workload seed out into independent input streams
SEED_DATA, SEED_SPLIT, SEED_BUILD, SEED_TRAIN, SEED_INGEST = range(5)

REFERENCE_RTOL = 1e-6
MEAN_ATOL = 1e-9


def derive(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def prepare(scale, trips, sizes, seed):
    """The paper's pipeline settings applied to ``trips``."""
    spec = ModelSpec(kind=KINDS[0], **scale.spec)
    return pipeline.prepare_dataset(
        trips, DEFAULT_SCHEMA, spec.window, spec.horizon, SAVGOL_WINDOW,
        SAVGOL_ORDER, TARGET_PERIOD_S, *sizes, seed)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale."""

    spec: dict                 # ModelSpec overrides; empty is the default
    trip_length: int           # samples per synthesized trip
    model_trips: int           # trips behind the model split
    split: tuple               # (train, validation, test) windows
    batch: int
    serve_block: dict          # workload -> batch-1 requests after each step
    min_requests: int          # latency needs at least this many
    ingest: dict               # workload -> (trips per pass, split sizes)
    reference_n: int           # windows per split in the reference check
    ar_check_batch: int


FULL = Scale(
    spec={},
    trip_length=3000,
    model_trips=4,
    split=(128, 64, 64),
    batch=64,
    serve_block={"train": 4, "forecast": 8},
    min_requests=100,
    ingest={"train": (5, (1000, 200, 200)),
            "forecast": (5, (1000, 200, 200))},
    reference_n=16,
    ar_check_batch=8,
)

# for the smoke test only: same code paths, toy sizes
TINY = Scale(
    spec=dict(d_model=16, n_heads=2, enc_layers=1, dec_layers=1,
              ffn_width=16, lstm_layers=1),
    trip_length=400,
    model_trips=4,
    split=(32, 16, 16),
    batch=16,
    serve_block={"train": 1, "forecast": 2},
    min_requests=10,
    ingest={"train": (2, (24, 8, 8)),
            "forecast": (2, (24, 8, 8))},
    reference_n=4,
    ar_check_batch=2,
)

SCALES = {"full": FULL, "tiny": TINY}

# one round of each workload; a serve block follows every step, so the
# batch-1 requests are spread over the whole run
COVERAGE = ("train", "forecast", "ingest")
MIXES = {
    "train": ("train", "ingest"),
    "forecast": ("forecast", "ingest"),
}
# mix rounds that must finish before the deadline may end a run; two, so a
# traced run has both a traced and an untraced one
MIN_MIX_ROUNDS = 2
# set-ups per run; setup_s is their median
SETUPS = 5


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict              # name -> (value, unit)
    samples: dict              # name -> sample count behind the value
    failures: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)  # untraced samples, in order


class Bench:
    def __init__(self, workload: str, seed: int, scale: Scale, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work_dir
        self.tracer = Tracer()
        self.tracing = False
        self.coverage = False
        self.attempted = 0
        self.failures = []
        # samples per pool: pools[traced][key] -> list
        self.pools = {False: defaultdict(list), True: defaultdict(list)}
        self.setup_s = []
        self.first_loss = {}
        self.warm = set()
        self.request_i = 0
        self.ingest_i = 0

    # ------------------------------------------------------------- helpers

    def spec(self, kind: str) -> ModelSpec:
        return ModelSpec(kind=kind, **self.scale.spec)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def set_tracing(self, on: bool) -> None:
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.tracing = on

    def timed(self, op: str, kind: str | None, fn):
        """Run one operation; returns ``(seconds, result)`` or None on error."""
        self.attempted += 1
        span = (self.tracer.begin(f"bench.{op}", {
            "op": op, "kind": kind, "coverage": self.coverage})
            if self.tracing else None)
        tic = time.perf_counter()
        try:
            result = fn()
        except Exception:     # noqa: BLE001 - a failed operation is counted
            traceback.print_exc()
            self.failures.append(f"{op} {kind or ''} raised")
            return None
        finally:
            elapsed = time.perf_counter() - tic
            if span is not None:
                self.tracer.end(span)
        return elapsed, result

    def sample(self, key, value) -> None:
        # the first call of each kind of operation warms allocator and
        # caches; it runs and is checked but is not a sample
        if key not in self.warm:
            self.warm.add(key)
            return
        self.pools[self.tracing][key].append(value)

    # --------------------------------------------------------------- setup

    def setup_once(self) -> None:
        sc = self.scale

        def build_all():
            trips = synth.synthesize_trips(
                sc.model_trips, sc.trip_length, derive(self.seed, SEED_DATA),
                sample_period_s=SAMPLE_PERIOD_S)
            split = prepare(sc, trips, sc.split, derive(self.seed, SEED_SPLIT))
            built, loaded = {}, {}
            for kind in KINDS:
                built[kind] = models.build(self.spec(kind),
                                           derive(self.seed, SEED_BUILD))
                path = self.work / f"{kind}.ckpt"
                models.save_checkpoint(built[kind], path)
                loaded[kind], _, _ = models.load_checkpoint(path)
            return split, built, loaded

        out = self.timed("setup", None, build_all)
        if out is None:
            return
        seconds, (split, built, loaded) = out
        self.setup_s.append(seconds)
        for kind in KINDS:
            before = built[kind].named_params()
            after = loaded[kind].named_params()
            self.check(
                [n for n, _ in before] == [n for n, _ in after]
                and all(a.data.dtype == b.data.dtype
                        and a.data.tobytes() == b.data.tobytes()
                        for (_, a), (_, b) in zip(before, after)),
                f"checkpoint round trip changed {kind} weights")
        self.split = split
        self.models = loaded
        self.initial = {kind: [p.data.copy() for _, p in m.named_params()]
                        for kind, m in loaded.items()}
        self.dirty = set()
        self.checkpoint_bytes = sum(
            (self.work / f"{kind}.ckpt").stat().st_size for kind in KINDS)
        self.xs = np.stack([s.x_enc for s in split.test])
        self.starts = np.stack([s.teacher[0] for s in split.test])

    def fresh(self, kind: str):
        """The kind's model with its checkpoint weights restored."""
        model = self.models[kind]
        if kind in self.dirty:
            for (_, p), init in zip(model.named_params(), self.initial[kind]):
                p.data = init.copy()
            self.dirty.discard(kind)
        return model

    # ---------------------------------------------------------- operations

    def op_train(self, kind: str) -> None:
        model = self.fresh(kind)
        self.dirty.add(kind)
        cfg = training.TrainConfig(epochs=1, batch_size=self.scale.batch,
                                   seed=derive(self.seed, SEED_TRAIN))
        out = self.timed("train", kind,
                         lambda: training.train(model, self.split, cfg))
        if out is None:
            return
        seconds, (_, log) = out
        self.sample(("train", kind), len(self.split.train) / seconds)
        losses = [v for e in log.entries for v in (e.train_loss, e.val_loss)]
        self.check(all(math.isfinite(v) for v in losses),
                   f"non-finite loss training {kind}")
        final = log.entries[-1].train_loss
        first = self.first_loss.setdefault(kind, final)
        self.check(final == first,
                   f"{kind} final loss {final!r} differs from the run's first "
                   f"{first!r} on identical inputs")

    def op_forecast(self, kind: str) -> None:
        model = self.fresh(kind)
        test = self.split.test
        out = self.timed("forecast", kind, lambda: training.evaluate(
            model, test, self.split.stats, DEFAULT_SCHEMA.target_channels,
            "test", self.scale.batch))
        if out is None:
            return
        seconds, report = out
        self.sample(("forecast", kind), len(test) / seconds)
        self.check(math.isfinite(report.mse)
                   and math.isfinite(report.r2_pooled),
                   f"non-finite {kind} forecast")

    def op_serve(self) -> None:
        model = self.fresh("v_tst")
        n = len(self.xs)
        for _ in range(self.scale.serve_block[self.workload]):
            i = self.request_i % n
            self.request_i += 1
            x, start = self.xs[i:i + 1], self.starts[i:i + 1]

            def request():
                with tensor.no_grad():
                    return model.forward(x, start=start)

            out = self.timed("serve", "v_tst", request)
            if out is None:
                continue
            seconds, pred = out
            self.sample("latency", seconds * 1e3)
            self.check(bool(np.all(np.isfinite(pred.data))),
                       "non-finite batch-1 forecast")

    def op_ingest(self) -> None:
        n_trips, sizes = self.scale.ingest[self.workload]
        pass_dir = self.work / f"ingest-{self.ingest_i}"
        self.ingest_i += 1
        pass_dir.mkdir()

        def ingest():
            trips = synth.synthesize_trips(
                n_trips, self.scale.trip_length,
                derive(self.seed, SEED_INGEST),
                sample_period_s=SAMPLE_PERIOD_S)
            for trip in trips:
                pipeline.write_trip_csv(trip, pass_dir / f"{trip.trip_id}.csv")
            loaded = pipeline.load_trips(pass_dir, DEFAULT_SCHEMA,
                                         SAMPLE_PERIOD_S)
            split = prepare(self.scale, loaded, sizes,
                            derive(self.seed, SEED_SPLIT))
            return trips, loaded, split

        out = self.timed("ingest", None, ingest)
        shutil.rmtree(pass_dir)
        if out is None:
            return
        seconds, (trips, loaded, split) = out
        self.sample("trips", n_trips / seconds)
        self.check(
            [t.trip_id for t in trips] == [t.trip_id for t in loaded]
            and all(set(a.channels) == set(b.channels)
                    and all(a.channels[c].tobytes() == b.channels[c].tobytes()
                            for c in a.channels)
                    for a, b in zip(trips, loaded)),
            "CSV round trip is not bit-exact")
        self.check((len(split.train), len(split.validation), len(split.test))
                   == tuple(sizes), "split sizes differ from those asked for")
        xs = np.stack([s.x_enc for s in split.train])
        self.check(float(np.max(np.abs(xs.mean(axis=(0, 1))))) <= MEAN_ATOL,
                   f"normalized train inputs have a channel mean above "
                   f"{MEAN_ATOL}")

    def steps(self, op: str):
        if op == "train":
            return [lambda k=k: self.op_train(k) for k in KINDS]
        if op == "forecast":
            return [lambda k=k: self.op_forecast(k) for k in KINDS]
        return [self.op_ingest]

    # ------------------------------------------------------------- measure

    def measure(self, seconds: float, trace: bool) -> None:
        self._rounds(time.perf_counter() + seconds, trace)
        self.coverage = False
        self.set_tracing(False)
        latency = self.pools[False]["latency"]
        while len(latency) < self.scale.min_requests:
            before = len(latency)
            self.op_serve()
            if len(latency) == before:
                break

    def _rounds(self, deadline: float, trace: bool) -> None:
        first_mix = 1 if trace else 0
        rounds = chain([COVERAGE] * first_mix, repeat(MIXES[self.workload]))
        for r, ops in enumerate(rounds):
            # traced runs trace the coverage round and every second mix round
            self.coverage = trace and r == 0
            self.set_tracing(trace and r % 2 == 0)
            for op in ops:
                for step in self.steps(op):
                    if (r >= first_mix + MIN_MIX_ROUNDS
                            and time.perf_counter() >= deadline):
                        return
                    step()
                    self.op_serve()

    # -------------------------------------------------------------- checks

    def check_autoregressive(self) -> None:
        """Decoding must equal a teacher-forced pass fed the same values."""
        b = self.scale.ar_check_batch
        x, start = self.xs[:b], self.starts[:b]
        for kind in DECODER_INPUT_KINDS:
            model = self.fresh(kind)
            with tensor.no_grad():
                ar = model.forward(x, start=start).data
                teacher = np.concatenate([start[:, None, :], ar[:, :-1, :]],
                                         axis=1)
                tf = model.forward(x, teacher=teacher, training=True).data
            self.check(np.all(np.isfinite(ar)) and ar.tobytes() == tf.tobytes(),
                       f"{kind} autoregressive output differs from teacher "
                       "forcing on the same inputs")

    def check_reference(self, reference: dict) -> None:
        """Final training loss at the default seed against stored values."""
        for kind, got in reference_losses(self.scale).items():
            want = reference.get(kind)
            self.check(
                want is not None and math.isfinite(got)
                and abs(got - want) <= REFERENCE_RTOL * abs(want),
                f"{kind} reference loss {got!r}, stored {want!r} "
                f"(rtol {REFERENCE_RTOL})")

    # ------------------------------------------------------------- results

    def end_to_end(self, traced: bool) -> tuple:
        pool = self.pools[traced]
        values, counts = {}, {}
        op = self.workload  # the operation behind samples_per_s
        for kind in KINDS:
            xs = pool[(op, kind)]
            values[f"samples_per_s.{kind}"] = _median(xs)
            counts[f"samples_per_s.{kind}"] = len(xs)
        lat = pool["latency"]
        for q in (50, 90):
            values[f"latency_p{q}_ms"] = (float(np.percentile(lat, q))
                                          if lat else None)
            counts[f"latency_p{q}_ms"] = len(lat)
        values["trips_per_s"] = _median(pool["trips"])
        counts["trips_per_s"] = len(pool["trips"])
        return values, counts


E2E_UNITS = {**{f"samples_per_s.{k}": "samples/s" for k in KINDS},
             "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "trips_per_s": "trips/s", "setup_s": "s"}


def _median(xs):
    return statistics.median(xs) if xs else None


def reference_losses(scale: Scale) -> dict:
    """Final training loss of each kind: two epochs on one small batch.

    Data, weights and shuffling come from ``DEFAULT_SEED`` whatever the
    workload seed, so the values can be stored with the benchmark
    (``reference.json``) and checked on every run.
    """
    n = scale.reference_n
    trips = synth.synthesize_trips(1, scale.trip_length,
                                   derive(DEFAULT_SEED, SEED_DATA),
                                   sample_period_s=SAMPLE_PERIOD_S)
    split = prepare(scale, trips, (n, n, n), derive(DEFAULT_SEED, SEED_SPLIT))
    cfg = training.TrainConfig(epochs=2, batch_size=n,
                               seed=derive(DEFAULT_SEED, SEED_TRAIN))
    losses = {}
    for kind in KINDS:
        model = models.build(ModelSpec(kind=kind, **scale.spec),
                             derive(DEFAULT_SEED, SEED_BUILD))
        _, log = training.train(model, split, cfg)
        losses[kind] = log.entries[-1].train_loss
    return losses


def load_reference(scale_name: str) -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["final_train_loss"][scale_name]


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale_name: str, work_dir: Path):
    """Run one workload; returns ``(Result, spans or None)``."""
    bench = Bench(workload, seed, SCALES[scale_name], work_dir)
    bench.set_tracing(trace)
    for _ in range(SETUPS):
        bench.setup_once()
    bench.set_tracing(False)
    if not bench.setup_s:
        return Result(False, bench.attempted, len(bench.failures), {}, {},
                      bench.failures), None
    bench.measure(seconds, trace)
    bench.check_autoregressive()
    bench.check_reference(load_reference(scale_name))

    plain, counts = bench.end_to_end(traced=False)
    if trace:
        traced, _ = bench.end_to_end(traced=True)
        metrics = per_layer_metrics(bench.tracer.spans, bench.checkpoint_bytes,
                                    traced, plain)
        counts = {}
    else:
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in plain.items()}
        metrics["setup_s"] = (_median(bench.setup_s), "s")
        counts["setup_s"] = len(bench.setup_s)
    for name, (value, _) in metrics.items():
        bench.check(value is not None, f"metric {name} has no samples")
    raw = {"/".join(key) if isinstance(key, tuple) else key: values
           for key, values in bench.pools[False].items()}
    raw["setup_s"] = bench.setup_s
    result = Result(not bench.failures, bench.attempted, len(bench.failures),
                    metrics, counts, bench.failures, raw)
    return result, (bench.tracer.spans if trace else None)
