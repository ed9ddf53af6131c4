"""Run configuration: defaults, JSON round trips, and typo-safe parsing.

A config file is the unit of reproducibility. Every key has a default;
unknown keys are rejected (all of them reported at once). All randomness
fans out from the root ``seed``: the data and train seeds are derived from
it unless the file pins them explicitly, and the echoed effective config
always contains the concrete values so a rerun from the echo reproduces
the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .models import KINDS, ModelSpec, number_problems
from .pipeline import DEFAULT_SCHEMA, FeatureSchema, resample_stride
from .savgol import check_params
from .training import TrainConfig

# fan-out tags for deriving per-component seeds from the root seed
SEED_DATA = 0
SEED_TRAIN = 1
SEED_BUILD = 2


def fan_seed(root: int, tag: int) -> int:
    """Deterministically derive a component seed from the root seed."""
    return int(np.random.SeedSequence((root, tag)).generate_state(1)[0])


# the kind of number each numeric data field holds (see number_problems)
DATA_NUMBERS = {
    **dict.fromkeys(("n_trips", "trip_length", "window", "horizon", "train_n",
                     "val_n", "test_n"), "positive integer"),
    **dict.fromkeys(("sample_period_s", "target_period_s"), "positive number"),
    **dict.fromkeys(("noise_std", "velocity_scale"), "non-negative number"),
    **dict.fromkeys(("savgol_window", "savgol_order"), "integer"),
    "seed": "non-negative integer",
}


@dataclass
class DataConfig:
    source: str = "synth"            # "synth" or "csv"
    trips_path: str = ""             # input file/directory for source="csv"
    n_trips: int = 20
    trip_length: int = 3000
    sample_period_s: float = 0.5
    noise_std: float = 0.01
    velocity_scale: float = 1.0
    savgol_window: int = 21
    savgol_order: int = 2
    target_period_s: float = 5.0
    window: int = ModelSpec.window
    horizon: int = ModelSpec.horizon
    train_n: int = 4000
    val_n: int = 500
    test_n: int = 500
    split_mode: str = "shuffle"
    seed: int = 0
    schema: dict | None = None       # FeatureSchema override, None = default

    def feature_schema(self) -> FeatureSchema:
        if self.schema is None:
            return DEFAULT_SCHEMA
        return FeatureSchema.from_dict(self.schema)

    def __post_init__(self):
        problems = [p for name, kind in DATA_NUMBERS.items()
                    for p in number_problems(f"data.{name}",
                                             getattr(self, name), kind)]
        if not problems:   # the pipeline's own rules, given numbers
            for keys, rule in ((("sample_period_s", "target_period_s"),
                                resample_stride),
                               (("savgol_window", "savgol_order"),
                                check_params)):
                try:
                    rule(*(getattr(self, k) for k in keys))
                except ValueError as exc:
                    problems.append(f"data.{keys[0]}, data.{keys[1]}: {exc}")
            # R² is scored per target over windows × horizon points, and
            # needs two; trip_holdout ignores train_n (the split checks it)
            sized = (("val_n", "test_n") if self.split_mode == "trip_holdout"
                     else ("train_n", "val_n", "test_n"))
            single = [f"data.{k}" for k in sized if getattr(self, k) == 1]
            if self.horizon == 1 and single:
                problems.append(f"{', '.join(single)} = 1 with data.horizon "
                                "= 1 leaves one point per target, and R² "
                                "needs at least 2")
        if self.source not in ("synth", "csv"):
            problems.append(f"data.source must be 'synth' or 'csv', "
                            f"got {self.source!r}")
        if not isinstance(self.trips_path, str):
            problems.append(f"data.trips_path must be a string, "
                            f"got {self.trips_path!r}")
        elif self.source == "csv" and not self.trips_path:
            problems.append("data.trips_path is required when "
                            "data.source='csv'")
        if self.split_mode not in ("shuffle", "trip_holdout"):
            problems.append(f"data.split_mode must be 'shuffle' or "
                            f"'trip_holdout', got {self.split_mode!r}")
        if self.schema is not None:
            try:
                self.feature_schema()
            except Exception as exc:   # noqa: BLE001 - report, don't crash
                problems.append(f"data.schema is not a valid schema: {exc}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class ModelConfig:
    kind: str = "v_tst"
    d_model: int = ModelSpec.d_model
    n_heads: int = ModelSpec.n_heads
    enc_layers: int = ModelSpec.enc_layers
    dec_layers: int = ModelSpec.dec_layers
    ffn_width: int = ModelSpec.ffn_width
    lstm_layers: int = ModelSpec.lstm_layers

    def compose_spec(self, data: DataConfig) -> ModelSpec:
        schema = data.feature_schema()
        return ModelSpec(**asdict(self), window=data.window,
                         horizon=data.horizon,
                         n_features=len(schema.input_channels),
                         n_targets=len(schema.target_channels))

    def __post_init__(self):
        # placeholder sizes: the data section reports its own fields
        try:
            ModelSpec(**asdict(self), window=1, horizon=1, n_features=1,
                      n_targets=1)
        except ValueError as exc:
            raise ValueError(f"model: {exc}") from None


DEFAULT_GRID_CASES = ((12, 6), (30, 6), (50, 30))


@dataclass
class GridConfig:
    kinds: list = field(default_factory=lambda: list(KINDS))
    cases: list = field(default_factory=lambda: [list(c)
                                                 for c in DEFAULT_GRID_CASES])

    def __post_init__(self):
        keys = (("kinds", self.kinds), ("cases", self.cases))
        problems = [f"grid.{name} must be a list, got {value!r}"
                    for name, value in keys if not isinstance(value, list)]
        if not problems:
            problems += [f"grid.{name} must not be empty"
                         for name, value in keys if not value]
            problems += [f"grid.kinds entry {k!r} unknown; expected one of: "
                         + ", ".join(KINDS) for k in self.kinds
                         if k not in KINDS]
            problems += [f"grid.cases entry {c!r} must be a [window, horizon] "
                         "pair of positive integers" for c in self.cases
                         if not (isinstance(c, (list, tuple)) and len(c) == 2
                                 and not any(number_problems("", v)
                                             for v in c))]
            # a repeated entry would be one table column or row twice
            problems += [f"grid.{name} entry {e!r} is repeated"
                         for name, value in keys
                         for i, e in enumerate(value)
                         if value[:i].count(e) == 1]
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/out"
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    grid: GridConfig = field(default_factory=GridConfig)

    def __post_init__(self):
        problems = number_problems("seed", self.seed, "non-negative integer")
        if not isinstance(self.output_dir, str):
            problems.append(f"output_dir must be a string, "
                            f"got {self.output_dir!r}")
        if problems:
            raise ValueError("; ".join(problems))


SECTIONS = {"data": DataConfig, "model": ModelConfig, "train": TrainConfig,
            "grid": GridConfig}


def config_from_dict(d: dict) -> RunConfig:
    """Build a RunConfig, applying defaults and root-seed fan-out.

    Rejects unknown keys anywhere in the tree, reporting every offender in
    one error; then builds every section, each refusing its own bad values,
    and reports every refusal in one ``invalid config`` error. Seeds
    omitted from the data/train sections are derived from the root ``seed``.
    """
    if not isinstance(d, dict):
        raise ValueError(f"config root must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(RunConfig)})
    problems, sections = [], {}
    for name, cls in SECTIONS.items():
        raw = d.get(name, {})
        if not isinstance(raw, dict):
            problems.append(f"config section {name!r} must be an object")
            raw = {}
        unknown += [f"{name}.{k}"
                    for k in sorted(set(raw) - {f.name for f in fields(cls)})]
        sections[name] = dict(raw)
    if unknown:
        raise ValueError("unknown config key(s): " + ", ".join(unknown))

    def build(cls, values):
        try:
            return cls(**values)
        except ValueError as exc:
            problems.append(str(exc))

    cfg = build(RunConfig, {k: v for k, v in d.items() if k not in SECTIONS})
    if cfg is not None:
        for name, tag in (("data", SEED_DATA), ("train", SEED_TRAIN)):
            sections[name].setdefault("seed", fan_seed(cfg.seed, tag))
    built = {name: build(cls, sections[name])
             for name, cls in SECTIONS.items()}
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return replace(cfg, **built)


def load_config(path=None, overrides=None) -> RunConfig:
    """Read a JSON config file (all defaults when ``path`` is None), apply
    ``section.key=value`` overrides, and validate the result."""
    d = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
        except FileNotFoundError:
            raise ValueError(f"{path}: config file not found") from None
        except OSError as exc:
            raise ValueError(f"{path}: cannot read config file: "
                             f"{exc.strerror or exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        if not isinstance(d, dict):
            raise ValueError(f"{path}: config root must be an object, "
                             f"got {type(d).__name__}")
    return config_from_dict(apply_overrides(d, overrides or []))


def apply_overrides(d: dict, overrides: list) -> dict:
    """Apply ``section.key=value`` strings onto a raw config dict.

    Values parse as JSON when possible, else as plain strings, so
    ``-O data.window=30`` and ``-O model.kind=lstm`` both work.
    """
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        dotted, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = dotted.split(".")
        node = d
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {item!r}: {p!r} is not a section")
        node[parts[-1]] = value
    return d
