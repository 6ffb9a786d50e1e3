"""Shared data model: datasets, transition matrices, configuration, reports.

All container types are frozen after construction (numpy buffers are made
read-only) so they can be shared across workers without copying.
"""

import csv
import json
from dataclasses import dataclass, field, asdict
from itertools import chain

import numpy as np

ROW_SUM_ATOL = 1e-9

# variant -> (whiten first, f-divergence of the dimension weights or None)
VARIANTS = {
    "plain-hoc": (False, None),
    "x-kl": (False, "kl"),
    "x-tv": (False, "tv"),
    "a-kl": (True, "kl"),
    "a-tv": (True, "tv"),
}
ACTIVATIONS = ("minmax", "log-minmax")


class DataError(ValueError):
    """Raised when an input file or matrix violates the data contract."""


def load_json(path):
    """Decode a JSON file; a file that is not JSON is a `DataError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from None


def dump_json(obj, fh):
    """Write a dataclass (nested dataclasses and arrays included) as JSON."""
    json.dump(asdict(obj), fh, indent=2, default=lambda a: a.tolist())


def save_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(obj, fh)


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass
class Dataset:
    """N feature vectors with noisy labels, optionally paired with clean labels.

    features: (N, d) float array, finite entries only.
    noisy_labels / clean_labels: integer labels in [0, K).
    """

    features: np.ndarray
    noisy_labels: np.ndarray
    k: int
    clean_labels: np.ndarray | None = None
    ids: list | None = None

    def __post_init__(self):
        self.features = _freeze(np.asarray(self.features, dtype=np.float64))
        self.noisy_labels = _freeze(np.asarray(self.noisy_labels, dtype=np.int64))
        if self.clean_labels is not None:
            self.clean_labels = _freeze(np.asarray(self.clean_labels, dtype=np.int64))
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise DataError("features must be a 2-d matrix with d >= 1")
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite feature")
        n = self.features.shape[0]
        if n < 3:
            raise DataError(f"need at least 3 rows, got {n}")
        if self.k < 2:
            raise DataError(f"class count must be >= 2, got {self.k}")
        for name, labels in (("noisy", self.noisy_labels), ("clean", self.clean_labels)):
            if labels is None:
                continue
            if labels.shape != (n,):
                raise DataError(f"{name} labels must have length N={n}")
            if labels.min() < 0 or labels.max() >= self.k:
                raise DataError(f"{name} label out of range [0, {self.k})")
        if self.ids is not None and len(self.ids) != n:
            raise DataError("ids must have length N")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]


def load_dataset(path, schema=None, k=None):
    """Read a dataset from CSV.

    Expected columns: ``f0..f{d-1}``, ``noisy_label`` and optionally
    ``clean_label`` and ``id``, in any order and among other columns.
    ``schema`` maps these canonical names to the actual column names in the
    file.  Fields may be quoted, ``#`` is data, not a comment, and ``id`` is
    read as text.  K is inferred as 1 + max label unless given.
    """
    schema = schema or {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if not any(reader):  # stops at the first non-blank row
                raise DataError(f"{path}: no data rows")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None

    def col(name):
        return schema.get(name, name)

    pos = {name: i for i, name in enumerate(header)}
    noisy_col = col("noisy_label")
    clean_col = col("clean_label")
    id_col = col("id")
    if noisy_col not in pos:
        raise DataError(f"{path}: missing column '{noisy_col}'")

    d = 0
    while col(f"f{d}") in pos:
        d += 1
    if d == 0:
        raise DataError(f"{path}: no feature columns found (expected f0, f1, ...)")

    fields = [("features", np.float64, (d,)), ("noisy", np.int64)]
    usecols = [pos[col(f"f{i}")] for i in range(d)] + [pos[noisy_col]]
    if clean_col in pos:
        fields.append(("clean", np.int64))
        usecols.append(pos[clean_col])
    read = dict(delimiter=",", quotechar='"', comments=None, skiprows=1,
                ndmin=1, encoding="utf-8")
    try:
        table = np.loadtxt(path, dtype=fields, usecols=usecols, **read)
        ids = (np.loadtxt(path, dtype=str, usecols=pos[id_col], **read).tolist()
               if id_col in pos else None)
    except ValueError as exc:
        raise DataError(f"{path}: failed to parse: {exc}") from None
    noisy = table["noisy"]
    clean = table["clean"] if clean_col in pos else None

    if k is None:
        k = int(noisy.max()) + 1 if clean is None else int(max(noisy.max(), clean.max())) + 1
        k = max(k, 2)
    return Dataset(table["features"], noisy, k, clean_labels=clean, ids=ids)


def save_dataset(data, path):
    """Write a dataset to CSV with the canonical column layout.

    Floats are written as their shortest round-tripping repr, so a saved
    file loads back bit for bit.
    """
    header = [f"f{i}" for i in range(data.d)] + ["noisy_label"]
    tails = [data.noisy_labels.tolist()]
    if data.clean_labels is not None:
        header.append("clean_label")
        tails.append(data.clean_labels.tolist())
    if data.ids is not None:
        header.append("id")
        tails.append(data.ids)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(chain, data.features.tolist(), zip(*tails)))


@dataclass
class TransitionMatrix:
    """K x K row-stochastic matrix; t[i, j] = P(noisy=j | clean=i)."""

    k: int
    t: np.ndarray
    p: np.ndarray | None = None

    def __post_init__(self):
        self.t = _freeze(np.asarray(self.t, dtype=np.float64))
        if self.t.shape != (self.k, self.k):
            raise DataError(f"expected a {self.k}x{self.k} matrix, got {self.t.shape}")
        if not np.all((self.t >= -ROW_SUM_ATOL) & (self.t <= 1 + ROW_SUM_ATOL)):
            raise DataError("transition entries must lie in [0, 1]")
        bad = np.abs(self.t.sum(axis=1) - 1.0) > ROW_SUM_ATOL
        if np.any(bad):
            raise DataError(f"row sum deviates from 1 in rows {np.flatnonzero(bad).tolist()}")
        if self.p is not None:
            self.p = _freeze(np.asarray(self.p, dtype=np.float64))
            if self.p.shape != (self.k,):
                raise DataError("prior must have length K")
            if not (np.all(self.p >= -ROW_SUM_ATOL)
                    and abs(self.p.sum() - 1.0) <= ROW_SUM_ATOL):
                raise DataError("prior must be a probability vector")

    @classmethod
    def from_json(cls, obj):
        """Read the object `dump_json` writes: `k`, `t` and `p` (may be null)."""
        if not isinstance(obj, dict):
            raise DataError("transition matrix JSON must be an object with keys "
                            f"'k' and 't', got {type(obj).__name__}")
        try:
            k, t = int(obj["k"]), np.array(obj["t"], dtype=np.float64)
            p = None if obj.get("p") is None else np.array(obj["p"], dtype=np.float64)
        except KeyError as exc:
            raise DataError(f"transition matrix JSON lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed transition matrix JSON: {exc}") from None
        return cls(k, t, p=p)

    @classmethod
    def load(cls, path):
        return cls.from_json_file(load_json(path), path)

    @classmethod
    def from_json_file(cls, obj, path):
        """`from_json` of an object read from `path`; errors name the file."""
        try:
            return cls.from_json(obj)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def validate_transition(t, p=None):
    """Check row-stochasticity of a square matrix and wrap it.

    Entries are returned unchanged; a row sum off by more than ROW_SUM_ATOL
    (1e-9), or an entry below -ROW_SUM_ATOL or above 1 + ROW_SUM_ATOL, is an
    error.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DataError("transition matrix must be square")
    return TransitionMatrix(t.shape[0], t, p=p)


@dataclass
class NoiseRatePair:
    """Binary noise rates e1 = P(noisy=2|clean=1), e2 = P(noisy=1|clean=2)."""

    e1: float
    e2: float

    def require_estimable(self):
        if self.e1 < 0 or self.e2 < 0:
            raise DataError("noise rates must be nonnegative")
        if self.e1 + self.e2 >= 1:
            raise DataError(f"need e1 + e2 < 1, got {self.e1 + self.e2}")


@dataclass
class OptimizerConfig:
    """Solver budget: EM from each start stops after `max_iters` iterations,
    or once an iteration gains at most `tolerance / n` in the per-triplet
    log-likelihood for n counted triplets."""

    max_iters: int = 3000
    tolerance: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise DataError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise DataError(f"tolerance must be finite and > 0, got {self.tolerance!r}")


@dataclass
class EstimatorConfig:
    variant: str = "plain-hoc"
    bins: int = 15
    activation: str = "minmax"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    eigen_floor: float = 1e-10

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant '{self.variant}' "
                            f"(choose from {', '.join(VARIANTS)})")
        if self.activation not in ACTIVATIONS:
            raise DataError(f"unknown activation '{self.activation}'")
        if self.bins < 2:
            raise DataError("bins must be >= 2")


# Stage names used to derive independent, reproducible RNG streams from the
# single run seed.
_STAGES = ("noise", "optimizer", "training", "synthesis")


def stage_rng(seed, stage):
    """Deterministic per-stage generator derived from the global seed."""
    if stage not in _STAGES:
        raise ValueError(f"unknown stage '{stage}'")
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, _STAGES.index(stage)])
    return np.random.default_rng(ss)


@dataclass
class Report:
    """Everything a single estimation run produces."""

    estimated_t: TransitionMatrix
    consensus: object  # hoc.ConsensusStatistics
    weights: object | None = None  # infotheory.WeightVector
    error: float | None = None
    converged: bool = True
    config_echo: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    excluded_rows: int = 0  # rows with zero weighted norm, left out of the 2-NN search

    def __post_init__(self):
        if self.error is not None and not (0.0 <= self.error <= 1.0):
            raise DataError(f"error must lie in [0, 1], got {self.error}")
