"""Shared data model: datasets, transition matrices, configuration, reports.

Every float a public function or container takes enters through `_real`
(scalars) or `_reals` (arrays): text, None and NaN or infinite values are a
`DataError` that names the argument, and for an array the index of its first
non-finite entry.  Every label and row id enters through `_int_labels`: a
whole number, at least 0 and below K where a K applies; text, None,
fractions and ragged nesting are a `DataError` that names it.  Containers
keep read-only buffers, so no later in-place write can break an invariant
`__post_init__` has checked; a writeable input array is copied once, never
frozen under its owner.  A config, weights or matrix argument of another
type is a `DataError` that names it (`_instance`).  Equal rows are grouped in
one place, `_distinct_rows`, which both whitening and the 2-NN search use to
keep equal rows bitwise equal through a matrix product.
"""

import json
import re
import warnings
from dataclasses import dataclass, field, asdict

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
DIVERGENCES = ("kl", "tv")
ACTIVATIONS = ("minmax", "log-minmax")


class DataError(ValueError):
    """Raised when an input file or matrix violates the data contract."""


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


def _integer(value, name, low=None):
    """`value` if it is a Python or numpy integer, not a bool, of at least
    `low`; anything else is an error that names it, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise DataError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _real(value, name, above=None):
    """`value` as a float if it is a finite Python or numpy real, not a bool,
    above `above`; anything else is an error that names it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not np.isfinite(value) or (above is not None and value <= above):
        bound = "" if above is None else f" and > {above}"
        raise DataError(f"{name} must be finite{bound}, got {value!r}")
    return float(value)


def _instance(value, cls, name):
    """`value` if it is a `cls`; anything else is an error that names it."""
    if not isinstance(value, cls):
        raise DataError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def _array(values):
    """`np.asarray(values)`, or a 0-d object array where nesting is ragged."""
    try:
        return np.asarray(values)
    except ValueError:  # ragged nesting
        return np.asarray(None)


def _reals(values, name, frozen=True):
    """`values` as a C-ordered float64 array of finite entries; text, None,
    ragged nesting and NaN or inf are errors that name it (and the first bad
    index).  Frozen, for a container to keep, it is read-only: an array the
    caller can still write to is copied once, a read-only one is kept.
    Unfrozen, for a function that only reads it, it may be the caller's own."""
    a = _array(values)
    if a.dtype.kind not in "biuf":
        raise DataError(f"{name} must be numeric")
    a = a.astype(np.float64, order="C", copy=False)
    if not np.all(np.isfinite(a)):
        index = np.argwhere(~np.isfinite(a))[0].tolist()
        raise DataError(f"{name} must be finite, got {a[tuple(index)]} at index {index}")
    if frozen:
        if a.flags.writeable and (a is values or not a.flags.owndata):
            a = a.copy()
        a.setflags(write=False)
    return a


def _int_labels(labels, name, k=None):
    """Labels or row ids as a frozen int64 array of whole numbers, at least 0
    and below `k` where one is given; text, None, fractions, floats beyond
    int64 and ragged nesting are errors that name them, never truncated, and
    unsigned values of 2**63 or more are errors, never wrapped."""
    labels = _array(labels)
    whole = labels.dtype.kind in "biu" or (labels.dtype.kind == "f" and np.all(
        (labels == np.trunc(labels)) & (np.abs(labels) < 2.0 ** 63)))
    if not whole:
        raise DataError(f"{name} must be integers")
    if labels.dtype.kind == "u" and labels.max(initial=0) >= 2 ** 63:
        raise DataError(f"{name} out of range [0, {k})" if k is not None
                        else f"{name} must be below 2**63, got {labels.max()}")
    labels = labels.astype(np.int64)
    low, high = labels.min(initial=0), labels.max(initial=-1)
    if k is not None and (low < 0 or high >= k):
        raise DataError(f"{name} out of range [0, {k})")
    if low < 0:
        raise DataError(f"{name} must be nonnegative, got {low}")
    return _freeze(labels)


def _row_hash(bits):
    """A 64-bit multiply-add hash of each row of a uint64 array (wrapping)."""
    mult = np.random.default_rng(0).integers(2 ** 64, size=bits.shape[1], dtype=np.uint64)
    return bits @ (mult | np.uint64(1))


def _distinct_rows(x):
    """Group the bitwise-identical rows of a 2-d float array, reading -0.0 as 0.0.

    Returns (first, inverse): the lowest row of each group, in increasing
    order, and the group of each row, so groups are numbered by their lowest
    row.  Rows are grouped by a hash of their bytes with a 1-D ``np.unique``;
    every other row of a group is then checked bit for bit against its lowest
    row, and on a hash collision the rows are grouped exactly by
    ``np.unique(axis=0)``.  Each 64-bit word first has its high 32 bits
    xor-ed into its low 32 bits, in a private copy: the hash's products carry
    bits only upward, and the word of a whole number, a half or a quarter
    ends in 32 or more zero bits.  The fold is a bijection, so the bit check
    and the fallback group exactly as on the raw words.
    """
    bits = np.ascontiguousarray(x + 0.0).view(np.uint64)
    half = bits.view(np.uint32)  # the low half of each word first on a little-endian machine
    half[:, 1 - int(np.little_endian)::2] ^= half[:, int(np.little_endian)::2]
    _, first, inverse = np.unique(_row_hash(bits), return_index=True, return_inverse=True)
    lowest = first[inverse]
    copy = lowest != np.arange(lowest.size)
    if not np.array_equal(bits[lowest[copy]], bits[copy]):
        _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # np.argsort(order) is each group's rank by lowest row
    return first[order], np.argsort(order)[inverse.ravel()]


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
        self.features = _reals(self.features, "features")
        _integer(self.k, "class count k", 2)
        self.noisy_labels = _int_labels(self.noisy_labels, "noisy labels", self.k)
        if self.clean_labels is not None:
            self.clean_labels = _int_labels(self.clean_labels, "clean labels", self.k)
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise DataError("features must be a 2-d matrix with d >= 1")
        n = self.features.shape[0]
        if n < 3:
            raise DataError(f"need at least 3 rows, got {n}")
        for name, labels in (("noisy", self.noisy_labels), ("clean", self.clean_labels)):
            if labels is None:
                continue
            if labels.shape != (n,):
                raise DataError(f"{name} labels must have length N={n}")
        if self.ids is not None and (not hasattr(self.ids, "__len__") or len(self.ids) != n):
            raise DataError("ids must have length N")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]


def load_dataset(path, k=None):
    """Read a dataset from CSV.

    Expected columns: ``f0..f{d-1}``, ``noisy_label`` and optionally
    ``clean_label`` and ``id``, in any order and among other columns.  A
    feature column after a gap in that numbering (``f3`` without ``f2``) is
    an error, not a silently dropped column.  The header is one CSV record,
    read by the same parser as the rows, so a quoted name may hold a line
    break.  Blank lines are skipped anywhere, also before the header.  Fields
    may be quoted, ``#`` is data, not a comment, and ``id`` is read as text.
    K is inferred as 1 + max label unless given.
    """
    csv_format = dict(delimiter=",", quotechar='"', comments=None, ndmin=1)
    try:  # a handle with newline="" keeps a CR inside a quoted field
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data")  # blank lines
            header = np.loadtxt(fh, dtype=str, max_rows=1, **csv_format).tolist()
            if not header:
                raise DataError(f"{path}: empty file")
            pos = {name: i for i, name in enumerate(header)}  # a repeated name: its last place
            repeated = {name for i, name in enumerate(header) if pos[name] != i}
            if "noisy_label" not in pos:
                raise DataError(f"{path}: missing column 'noisy_label'")

            d = 0
            while f"f{d}" in pos:
                d += 1
            if d == 0:
                raise DataError(f"{path}: no feature columns found (expected f0, f1, ...)")
            for name in header:  # f<k> past the first missing one
                feature = re.fullmatch(r"f([1-9][0-9]*)", name)
                if feature and int(feature[1]) > d:
                    raise DataError(f"{path}: feature column '{name}' follows a gap: "
                                    f"'f{d}' is missing")

            fields = [("features", np.float64, (d,)), ("noisy", np.int64)]
            usecols = [pos[f"f{i}"] for i in range(d)] + [pos["noisy_label"]]
            for name, column, dtype in (("clean", "clean_label", np.int64), ("id", "id", object)):
                if column in pos:
                    fields.append((name, dtype))
                    usecols.append(pos[column])
            for i in usecols:
                if header[i] in repeated:
                    raise DataError(f"{path}: column '{header[i]}' appears more than once")
            # the rows after the header record, from the same handle
            table = np.loadtxt(fh, dtype=fields, usecols=usecols, **csv_format)
            if table.size == 0:
                raise DataError(f"{path}: no data rows")
    except DataError:  # a ValueError too, but already names the file
        raise
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: failed to parse: {exc}") from None
    noisy = table["noisy"]
    clean = table["clean"] if "clean_label" in pos else None
    ids = table["id"].tolist() if "id" in pos else None

    if k is None:
        k = int(noisy.max()) + 1 if clean is None else int(max(noisy.max(), clean.max())) + 1
        k = max(k, 2)
    try:
        return Dataset(table["features"], noisy, k, clean_labels=clean, ids=ids)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _field(value):
    """A label or id as `csv.QUOTE_MINIMAL` writes it: None is empty, and
    text holding a comma, quote, CR or LF is quoted with its quotes doubled."""
    text = "" if value is None else str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def save_dataset(data, path):
    """Write a dataset to CSV with the canonical column layout.

    Columns are ``f0..f{d-1}``, ``noisy_label``, then ``clean_label`` and
    ``id`` where the dataset has them; every row ends in CRLF.  Floats are
    written as their shortest round-tripping repr, so a saved file loads back
    bit for bit.  Label and id fields are quoted as `csv.QUOTE_MINIMAL` does:
    a field holding a comma, quote, CR or LF is wrapped in quotes with its
    quotes doubled, and a None id is an empty field.
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
        fh.write(",".join(header) + "\r\n")
        # one row at a time: the N x d float reprs never exist all at once
        fh.writelines(",".join(map(repr, row.tolist())) + "," + ",".join(map(_field, tail))
                      + "\r\n" for row, tail in zip(data.features, zip(*tails)))


@dataclass
class TransitionMatrix:
    """K x K row-stochastic matrix; t[i, j] = P(noisy=j | clean=i)."""

    k: int
    t: np.ndarray
    p: np.ndarray | None = None

    def __post_init__(self):
        _integer(self.k, "k", 1)
        self.t = _reals(self.t, "transition entries")
        if self.t.shape != (self.k, self.k):
            raise DataError(f"expected a {self.k}x{self.k} matrix, got {self.t.shape}")
        if not np.all((self.t >= -ROW_SUM_ATOL) & (self.t <= 1 + ROW_SUM_ATOL)):
            raise DataError("transition entries must lie in [0, 1]")
        bad = np.abs(self.t.sum(axis=1) - 1.0) > ROW_SUM_ATOL
        if np.any(bad):
            raise DataError(f"row sum deviates from 1 in rows {np.flatnonzero(bad).tolist()}")
        if self.p is not None:
            self.p = _reals(self.p, "prior")
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
            return cls(obj["k"], obj["t"], p=obj.get("p"))
        except KeyError as exc:
            raise DataError(f"transition matrix JSON lacks key {exc}") from None

    @classmethod
    def load(cls, path):
        """Read a matrix file, or the `estimated_t` of a report file; errors
        name the file."""
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataError(f"{path}: not valid JSON: {exc}") from None
        if isinstance(obj, dict) and "estimated_t" in obj:  # a report file
            obj = obj["estimated_t"]
        try:
            return cls.from_json(obj)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


@dataclass
class NoiseRatePair:
    """Binary noise rates e1 = P(noisy=2|clean=1), e2 = P(noisy=1|clean=2),
    estimable only when both are nonnegative and e1 + e2 < 1."""

    e1: float
    e2: float

    def __post_init__(self):
        self.e1, self.e2 = _real(self.e1, "noise rate e1"), _real(self.e2, "noise rate e2")
        if self.e1 < 0 or self.e2 < 0:
            raise DataError("noise rates must be nonnegative")
        if self.e1 + self.e2 >= 1:
            raise DataError(f"need e1 + e2 < 1, got {self.e1 + self.e2}")


@dataclass
class EstimatorConfig:
    """One estimation run.  The solver's SQUAREM-accelerated EM from each
    start stops after `max_iters` EM maps, or once a map gains at most
    `tolerance / n` in the per-triplet log-likelihood for n counted
    triplets; `seed` draws its spectral start.  An EM map is one E-step and
    M-step, a map from an extrapolated point included, and the solution's
    `iterations_used` counts the maps of both starts."""

    variant: str = "plain-hoc"
    bins: int = 15
    activation: str = "minmax"
    max_iters: int = 3000
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r} "
                            f"(choose from {', '.join(VARIANTS)})")
        if self.activation not in ACTIVATIONS:
            raise DataError(f"unknown activation '{self.activation}'")
        _integer(self.bins, "bins", 2)
        _integer(self.max_iters, "max_iters", 1)
        self.tolerance = _real(self.tolerance, "tolerance", above=0)
        _integer(self.seed, "seed")


# Stage names used to derive independent, reproducible RNG streams from the
# single run seed.
_STAGES = ("noise", "optimizer", "training", "synthesis")


def stage_rng(seed, stage):
    """Deterministic per-stage generator derived from the global seed."""
    if stage not in _STAGES:
        raise DataError(f"unknown stage '{stage}'")
    seed = int(_integer(seed, "seed")) & 0xFFFFFFFFFFFFFFFF
    ss = np.random.SeedSequence([seed, _STAGES.index(stage)])
    return np.random.default_rng(ss)


@dataclass
class Report:
    """Everything a single estimation run produces."""

    estimated_t: TransitionMatrix
    consensus: object  # hoc.ConsensusStatistics
    weights: object | None = None  # similarity.SimilarityWeights, diagonal
    error: float | None = None
    converged: bool = True
    config_echo: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    excluded_rows: int = 0  # rows with zero weighted norm, left out of the 2-NN search
    flags: list = field(default_factory=list)  # what the counts cannot identify

    def __post_init__(self):
        if self.error is not None:
            self.error = _real(self.error, "error")
            if not 0.0 <= self.error <= 1.0:
                raise DataError(f"error must lie in [0, 1], got {self.error}")
