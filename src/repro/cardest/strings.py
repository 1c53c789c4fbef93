"""String-predicate cardinality estimation (Astrid [48] -- lite).

The tutorial notes that Astrid "applies natural language processing
techniques with deep models to learn cardinality of queries with string
predicates".  The core engine of this repository is numeric (like the
coded benchmark schemas), so this module ships its own small string
substrate -- a string column type, LIKE-style predicates with exact
counting, and a synthetic-name generator -- plus the learned estimator:

- patterns are featurized as hashed character n-gram count vectors (the
  NLP front-end; Astrid's learned embeddings reduced to their fixed
  n-gram basis at this scale);
- an MLP regresses ``log(1 + count)`` from the n-gram vector plus the
  match-kind one-hot (prefix / suffix / substring / exact).

Training patterns are sampled from the column's own substrings, which is
also how Astrid builds its workloads.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.ml.nn import MLP

__all__ = [
    "StringMatchKind",
    "StringPredicate",
    "StringColumn",
    "generate_names",
    "AstridEstimator",
]


class StringMatchKind(Enum):
    PREFIX = "prefix"  # LIKE 'abc%'
    SUFFIX = "suffix"  # LIKE '%abc'
    SUBSTRING = "substring"  # LIKE '%abc%'
    EXACT = "exact"  # = 'abc'


@dataclass(frozen=True)
class StringPredicate:
    """A LIKE-style predicate on a string column."""

    kind: StringMatchKind
    pattern: str

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("empty string pattern")

    def matches(self, value: str) -> bool:
        if self.kind is StringMatchKind.PREFIX:
            return value.startswith(self.pattern)
        if self.kind is StringMatchKind.SUFFIX:
            return value.endswith(self.pattern)
        if self.kind is StringMatchKind.SUBSTRING:
            return self.pattern in value
        return value == self.pattern


class StringColumn:
    """A column of strings with exact predicate counting."""

    def __init__(self, name: str, values: list[str]) -> None:
        if not values:
            raise ValueError(f"string column {name!r} is empty")
        self.name = name
        self.values = list(values)

    @property
    def n_rows(self) -> int:
        return len(self.values)

    def count(self, pred: StringPredicate) -> int:
        """Exact COUNT(*) of rows matching the predicate."""
        return sum(1 for v in self.values if pred.matches(v))

    def sample_patterns(self, n: int, rng: np.random.Generator) -> list[StringPredicate]:
        """Patterns drawn from the data's own substrings (non-vacuous):
        2 to 6 characters long, exact matches aside."""
        min_len, max_len = 2, 6
        kinds = list(StringMatchKind)
        out: list[StringPredicate] = []
        while len(out) < n:
            value = self.values[rng.integers(self.n_rows)]
            kind = kinds[rng.integers(len(kinds))]
            if kind is StringMatchKind.EXACT:
                out.append(StringPredicate(kind, value))
                continue
            if len(value) < min_len:
                continue
            length = int(rng.integers(min_len, min(max_len, len(value)) + 1))
            if kind is StringMatchKind.PREFIX:
                out.append(StringPredicate(kind, value[:length]))
            elif kind is StringMatchKind.SUFFIX:
                out.append(StringPredicate(kind, value[-length:]))
            else:
                start = int(rng.integers(0, len(value) - length + 1))
                out.append(StringPredicate(kind, value[start : start + length]))
        return out


_SYLLABLES = [
    "an", "ber", "cor", "dan", "el", "fin", "gra", "har", "in", "jo",
    "kar", "lin", "mor", "nor", "ol", "pet", "qui", "ros", "son", "tor",
    "ul", "vin", "wil", "xen", "yor", "zan",
]


def generate_names(n: int, seed: int = 0) -> list[str]:
    """Synthetic name-like strings of one to three syllables with realistic
    substring frequencies (Zipf-weighted syllables compose into skewed
    n-gram statistics)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(_SYLLABLES) + 1, dtype=float)
    probs = ranks**-1.1
    probs /= probs.sum()
    names = []
    for _ in range(n):
        k = int(rng.integers(1, 3 + 1))
        parts = rng.choice(len(_SYLLABLES), size=k, p=probs)
        names.append("".join(_SYLLABLES[i] for i in parts))
    return names


class AstridEstimator:
    """Learned string-predicate selectivity (Astrid-lite)."""

    name = "astrid"
    ngram = 3
    feature_dim = 128  # hashed n-gram buckets

    def __init__(
        self,
        column: StringColumn,
        *,
        epochs: int = 120,
        seed: int = 0,
    ) -> None:
        self.column = column
        self.hidden = (64, 64)
        self.epochs = epochs
        self.seed = seed
        self._net: MLP | None = None
        self._kinds = list(StringMatchKind)

    # -- featurization ---------------------------------------------------------------

    def _featurize(self, pred: StringPredicate) -> np.ndarray:
        vec = np.zeros(self.feature_dim + len(self._kinds) + 2)
        padded = f"^{pred.pattern}$"
        for i in range(max(len(padded) - self.ngram + 1, 1)):
            gram = padded[i : i + self.ngram]
            vec[zlib.crc32(gram.encode()) % self.feature_dim] += 1.0
        vec[self.feature_dim + self._kinds.index(pred.kind)] = 1.0
        vec[-2] = len(pred.pattern) / 12.0
        vec[-1] = 1.0  # bias-ish slot
        return vec

    # -- training ----------------------------------------------------------------------

    def fit(self, n_train: int = 400) -> "AstridEstimator":
        """Train on ``n_train`` patterns sampled from the column's substrings."""
        patterns = self.column.sample_patterns(n_train, np.random.default_rng(self.seed))
        if not patterns:
            raise ValueError("no training patterns")
        x = np.stack([self._featurize(p) for p in patterns])
        y = np.log1p(np.array([self.column.count(p) for p in patterns], dtype=float))
        self._net = MLP(x.shape[1], self.hidden, seed=self.seed)
        self._net.fit(x, y, epochs=self.epochs, lr=2e-3, val_fraction=0.1)
        return self

    def estimate(self, pred: StringPredicate) -> float:
        """Estimated match count for the predicate."""
        if self._net is None:
            raise RuntimeError("estimate called before fit")
        raw = float(np.expm1(self._net.predict(self._featurize(pred)[None, :])[0]))
        return float(min(max(raw, 0.0), self.column.n_rows))
