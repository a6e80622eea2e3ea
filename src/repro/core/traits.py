"""Traits: the orient phase (§4.2).

A trait maps a candidate's statistics to one number describing either the
*benefit* of compacting it or the *cost* of doing so.  Traits are defined
independently of one another and combined only later, in the decide phase
— which is exactly what lets AutoComp swap decision strategies (FR2)
without touching observation code.

The three traits from the paper:

* :class:`FileCountReductionTrait` — ΔF_c, the estimated file-count
  reduction: the number of files below the target size (the paper's
  formula, which deliberately ignores partition boundaries and therefore
  overestimates — see §7 "Model Accuracy");
* :class:`FileEntropyTrait` — file-size entropy à la Netflix's
  auto-optimize: we define it as the mean squared relative shortfall below
  target, ``H = (1/N) Σ_{s<T} ((T−s)/T)²`` ∈ [0, 1), so a perfectly laid
  out candidate scores 0 and a dust-pile of near-empty files approaches 1;
* :class:`ComputeCostTrait` — GBHr_c = ExecutorMemoryGB × DataSize_c /
  RewriteBytesPerHour, the paper's compute-cost estimator.

Custom traits implement :class:`Trait` and can read any statistic,
including connector-specific ``custom`` entries (NFR1 extensibility; see
``examples/custom_strategy.py``).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.candidates import Candidate, CandidateStatistics
from repro.errors import ValidationError

#: Trait orientation constants.
BENEFIT = 1
COST = -1


class Trait(abc.ABC):
    """One orient-phase metric over candidate statistics."""

    #: Unique trait name; also the key under ``candidate.traits``.
    name: str = "trait"
    #: ``BENEFIT`` (+1) if larger values favour compaction, ``COST`` (−1)
    #: if larger values argue against it.
    direction: int = BENEFIT

    @abc.abstractmethod
    def compute(self, statistics: CandidateStatistics) -> float:
        """The trait value for one candidate's statistics."""

    def annotate(self, candidate: Candidate) -> float:
        """Compute and store the trait on a candidate.

        Raises:
            ValidationError: if the candidate has no statistics yet.
        """
        if candidate.statistics is None:
            raise ValidationError(f"candidate {candidate.key} has no statistics")
        value = float(self.compute(candidate.statistics))
        candidate.traits[self.name] = value
        return value

    def compute_batch(self, statistics: list[CandidateStatistics]) -> list[float]:
        """Trait values for many candidates' statistics at once.

        The orient phase computes every trait over every candidate every
        cycle; hot traits override this with a tight comprehension to
        avoid a method call per candidate.
        """
        compute = self.compute
        return [float(compute(s)) for s in statistics]

    def compute_columnar(self, block: "ColumnarBlock") -> "np.ndarray | None":
        """Trait values straight from a columnar statistics block.

        The columnar worker transport ships shard statistics as flat numpy
        arrays (:mod:`repro.core.columnar`); traits that can evaluate over
        those arrays without materialising ``CandidateStatistics`` objects
        return a float64 vector here — **bit-identical** to calling
        :meth:`compute` per candidate, because byte-identity of cycle
        reports across worker modes depends on it.  Returning ``None``
        (the default, and what built-ins do when ``compute`` was
        overridden) makes the transport fall back to per-object
        evaluation for the whole registry.
        """
        return None


def _compute_overridden(trait: Trait, base: type) -> bool:
    """True when ``trait.compute`` differs from ``base.compute`` — via a
    subclass *or* an instance attribute (both must disable batch fast paths)."""
    return "compute" in trait.__dict__ or type(trait).compute is not base.compute


class ColumnarBlock:
    """Structural protocol traits read in :meth:`Trait.compute_columnar`.

    Implemented by :class:`repro.core.columnar.ColumnarMissBlock`; defined
    here (abstractly) so traits never import the transport layer.

    * ``len(block)`` — number of candidates.
    * ``column(name)`` — one scalar statistic per candidate as an int64 or
      float64 array; names follow :class:`CandidateStatistics` fields.
    * ``flat_sizes()`` — ``(sizes_f64, offsets)`` where ``sizes_f64`` is
      every candidate's file sizes concatenated (float64) and ``offsets``
      has ``n + 1`` entries delimiting candidate *i* as
      ``sizes_f64[offsets[i]:offsets[i + 1]]``; ``None`` when the block
      carries no per-file detail (e.g. fleet catalogs).
    * ``repeated_targets()`` — each candidate's float64 target repeated
      per file, aligned with ``flat_sizes()``; ``None`` likewise.
    """

    def __len__(self) -> int:  # pragma: no cover - protocol stub
        raise NotImplementedError

    def column(self, name: str) -> np.ndarray:  # pragma: no cover - protocol stub
        raise NotImplementedError

    def flat_sizes(self):  # pragma: no cover - protocol stub
        raise NotImplementedError

    def repeated_targets(self):  # pragma: no cover - protocol stub
        raise NotImplementedError


class FileCountReductionTrait(Trait):
    """ΔF_c: estimated file-count reduction (paper §4.2, verbatim).

    ``ΔF_c = Σ_i 1[FileSize_i,c < TargetFileSize_c]`` — simply the number of
    small files, on the assumption that each of them disappears into a
    target-sized output.
    """

    name = "file_count_reduction"
    direction = BENEFIT

    def compute(self, statistics: CandidateStatistics) -> float:
        return float(statistics.small_file_count)

    def compute_batch(self, statistics: list[CandidateStatistics]) -> list[float]:
        if _compute_overridden(self, FileCountReductionTrait):
            return super().compute_batch(statistics)  # honour overridden compute()
        return [float(s.small_file_count) for s in statistics]

    def compute_columnar(self, block: ColumnarBlock) -> np.ndarray | None:
        if _compute_overridden(self, FileCountReductionTrait):
            return None
        return block.column("small_file_count").astype(np.float64)


class RelativeFileCountReductionTrait(Trait):
    """ΔF_c as a fraction of the candidate's file count.

    The unconstrained-scenario example in §4.3 triggers when the estimated
    reduction reaches at least 10% — i.e. on this trait ≥ 0.1.
    """

    name = "relative_file_count_reduction"
    direction = BENEFIT

    def compute(self, statistics: CandidateStatistics) -> float:
        if statistics.file_count == 0:
            return 0.0
        return statistics.small_file_count / statistics.file_count

    def compute_columnar(self, block: ColumnarBlock) -> np.ndarray | None:
        if _compute_overridden(self, RelativeFileCountReductionTrait):
            return None
        files = block.column("file_count")
        small = block.column("small_file_count")
        out = np.zeros(len(block), dtype=np.float64)
        # File counts stay far below 2**53, so int64 → float64 division
        # matches Python's correctly-rounded int / int exactly.
        np.divide(small, files, out=out, where=files > 0)
        return out


class FileEntropyTrait(Trait):
    """File-size entropy: total squared relative shortfall below target.

    ``H = Σ_{s_i < T} ((T − s_i)/T)²`` with ``T`` the target size — the
    unnormalised form Netflix's auto-optimize uses, made dimensionless by
    dividing each shortfall by the target.  0 when every file meets the
    target; each near-empty file contributes ≈1, so H acts as a
    *severity-weighted* small-file count (which is why entropy- and
    count-based triggers tune to comparable behaviour in Figure 9).
    """

    name = "file_entropy"
    direction = BENEFIT

    def compute(self, statistics: CandidateStatistics) -> float:
        if statistics.file_count == 0:
            return 0.0
        sizes = statistics.file_sizes
        if not sizes:
            return 0.0
        # Vectorised and canonical: the columnar worker transport evaluates
        # the same element-wise terms over each shard's concatenated size
        # array and reduces contiguous per-candidate slices, which is
        # bit-identical to this (np.add.reduce pairwise order depends only
        # on segment length) — keeping cycle reports byte-identical across
        # worker modes.
        target = float(statistics.target_file_size)
        arr = np.asarray(sizes, dtype=np.float64)
        shortfall = (target - arr) / target
        terms = np.where(arr < target, shortfall * shortfall, 0.0)
        return float(np.add.reduce(terms))

    def compute_columnar(self, block: ColumnarBlock) -> np.ndarray | None:
        if _compute_overridden(self, FileEntropyTrait):
            return None
        flat = block.flat_sizes()
        if flat is None:
            # No per-file detail (fleet-style catalogs): compute() sees an
            # empty file_sizes tuple and yields 0.0 for every candidate.
            return np.zeros(len(block), dtype=np.float64)
        sizes, offsets = flat
        targets = block.repeated_targets()
        shortfall = (targets - sizes) / targets
        terms = np.where(sizes < targets, shortfall * shortfall, 0.0)
        out = np.zeros(len(block), dtype=np.float64)
        bounds = offsets.tolist()
        for i in range(len(block)):
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                out[i] = np.add.reduce(terms[lo:hi])
        return out


class ComputeCostTrait(Trait):
    """GBHr_c: estimated compute cost of compacting the candidate (§4.2).

    ``GBHr_c = ExecutorMemoryGB × (DataSize_c / RewriteBytesPerHour)``

    ``DataSize_c`` is the bytes a rewrite must process — the candidate's
    small-file bytes (files already at target are not rewritten).

    Args:
        executor_memory_gb: memory allocated to the compaction executors.
        rewrite_bytes_per_hour: system rewrite throughput.
    """

    name = "compute_cost_gbhr"
    direction = COST

    def __init__(self, executor_memory_gb: float, rewrite_bytes_per_hour: float) -> None:
        if executor_memory_gb <= 0:
            raise ValidationError("executor_memory_gb must be positive")
        if rewrite_bytes_per_hour <= 0:
            raise ValidationError("rewrite_bytes_per_hour must be positive")
        self.executor_memory_gb = executor_memory_gb
        self.rewrite_bytes_per_hour = rewrite_bytes_per_hour

    def compute(self, statistics: CandidateStatistics) -> float:
        return self.executor_memory_gb * (
            statistics.small_file_bytes / self.rewrite_bytes_per_hour
        )

    def compute_batch(self, statistics: list[CandidateStatistics]) -> list[float]:
        if _compute_overridden(self, ComputeCostTrait):
            return super().compute_batch(statistics)  # honour overridden compute()
        memory = self.executor_memory_gb
        throughput = self.rewrite_bytes_per_hour
        return [memory * (s.small_file_bytes / throughput) for s in statistics]

    def compute_columnar(self, block: ColumnarBlock) -> np.ndarray | None:
        if _compute_overridden(self, ComputeCostTrait):
            return None
        # Same operation order as compute(): bytes / throughput first,
        # then × memory — float arithmetic is not associative.
        return self.executor_memory_gb * (
            block.column("small_file_bytes") / self.rewrite_bytes_per_hour
        )


class SmallFileBytesTrait(Trait):
    """Bytes sitting in small files — a benefit proxy for IO-bound goals."""

    name = "small_file_bytes"
    direction = BENEFIT

    def compute(self, statistics: CandidateStatistics) -> float:
        return float(statistics.small_file_bytes)

    def compute_columnar(self, block: ColumnarBlock) -> np.ndarray | None:
        if _compute_overridden(self, SmallFileBytesTrait):
            return None
        return block.column("small_file_bytes").astype(np.float64)


class DeleteFileCountTrait(Trait):
    """Merge-on-read delete files in force — read-amplification pressure."""

    name = "delete_file_count"
    direction = BENEFIT

    def compute(self, statistics: CandidateStatistics) -> float:
        return float(statistics.delete_file_count)

    def compute_columnar(self, block: ColumnarBlock) -> np.ndarray | None:
        if _compute_overridden(self, DeleteFileCountTrait):
            return None
        return block.column("delete_file_count").astype(np.float64)


class TraitRegistry:
    """An ordered set of traits applied in the orient phase."""

    def __init__(self, traits: list[Trait] | None = None) -> None:
        self._traits: dict[str, Trait] = {}
        for trait in traits or []:
            self.register(trait)

    def register(self, trait: Trait) -> None:
        """Add a trait.

        Raises:
            ValidationError: on duplicate names.
        """
        if trait.name in self._traits:
            raise ValidationError(f"duplicate trait name {trait.name!r}")
        self._traits[trait.name] = trait

    def get(self, name: str) -> Trait:
        """Look up a registered trait by name.

        Raises:
            ValidationError: if unknown.
        """
        if name not in self._traits:
            raise ValidationError(
                f"no trait named {name!r}; registered: {sorted(self._traits)}"
            )
        return self._traits[name]

    def names(self) -> list[str]:
        """Registered trait names in registration order."""
        return list(self._traits)

    def annotate_all(self, candidates: list[Candidate], only_missing: bool = False) -> None:
        """Compute every registered trait on every candidate.

        Args:
            only_missing: skip candidates that already carry every
                registered trait.  Only safe when the caller guarantees
                existing trait values were computed by this registry from
                the candidate's *current* statistics — the contract of
                candidate-reusing connectors
                (:attr:`~repro.core.connectors.Connector.reuses_candidates`).
        """
        traits = list(self._traits.values())
        names = list(self._traits)
        if only_missing:
            # Reused candidates carry the full registered set; fresh ones
            # have empty traits (cheap falsy check).
            todo = [
                c
                for c in candidates
                if not (c.traits and all(name in c.traits for name in names))
            ]
        else:
            todo = list(candidates)
        if not todo:
            return
        # Batched compute skips Trait.annotate's per-call overhead; traits
        # that override annotate() (subclass or instance attribute) keep
        # their per-candidate behaviour.
        if any(
            "annotate" in trait.__dict__ or type(trait).annotate is not Trait.annotate
            for trait in traits
        ):
            for candidate in todo:
                for trait in traits:
                    trait.annotate(candidate)
            return
        statistics: list[CandidateStatistics] = []
        for candidate in todo:
            if candidate.statistics is None:
                raise ValidationError(f"candidate {candidate.key} has no statistics")
            statistics.append(candidate.statistics)
        for trait in traits:
            name = trait.name
            for candidate, value in zip(todo, trait.compute_batch(statistics)):
                candidate.traits[name] = value

    def compute_columnar_matrix(self, block: ColumnarBlock) -> np.ndarray | None:
        """Every registered trait over a columnar block, as an (n, k) matrix.

        Column *j* holds trait ``names()[j]``.  Returns ``None`` — telling
        the columnar transport to fall back to per-object annotation —
        when any trait lacks a columnar path, declines it (overridden
        ``compute``), or customises ``annotate``; partial fast paths would
        have to interleave with per-object evaluation anyway, so the
        fallback is all-or-nothing.
        """
        traits = list(self._traits.values())
        if any(
            "annotate" in trait.__dict__ or type(trait).annotate is not Trait.annotate
            for trait in traits
        ):
            return None
        columns = []
        for trait in traits:
            column = trait.compute_columnar(block)
            if column is None:
                return None
            columns.append(np.asarray(column, dtype=np.float64))
        if not columns:
            return np.zeros((len(block), 0), dtype=np.float64)
        return np.column_stack(columns)
