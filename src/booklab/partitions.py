"""Integer partitions and the s-sum-free length bound.

A partition is s-sum-free when no subset of its parts (the empty subset
included, which only matters for s=0 and is excluded by the precondition)
sums to exactly s.  beta(r, s) is the greatest number of parts such a
partition of r can have; it controls how finely an r-clique can be split
across parts without two copies overlapping in exactly s vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Partition:
    """Non-increasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be non-increasing")

    @property
    def r(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def _partitions_from(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
    if remaining == 0:
        yield Partition(prefix)
        return
    for a in range(min(cap, remaining), 0, -1):
        yield from _partitions_from(remaining - a, a, prefix + (a,))


def enumerate_partitions(r: int) -> Iterator[Partition]:
    """All partitions of r in reverse-lexicographic order: (r) first, all-ones last."""
    if r < 1:
        raise ValueError("partitions are defined for r >= 1")
    yield from _partitions_from(r, r, ())


def achievable_sums(p: Partition) -> int:
    """Bit k set iff some subset of parts sums to k (bit 0 for the empty subset)."""
    sums = 1
    for a in p.parts:
        sums |= sums << a
    return sums


def is_s_sum_free(p: Partition, s: int) -> bool:
    """No subset of parts sums to exactly s.  Requires 1 <= s < sum(parts)."""
    if not 1 <= s < p.r:
        raise ValueError(f"need 1 <= s < r, got s={s}, r={p.r}")
    return (achievable_sums(p) >> s) & 1 == 0


def _pick(parts: tuple[int, ...], idx: int, remaining: int, chosen: list[int]) -> bool:
    """Extend chosen by parts from idx on until they sum to remaining."""
    if remaining == 0:
        return True
    if idx == len(parts) or remaining < 0:
        return False
    chosen.append(parts[idx])
    if _pick(parts, idx + 1, remaining - parts[idx], chosen):
        return True
    chosen.pop()
    return _pick(parts, idx + 1, remaining, chosen)


def offending_subset(p: Partition, s: int) -> tuple[int, ...] | None:
    """Some sub-multiset of parts summing to s, or None; used for diagnostics."""
    chosen: list[int] = []
    return tuple(chosen) if _pick(p.parts, 0, s, chosen) else None


def beta(r: int, s: int) -> tuple[int, Partition]:
    """Max length of an s-sum-free partition of r, with the first witness found.

    Enumeration order is reverse-lexicographic, so the witness is the
    reverse-lex-greatest partition among those of maximal length.
    """
    if not 1 <= s < r:
        raise ValueError(f"need 1 <= s < r, got s={s}, r={r}")
    best: Partition | None = None
    for p in enumerate_partitions(r):
        if len(p) > (len(best) if best else 0) and is_s_sum_free(p, s):
            best = p
    assert best is not None  # (r) itself is s-sum-free for 0 < s < r
    return len(best), best
