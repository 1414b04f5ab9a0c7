"""Confidence intervals for campaign outcome rates.

The paper runs 1,000 injections per cell "to obtain a statistically
significant estimate, which leaves a 1%~2% error bar on average for 95%
confidence interval".  These helpers compute the same quantities so
results at any campaign size report their own uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Protocol, Union

from repro.core.outcomes import Outcome, OutcomeTally, RunRecord


class SupportsTally(Protocol):
    """Anything exposing a tally (e.g. a campaign's ``CampaignResult``)."""

    tally: OutcomeTally


#: Anything the stats helpers can tabulate: a finished tally, a result
#: with a ``tally`` attribute (e.g. a ``CampaignResult``), or a
#: (possibly lazy) iterable of run records.
TallySource = Union[OutcomeTally, SupportsTally, Iterable[RunRecord]]


def as_tally(source: TallySource) -> OutcomeTally:
    """Coerce any tally source to an :class:`OutcomeTally`.

    Record iterables are consumed in one streaming pass, so results read
    lazily from a JSONL checkpoint never need to be resident.
    """
    if isinstance(source, OutcomeTally):
        return source
    tally = getattr(source, "tally", None)
    if isinstance(tally, OutcomeTally):
        return tally
    return OutcomeTally.from_records(source)

#: Two-sided z value for 95 % confidence.
Z_95 = 1.959963984540054


@dataclass(frozen=True)
class RateEstimate:
    """A proportion with its confidence interval."""

    rate: float
    low: float
    high: float
    n: int

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:
        return (f"{100 * self.rate:.1f}% "
                f"[{100 * self.low:.1f}, {100 * self.high:.1f}] (n={self.n})")


def normal_interval(successes: int, n: int, z: float = Z_95) -> RateEstimate:
    """Wald (normal-approximation) interval -- what the paper quotes."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    p = successes / n
    half = z * math.sqrt(p * (1.0 - p) / n)
    return RateEstimate(rate=p, low=max(0.0, p - half),
                        high=min(1.0, p + half), n=n)


def wilson_interval(successes: int, n: int, z: float = Z_95) -> RateEstimate:
    """Wilson score interval -- better behaved near 0 %/100 %."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n))
    # Clamp against floating-point slop so p always lies inside the CI.
    low = min(max(0.0, center - half), p)
    high = max(min(1.0, center + half), p)
    return RateEstimate(rate=p, low=low, high=high, n=n)


def rate_estimate(successes: int, n: int, method: str = "wilson") -> RateEstimate:
    if method == "wilson":
        return wilson_interval(successes, n)
    if method == "normal":
        return normal_interval(successes, n)
    raise ValueError(f"unknown interval method {method!r}")


def campaign_error_bars(tally: TallySource,
                        method: str = "wilson") -> Dict[Outcome, RateEstimate]:
    """Per-outcome rate estimates for one campaign tally.

    Accepts a tally, a result with a ``tally`` (a ``CampaignResult``),
    or an iterable of run records (e.g. ``load_records(path)`` from a
    checkpoint file).
    """
    tally = as_tally(tally)
    n = tally.total
    if n == 0:
        raise ValueError("empty tally")
    return {o: rate_estimate(tally.counts[o], n, method) for o in Outcome}


def record_fault_count(record: RunRecord) -> int:
    """The nominal fault count *k* a record was produced under.

    Scenario-stamped records report their scenario's k (``k=3`` -> 3,
    ``burst=4`` -> 4, decay -> its byte count); legacy single-fault
    records are k=1.  The stamp is authoritative over ``instances``
    because colliding draws can collapse a k-fault plan to fewer
    distinct points without changing the scenario being measured.
    """
    return _stamp_fault_count(getattr(record, "scenario", None))


@lru_cache(maxsize=None)
def _stamp_fault_count(stamp) -> int:
    # A million-record stream carries only a handful of distinct stamps;
    # parse each stamp once, not once per record.
    from repro.core.scenario import parse_scenario

    if stamp is None:
        return 1
    try:
        return parse_scenario(stamp).fault_count
    except Exception as exc:
        from repro.errors import FFISError

        raise FFISError(
            f"record stamped with unknown scenario {stamp!r}: {exc}") from exc


def per_k_tallies(records: Iterable[RunRecord]) -> Dict[int, OutcomeTally]:
    """Group a record stream into one :class:`OutcomeTally` per fault
    count k (streaming single pass; records never need to be resident)."""
    tallies: Dict[int, OutcomeTally] = {}
    for record in records:
        k = record_fault_count(record)
        tallies.setdefault(k, OutcomeTally()).add_record(record)
    return dict(sorted(tallies.items()))


def sdc_vs_k(source: Union[Iterable[RunRecord], Mapping[int, OutcomeTally]],
             outcome: Outcome = Outcome.SDC,
             method: str = "wilson") -> Dict[int, RateEstimate]:
    """The outcome-rate-vs-fault-count curve of a multi-fault sweep.

    Accepts either a record stream (grouped by :func:`per_k_tallies`)
    or pre-grouped per-k tallies; returns one interval estimate per k,
    in ascending k order.
    """
    if isinstance(source, Mapping):
        tallies = dict(sorted(source.items()))
    else:
        tallies = per_k_tallies(source)
    return {k: rate_estimate(t.counts[outcome], t.total, method)
            for k, t in tallies.items() if t.total}
