"""System-level failure-rate projection from campaign results.

The paper's motivation (Sec. I): device UBERs of 10^-11..10^-9 look
tiny, but a large HPC system's collective write volume turns them into
an application-level reliability problem, breaking the JEDEC enterprise
requirement of < 10^-16.  This module does that arithmetic: it combines

* a device fault rate (uncorrectable bit errors per bit written, or
  partial-failure events per write),
* an application's measured I/O profile (bytes/writes per run), and
* its measured conditional outcome profile P(outcome | one fault)
  from a campaign,

into projected per-run and per-system-day outcome probabilities, i.e.
"how often will this application silently corrupt its science on this
machine".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.campaign import CampaignResult
from repro.core.outcomes import Outcome

#: The JEDEC JESD218 enterprise-class UBER requirement the paper cites.
JEDEC_ENTERPRISE_UBER = 1e-16

#: The field-study UBER band the paper cites for data-center SSDs [1].
FIELD_STUDY_UBER_RANGE = (1e-11, 1e-9)


@dataclass(frozen=True)
class DeviceModel:
    """Storage-device fault-rate assumptions.

    ``uber`` is uncorrectable bit errors per bit *written* (read-path
    errors fold into the same effective rate for a write-then-read-once
    workload, which is what the campaigns model).
    """

    uber: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.uber < 1.0:
            raise ValueError(f"UBER must be in [0, 1), got {self.uber}")

    def fault_probability(self, bytes_written: int) -> float:
        """P(at least one uncorrectable error over *bytes_written*)."""
        if bytes_written < 0:
            raise ValueError("bytes_written must be non-negative")
        bits = 8 * bytes_written
        # 1 - (1-u)^bits, computed stably for tiny u.
        return -math.expm1(bits * math.log1p(-self.uber))


@dataclass(frozen=True)
class RunProjection:
    """Projected per-run outcome probabilities for one application."""

    app_name: str
    fault_probability: float
    outcome_probabilities: Mapping[Outcome, float]

    def probability(self, outcome: Outcome) -> float:
        return self.outcome_probabilities[outcome]

    def runs_per_sdc(self) -> float:
        """Mean runs between silent corruptions (inf if P(SDC) == 0)."""
        p = self.outcome_probabilities[Outcome.SDC]
        return math.inf if p == 0 else 1.0 / p


def project_run(result: CampaignResult, device: DeviceModel) -> RunProjection:
    """Combine a campaign's conditional profile with a device model.

    Uses the campaign's measured I/O profile (bytes written per run) for
    the exposure term and its outcome rates for the conditional term:
    ``P(outcome) = P(fault during run) * P(outcome | fault)``.
    """
    if result.profile is None:
        raise ValueError("campaign result carries no I/O profile")
    if result.tally.total == 0:
        raise ValueError("campaign result has no runs")
    p_fault = device.fault_probability(result.profile.bytes_written)
    probabilities = {o: p_fault * result.tally.rate(o) for o in Outcome
                     if o is not Outcome.BENIGN}
    probabilities[Outcome.BENIGN] = p_fault * result.tally.rate(Outcome.BENIGN)
    return RunProjection(app_name=result.app_name,
                         fault_probability=p_fault,
                         outcome_probabilities=probabilities)


def system_sdc_rate(projection: RunProjection, runs_per_day: float,
                    nodes: int = 1) -> float:
    """Expected silent corruptions per day on a system.

    ``runs_per_day`` is per node; the paper's point is that multiplying a
    per-run probability by a leadership-scale node count erases the
    comfort of small exponents.
    """
    if runs_per_day < 0 or nodes < 1:
        raise ValueError("need runs_per_day >= 0 and nodes >= 1")
    return projection.probability(Outcome.SDC) * runs_per_day * nodes
