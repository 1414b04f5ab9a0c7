"""Statistics, table rendering, and halo-mass distribution utilities."""

from repro.analysis.distributions import (
    MassHistogram,
    mass_histogram,
)
from repro.analysis.projection import (
    FIELD_STUDY_UBER_RANGE,
    JEDEC_ENTERPRISE_UBER,
    DeviceModel,
    RunProjection,
    project_run,
    system_sdc_rate,
)
from repro.analysis.stats import (
    RateEstimate,
    as_tally,
    campaign_error_bars,
    normal_interval,
    rate_estimate,
    wilson_interval,
)
from repro.analysis.tables import (
    format_percent,
    render_outcome_grid,
    render_table,
)

__all__ = [
    "RateEstimate",
    "as_tally",
    "campaign_error_bars",
    "normal_interval",
    "rate_estimate",
    "wilson_interval",
    "format_percent",
    "render_outcome_grid",
    "render_table",
    "MassHistogram",
    "mass_histogram",
    "DeviceModel",
    "FIELD_STUDY_UBER_RANGE",
    "JEDEC_ENTERPRISE_UBER",
    "RunProjection",
    "project_run",
    "system_sdc_rate",
]
