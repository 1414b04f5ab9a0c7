"""FFIS reproduction: characterizing storage-fault impacts on HPC applications.

Reproduces Fang et al., "Characterizing Impacts of Storage Faults on HPC
Applications: A Methodology and Insights" (CLUSTER 2021).

Public surface (stable; see the README's public-API policy):

* :mod:`repro.study`  -- the declarative Study API: a serializable
  :class:`StudySpec` compiled by :class:`Study` onto the fused campaign
  engine, returning a uniform :class:`ResultSet`.  The paper's grid
  experiments are registered specs (``get_study("figure7")``).
* :mod:`repro.core`   -- the FFIS fault-injection framework (fault models,
  profiler, injector, campaigns).
* :mod:`repro.fusefs` -- the instrumentable FUSE-substitute file system.
* :mod:`repro.mhdf5`  -- the from-scratch mini-HDF5 format with the
  metadata fields and repair methodology the paper studies.
* :mod:`repro.mfits`  -- the mini-FITS format for the Montage workload.
* :mod:`repro.apps`   -- Nyx, QMCPACK, and Montage applications-under-test.
* :mod:`repro.analysis` -- statistics and table rendering.

:mod:`repro.experiments` indexes the paper's tables and figures (``repro
run <id>``) and holds the bespoke drivers; it is not stable surface.

Quickstart -- one campaign::

    from repro import Campaign, CampaignConfig
    from repro.apps.nyx import NyxApplication, FieldConfig

    app = NyxApplication(field_config=FieldConfig(shape=(32, 32, 32)))
    result = Campaign(app, CampaignConfig(fault_model="BF", n_runs=100)).run()
    print(result.summary())

Quickstart -- a declarative study (a grid of campaigns as data)::

    from repro import ModelSpec, StudySpec, TargetSpec, run_study

    spec = StudySpec(name="demo",
                     targets=(TargetSpec(app="nyx"),),
                     models=(ModelSpec(model="BF"), ModelSpec(model="DW")),
                     runs=100, seed=1)
    print(run_study(spec).render())

Studies (and single campaigns) are embarrassingly parallel and
restartable: ``workers`` fans runs out over a process pool
(record-for-record identical to serial execution) and ``out``/``resume``
checkpoint every completed run to a JSONL file.  The same engine backs
the CLI (``python -m repro study run figure7 --workers 4 --out
grid.jsonl --resume``) and every experiment.

Names are resolved lazily (PEP 562), so ``import repro`` -- and
``repro --version`` -- stay cheap until something is used.
"""

import warnings
from typing import Dict, Tuple

from repro.util.lazy import lazy_exports, resolve_export

__version__ = "1.1.0"

#: Stable public name -> (module, attribute).
_EXPORTS: Dict[str, Tuple[str, str]] = {
    # The fault-injection framework.
    "BitFlipFault": ("repro.core", "BitFlipFault"),
    "Campaign": ("repro.core", "Campaign"),
    "CampaignConfig": ("repro.core", "CampaignConfig"),
    "CampaignResult": ("repro.core", "CampaignResult"),
    "DroppedWriteFault": ("repro.core", "DroppedWriteFault"),
    "FaultGenerator": ("repro.core", "FaultGenerator"),
    "FaultInjector": ("repro.core", "FaultInjector"),
    "FaultSignature": ("repro.core", "FaultSignature"),
    "IOProfiler": ("repro.core", "IOProfiler"),
    "MetadataCampaign": ("repro.core", "MetadataCampaign"),
    "Outcome": ("repro.core", "Outcome"),
    "OutcomeTally": ("repro.core", "OutcomeTally"),
    "ReadCorruptionFault": ("repro.core", "ReadCorruptionFault"),
    "ShornWriteFault": ("repro.core", "ShornWriteFault"),
    "load_records": ("repro.core", "load_records"),
    "make_fault_model": ("repro.core", "make_fault_model"),
    # The file system under test.
    "FFISFileSystem": ("repro.fusefs", "FFISFileSystem"),
    "MountPoint": ("repro.fusefs", "MountPoint"),
    "mount": ("repro.fusefs", "mount"),
    # The declarative Study API.
    "CellInfo": ("repro.study", "CellInfo"),
    "ModelSpec": ("repro.study", "ModelSpec"),
    "ResultSet": ("repro.study", "ResultSet"),
    "STUDIES": ("repro.study", "STUDIES"),
    "ScenarioSpec": ("repro.study", "ScenarioSpec"),
    "Study": ("repro.study", "Study"),
    "StudySpec": ("repro.study", "StudySpec"),
    "TargetSpec": ("repro.study", "TargetSpec"),
    "get_study": ("repro.study", "get_study"),
    "load_spec": ("repro.study", "load_spec"),
    "register_app": ("repro.study", "register_app"),
    "run_study": ("repro.study", "run_study"),
}

#: Deprecated top-level aliases for engine internals.  They keep
#: working, but the stable home is :mod:`repro.core.engine` (or the
#: Study API, which makes most direct engine use unnecessary).
_DEPRECATED: Dict[str, Tuple[str, str]] = {
    name: ("repro.core.engine", name) for name in (
        "ParallelExecutor",
        "ProfileGoldenCache",
        "RunPlan",
        "RunSpec",
        "SerialExecutor",
        "SweepCell",
        "SweepPlan",
        "SweepResult",
        "execute_plan",
        "execute_sweep",
    )
}

__all__ = sorted(_EXPORTS) + ["__version__"]

_lazy_getattr, _lazy_dir = lazy_exports(__name__, globals(), _EXPORTS)


def __getattr__(name: str):
    if name in _DEPRECATED:
        module, attr = _DEPRECATED[name]
        warnings.warn(
            f"repro.{name} is deprecated; import it from {module} "
            "(or use the repro.study API)",
            DeprecationWarning, stacklevel=2)
        return resolve_export(module, attr)  # uncached so every use warns
    return _lazy_getattr(name)


def __dir__():
    return sorted(set(_lazy_dir()) | set(_DEPRECATED))
