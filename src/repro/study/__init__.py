"""The declarative Study API: one serializable spec per study.

A study -- a grid of applications x fault models x scenarios, or a
metadata sweep -- is described by a :class:`StudySpec` (pure data, TOML
round-trippable), compiled by :class:`Study` onto the fused campaign
engine, and executed to a uniform :class:`ResultSet`::

    from repro.study import ModelSpec, StudySpec, TargetSpec, run_study

    spec = StudySpec(
        name="demo",
        targets=(TargetSpec(app="nyx"), TargetSpec(app="montage")),
        models=(ModelSpec(model="BF"), ModelSpec(model="DW")),
        runs=100, seed=1)
    results = run_study(spec)
    print(results.render())
    print(results.rate(Outcome.SDC, "nyx-DW"))

The paper's grid experiments are registered under stable ids
(:data:`STUDIES`): ``get_study("figure7").build()`` returns the Fig. 7
spec, and ``repro study run figure7`` executes it from the CLI.  New
studies are data -- a TOML file or a spec literal -- not new driver
modules.
"""

from typing import Dict, Tuple

from repro.util.lazy import lazy_exports

#: Exported name -> (module, attribute), resolved on first access (PEP
#: 562) so ``import repro.study`` -- and the CLI's argparse setup --
#: stay cheap until a study actually plans or runs.
_EXPORTS: Dict[str, Tuple[str, str]] = {
    "app_ids": ("repro.study.apps", "app_ids"),
    "register_app": ("repro.study.apps", "register_app"),
    "resolve_app_factory": ("repro.study.apps", "resolve_app_factory"),
    "STUDIES": ("repro.study.registry", "STUDIES"),
    "StudyDefinition": ("repro.study.registry", "StudyDefinition"),
    "get_study": ("repro.study.registry", "get_study"),
    "register_study": ("repro.study.registry", "register_study"),
    "CellInfo": ("repro.study.resultset", "CellInfo"),
    "ResultSet": ("repro.study.resultset", "ResultSet"),
    "CellSpec": ("repro.study.spec", "CellSpec"),
    "ModelSpec": ("repro.study.spec", "ModelSpec"),
    "ScenarioSpec": ("repro.study.spec", "ScenarioSpec"),
    "StudySpec": ("repro.study.spec", "StudySpec"),
    "TargetSpec": ("repro.study.spec", "TargetSpec"),
    "load_spec": ("repro.study.spec", "load_spec"),
    "CompiledCell": ("repro.study.study", "CompiledCell"),
    "Study": ("repro.study.study", "Study"),
    "StudyPlan": ("repro.study.study", "StudyPlan"),
    "run_study": ("repro.study.study", "run_study"),
    "run_study_worker": ("repro.study.dist", "run_study_worker"),
    "serve_study": ("repro.study.dist", "serve_study"),
}


__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "CellInfo",
    "CellSpec",
    "CompiledCell",
    "ModelSpec",
    "ResultSet",
    "STUDIES",
    "ScenarioSpec",
    "Study",
    "StudyDefinition",
    "StudyPlan",
    "StudySpec",
    "TargetSpec",
    "app_ids",
    "get_study",
    "load_spec",
    "register_app",
    "register_study",
    "resolve_app_factory",
    "run_study",
    "run_study_worker",
    "serve_study",
]
