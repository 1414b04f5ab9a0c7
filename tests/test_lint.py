"""The ``repro lint`` static-analysis framework.

Per rule: one seeded violation that must fire, one clean variant that
must not, and one pragma-suppressed variant proving the ``# repro:
allow[...]`` grammar silences exactly that hit.  Plus the framework
itself -- pragma parsing, scope configuration, JSON schema, exit
codes -- and the meta-test: ``repro lint`` exits 0 on the committed
tree without importing a single third-party package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.devtools.lint import (
    PRAGMA_RULE_ID,
    RULES,
    LintConfig,
    Scope,
    lint_paths,
    parse_pragmas,
)
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.engine import PARSE_ERROR_ID

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Default fixture home: inside the engine scope, so every rule's
#: default path configuration applies.
ENGINE_REL = "src/repro/core/engine/fixture_mod.py"


def lint_source(tmp_path, source, relpath=ENGINE_REL, **config):
    """Lint one fixture file planted at *relpath* under a tmp root."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    report = lint_paths([str(tmp_path)], LintConfig(**config),
                        root=str(tmp_path))
    return report


def rule_hits(report, rule_id):
    return [v for v in report.violations if v.rule == rule_id]


# -- the rule pack: fires / clean / pragma-suppressed ---------------------------


class TestR001WallClock:
    VIOLATION = """
        import time

        def stamp(record):
            record["t"] = time.time()
    """

    def test_fires_on_wall_clock_read(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R001")
        assert "time.time" in hit.message
        assert hit.line == 5

    def test_fires_through_import_aliases(self, tmp_path):
        report = lint_source(tmp_path, """
            from datetime import datetime
            import uuid

            def stamp():
                return datetime.now(), uuid.uuid4()
        """)
        messages = [v.message for v in rule_hits(report, "R001")]
        assert len(messages) == 2
        assert any("datetime.datetime.now" in m for m in messages)
        assert any("uuid.uuid4" in m for m in messages)

    def test_clean_code_passes(self, tmp_path):
        report = lint_source(tmp_path, """
            def stamp(record, clock):
                record["t"] = clock.tick()
        """)
        assert not rule_hits(report, "R001")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            import time

            def elapsed(start):
                # repro: allow[R001] report-only duration, never recorded
                return time.perf_counter() - start
        """)
        assert not rule_hits(report, "R001")
        assert not rule_hits(report, PRAGMA_RULE_ID)

    def test_out_of_scope_file_is_ignored(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION,
                             relpath="tools/unrelated.py")
        assert not rule_hits(report, "R001")


class TestR002RngDiscipline:
    VIOLATION = """
        import numpy as np

        def pick(seed):
            return np.random.default_rng(seed).integers(8)
    """

    def test_fires_on_default_rng(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION,
                             relpath="src/repro/core/picker.py")
        (hit,) = rule_hits(report, "R002")
        assert "numpy.random.default_rng" in hit.message
        assert "RngStream" in hit.message

    def test_fires_on_randomstate_via_from_import(self, tmp_path):
        report = lint_source(tmp_path, """
            from numpy import random

            def legacy(seed):
                return random.RandomState(seed)
        """, relpath="src/repro/apps/toy/app.py")
        assert len(rule_hits(report, "R002")) == 1

    def test_annotation_is_not_a_construction(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np

            def consume(rng: np.random.Generator) -> float:
                return rng.random()
        """, relpath="src/repro/core/picker.py")
        assert not rule_hits(report, "R002")

    def test_rngstream_usage_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.util.rngstream import RngStream

            def pick(seed):
                return RngStream(seed, "pick").generator().integers(8)
        """, relpath="src/repro/core/picker.py")
        assert not rule_hits(report, "R002")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np

            def scratch(seed):
                # repro: allow[R002] throwaway diagnostics, not a record path
                return np.random.default_rng(seed)
        """, relpath="src/repro/core/picker.py")
        assert not rule_hits(report, "R002")


class TestR003UnorderedIteration:
    VIOLATION = """
        def emit(trace, sink):
            for ino in set(trace.observed) | set(trace.written):
                sink.write(ino)
    """

    def test_fires_on_set_union_iteration(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R003")
        assert "sorted()" in hit.message

    def test_fires_on_comprehension_over_set_literal(self, tmp_path):
        report = lint_source(tmp_path, """
            def emit(sink):
                return [sink.write(x) for x in {3, 1, 2}]
        """)
        assert len(rule_hits(report, "R003")) == 1

    def test_sorted_wrapper_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            def emit(trace, sink):
                for ino in sorted(set(trace.observed) | set(trace.written)):
                    sink.write(ino)
        """)
        assert not rule_hits(report, "R003")

    def test_list_iteration_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            def emit(trace, sink):
                for ino in trace.observed:
                    sink.write(ino)
        """)
        assert not rule_hits(report, "R003")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            def probe(inos):
                # repro: allow[R003] membership predicate, order never observed
                return all(x > 0 for x in set(inos))
        """)
        assert not rule_hits(report, "R003")


class TestR004ForkSafety:
    VIOLATION = """
        def fan_out(pool, items):
            return pool.map(lambda x: x + 1, items)
    """

    def test_fires_on_lambda_to_pool_map(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R004")
        assert "map()" in hit.message

    def test_fires_on_nested_def_submitted(self, tmp_path):
        report = lint_source(tmp_path, """
            def fan_out(executor, item):
                def work():
                    return item + 1
                return executor.submit(work)
        """)
        assert len(rule_hits(report, "R004")) == 1

    def test_fires_on_lambda_initializer(self, tmp_path):
        report = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            def build(token):
                return ProcessPoolExecutor(
                    max_workers=2, initializer=lambda: print(token))
        """)
        assert len(rule_hits(report, "R004")) == 1

    def test_module_level_function_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            def work(x):
                return x + 1

            def fan_out(pool, items):
                return pool.map(work, items)
        """)
        assert not rule_hits(report, "R004")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            def fan_out(pool, items):
                # repro: allow[R004] thread pool, no pickling involved
                return pool.map(lambda x: x + 1, items)
        """)
        assert not rule_hits(report, "R004")


class TestR005ReplaySoundness:
    VIOLATION = """
        from repro.core.scenario import FaultScenario

        class DriveDropout(FaultScenario):
            def stamp(self):
                return "dropout"
    """

    def test_fires_on_scenario_without_constraint(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R005")
        assert "DriveDropout" in hit.message
        assert "replay_constraint" in hit.message

    def test_fires_on_app_without_steps(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.apps.base import HpcApplication

            class LegacyApp(HpcApplication):
                def run(self, mp):
                    pass
        """)
        (hit,) = rule_hits(report, "R005")
        assert "steps" in hit.message

    def test_complete_subclasses_are_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.apps.base import HpcApplication
            from repro.core.scenario import FaultScenario

            class GoodScenario(FaultScenario):
                def replay_constraint(self, signature, spec):
                    return None

            class GoodApp(HpcApplication):
                def steps(self):
                    return []
        """)
        assert not rule_hits(report, "R005")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.core.scenario import FaultScenario

            # repro: allow[R005] experimental scenario, replay semantics TBD
            class DriveDropout(FaultScenario):
                def stamp(self):
                    return "dropout"
        """)
        assert not rule_hits(report, "R005")


class TestR006FrozenSpecMutation:
    VIOLATION = """
        from repro.study import StudySpec

        def widen(spec):
            spec = StudySpec(name="x")
            spec.runs = 500
            return spec
    """

    def test_fires_on_attribute_assignment(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R006")
        assert "StudySpec" in hit.message

    def test_fires_on_annotated_parameter(self, tmp_path):
        report = lint_source(tmp_path, """
            def retarget(spec: RunSpec, instance):
                spec.target_instance = instance
        """)
        assert len(rule_hits(report, "R006")) == 1

    def test_fires_on_object_setattr_escape(self, tmp_path):
        report = lint_source(tmp_path, """
            def widen(cell: SweepCell):
                object.__setattr__(cell, "runs", 500)
        """)
        (hit,) = rule_hits(report, "R006")
        assert "SweepCell" in hit.message

    def test_replace_is_the_clean_spelling(self, tmp_path):
        report = lint_source(tmp_path, """
            import dataclasses

            def widen(spec: StudySpec):
                return dataclasses.replace(spec, runs=500)
        """)
        assert not rule_hits(report, "R006")

    def test_constructors_may_setattr(self, tmp_path):
        report = lint_source(tmp_path, """
            def __post_init__(self, spec: StudySpec):
                object.__setattr__(spec, "targets", ())
        """)
        assert not rule_hits(report, "R006")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            def widen(spec: StudySpec):
                # repro: allow[R006] migration shim for v1 checkpoints
                object.__setattr__(spec, "runs", 500)
        """)
        assert not rule_hits(report, "R006")


# -- the whole-program rule pack: R007-R010 -------------------------------------


class TestR007ForkEffect:
    VIOLATION = """
        from concurrent.futures import ProcessPoolExecutor

        CACHE = {}

        def work(x):
            CACHE[x] = x * 2
            return x

        def drive(pool: ProcessPoolExecutor, items):
            return list(pool.map(work, items))
    """

    def test_fires_on_global_write_reachable_from_fork(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R007")
        assert "CACHE" in hit.message
        assert "fork" in hit.message

    def test_fires_through_initializer_edge(self, tmp_path):
        report = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            SEEN = []

            def _init():
                SEEN.append(1)

            def drive(items):
                with ProcessPoolExecutor(initializer=_init) as pool:
                    return list(pool.map(str, items))
        """)
        (hit,) = rule_hits(report, "R007")
        assert "SEEN" in hit.message

    def test_sanctioned_registry_write_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            _WORKER_STATE = None

            def _init(payload):
                global _WORKER_STATE
                _WORKER_STATE = payload

            def drive(pool: ProcessPoolExecutor, items):
                return list(pool.map(_init, items))
        """)
        assert not rule_hits(report, "R007")

    def test_unreachable_global_write_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            CACHE = {}

            def local_only(x):
                CACHE[x] = x
                return x
        """)
        assert not rule_hits(report, "R007")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            CACHE = {}

            def work(x):
                # repro: allow[R007] per-child memo, never read back
                CACHE[x] = x * 2
                return x

            def drive(pool: ProcessPoolExecutor, items):
                return list(pool.map(work, items))
        """)
        assert not rule_hits(report, "R007")
        assert not rule_hits(report, PRAGMA_RULE_ID)


class TestR008QueueProtocol:
    VIOLATION = """
        import os

        def post(root, payload):
            with open(os.path.join(root, "pending", "a.json"), "w") as f:
                f.write(payload)
    """

    def test_fires_on_inplace_state_write(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R008")
        assert "pending" in hit.message
        assert "tmp sibling" in hit.message

    def test_fires_across_a_helper_boundary(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def raw_write(path, payload):
                with open(path, "w") as f:
                    f.write(payload)

            def post(root, payload):
                raw_write(os.path.join(root, "pending", "a.json"), payload)
        """)
        (hit,) = rule_hits(report, "R008")
        assert "raw_write" in hit.message

    def test_fires_on_rename_into_shards(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def settle(root, name):
                os.rename(os.path.join(root, "leased", name),
                          os.path.join(root, "shards", name))
        """)
        (hit,) = rule_hits(report, "R008")
        assert "renames directly into shards/" in hit.message

    def test_fires_on_unguarded_pending_unlink(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def drop(root, name):
                os.unlink(os.path.join(root, "pending", name))
        """)
        (hit,) = rule_hits(report, "R008")
        assert "probing shards/" in hit.message

    def test_fires_on_segment_unlink(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def forget(root, name):
                os.unlink(os.path.join(root, "shards", name))
        """)
        (hit,) = rule_hits(report, "R008")
        assert "published segment" in hit.message

    def test_atomic_publish_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def post(root, payload):
                path = os.path.join(root, "pending", "a.json")
                tmp = path + ".tmp"
                with open(tmp, "w") as f:
                    f.write(payload)
                os.replace(tmp, path)
        """)
        assert not rule_hits(report, "R008")

    def test_shards_probed_unlink_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def drop(root, segment, name):
                if os.path.exists(os.path.join(root, "shards", segment)):
                    os.unlink(os.path.join(root, "pending", name))
        """)
        assert not rule_hits(report, "R008")

    def test_probe_after_the_unlink_does_not_guard_it(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def drop(root, name):
                os.unlink(os.path.join(root, "leased", name))
                return os.listdir(os.path.join(root, "shards"))
        """)
        (hit,) = rule_hits(report, "R008")
        assert "leased/" in hit.message

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def post(root, payload):
                # repro: allow[R008] one-shot test fixture, no readers
                with open(os.path.join(root, "pending", "a.json"), "w") as f:
                    f.write(payload)
        """)
        assert not rule_hits(report, "R008")
        assert not rule_hits(report, PRAGMA_RULE_ID)

    # -- the injectable QueueIO seam: same protocol, new spelling -----------

    def test_seam_inplace_state_write_fires(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def post(io, root, payload):
                f = io.open_w(os.path.join(root, "pending", "a.json"))
                io.write(f, payload)
        """)
        (hit,) = rule_hits(report, "R008")
        assert "pending" in hit.message

    def test_seam_atomic_publish_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def post(io, root, payload):
                path = os.path.join(root, "pending", "a.json")
                tmp = path + ".tmp"
                f = io.open_w(tmp)
                io.write(f, payload)
                io.replace(tmp, path)
        """)
        assert not rule_hits(report, "R008")

    def test_seam_rename_out_of_shards_fires(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def rollback(io, root, name):
                io.replace(os.path.join(root, "shards", name),
                           os.path.join(root, "pending", name))
        """)
        (hit,) = rule_hits(report, "R008")
        assert "out of shards/" in hit.message

    def test_seam_segment_publish_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def publish(io, root, name, payload):
                path = os.path.join(root, "shards", name)
                f = io.open_w(path + ".tmp")
                io.write(f, payload)
                io.replace(path + ".tmp", path)
        """)
        assert not rule_hits(report, "R008")

    def test_seam_quarantine_rename_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def park(queue, name):
                queue.io.replace(
                    os.path.join(queue.leased_dir, name),
                    os.path.join(queue.quarantine_dir, name))
        """)
        assert not rule_hits(report, "R008")

    def test_seam_unguarded_unlink_fires(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def drop(io, root, name):
                io.unlink(os.path.join(root, "pending", name))
        """)
        (hit,) = rule_hits(report, "R008")
        assert "probing shards/" in hit.message

    def test_seam_shards_probed_unlink_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def drop(io, root, name):
                if name in io.listdir(os.path.join(root, "shards")):
                    io.unlink(os.path.join(root, "pending", name))
        """)
        assert not rule_hits(report, "R008")

    def test_str_replace_does_not_alias_the_seam(self, tmp_path):
        report = lint_source(tmp_path, """
            def relabel(scenario, done_dir, pending_dir):
                return scenario.replace(done_dir, pending_dir)
        """)
        assert not rule_hits(report, "R008")


class TestR009ShutdownSoundness:
    VIOLATION = """
        from repro.core.engine.sink import JsonlSink

        def write_all(path, records):
            sink = JsonlSink(path)
            for record in records:
                sink.emit(record)
            sink.close()
    """

    def test_fires_on_release_outside_finally(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R009")
        assert "close()" in hit.message
        assert "finally" in hit.message

    def test_finally_dominated_release_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.core.engine.sink import JsonlSink

            def write_all(path, records):
                sink = JsonlSink(path)
                try:
                    for record in records:
                        sink.emit(record)
                finally:
                    sink.close()
        """)
        assert not rule_hits(report, "R009")

    def test_no_acquire_no_flag(self, tmp_path):
        report = lint_source(tmp_path, """
            def close_it(handle):
                handle.close()
        """)
        assert not rule_hits(report, "R009")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            from repro.core.engine.sink import JsonlSink

            def write_all(path, records):
                sink = JsonlSink(path)
                for record in records:
                    sink.emit(record)
                sink.close()  # repro: allow[R009] caller owns the raise path
        """)
        assert not rule_hits(report, "R009")
        assert not rule_hits(report, PRAGMA_RULE_ID)


class TestR010SinkPlanOrder:
    VIOLATION = """
        import os

        def merge(shards_dir, sink):
            for name in os.listdir(shards_dir):
                sink.emit(name)
    """

    def test_fires_on_emission_in_listdir_order(self, tmp_path):
        report = lint_source(tmp_path, self.VIOLATION)
        (hit,) = rule_hits(report, "R010")
        assert "hash-arbitrary" in hit.message

    def test_fires_through_an_emitting_callee(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def forward(sink, name):
                sink.emit_stamped(name, "c")

            def merge(shards_dir, sink):
                for name in os.listdir(shards_dir):
                    forward(sink, name)
        """)
        (hit,) = rule_hits(report, "R010")
        assert hit.rule == "R010"

    def test_sorted_enumeration_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def merge(shards_dir, sink):
                for name in sorted(os.listdir(shards_dir)):
                    sink.emit(name)
        """)
        assert not rule_hits(report, "R010")

    def test_nonemitting_listdir_loop_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def census(shards_dir):
                total = 0
                for _name in os.listdir(shards_dir):
                    total += 1
                return total
        """)
        assert not rule_hits(report, "R010")

    def test_fires_on_emission_in_seam_listdir_order(self, tmp_path):
        report = lint_source(tmp_path, """
            def merge(io, shards_dir, sink):
                for name in io.listdir(shards_dir):
                    sink.emit(name)
        """)
        (hit,) = rule_hits(report, "R010")
        assert "hash-arbitrary" in hit.message

    def test_sorted_seam_enumeration_is_clean(self, tmp_path):
        report = lint_source(tmp_path, """
            def merge(io, shards_dir, sink):
                for name in sorted(io.listdir(shards_dir)):
                    sink.emit(name)
        """)
        assert not rule_hits(report, "R010")

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(tmp_path, """
            import os

            def merge(shards_dir, sink):
                # repro: allow[R010] dedup pass; merge re-sorts downstream
                for name in os.listdir(shards_dir):
                    sink.emit(name)
        """)
        assert not rule_hits(report, "R010")
        assert not rule_hits(report, PRAGMA_RULE_ID)


# -- pragma grammar -------------------------------------------------------------


class TestPragmaGrammar:
    def test_trailing_pragma_targets_its_own_line(self):
        pragmas = parse_pragmas("f.py", "x = 1  # repro: allow[R001] why\n")
        (pragma,) = pragmas.pragmas
        assert pragma.target_line == 1
        assert pragma.rules == ("R001",)
        assert pragma.reason == "why"

    def test_own_line_pragma_targets_the_next_line(self):
        source = "# repro: allow[R003] sorted upstream\nfor x in s:\n    pass\n"
        pragmas = parse_pragmas("f.py", source)
        (pragma,) = pragmas.pragmas
        assert pragma.line == 1
        assert pragma.target_line == 2

    def test_multiple_rules_in_one_pragma(self):
        pragmas = parse_pragmas(
            "f.py", "x = f()  # repro: allow[R001, R004] shared reason\n")
        (pragma,) = pragmas.pragmas
        assert pragma.rules == ("R001", "R004")

    def test_missing_reason_is_a_violation(self):
        pragmas = parse_pragmas("f.py", "x = 1  # repro: allow[R001]\n")
        assert not pragmas.pragmas
        (problem,) = pragmas.problems
        assert problem.rule == PRAGMA_RULE_ID
        assert "reason" in problem.message

    def test_unparsable_pragma_is_a_violation(self):
        pragmas = parse_pragmas("f.py", "x = 1  # repro: alow[R001] typo\n")
        (problem,) = pragmas.problems
        assert "unparsable" in problem.message

    def test_pragma_inside_a_string_is_data(self):
        pragmas = parse_pragmas(
            "f.py", 'x = "# repro: allow[R001] not a pragma"\n')
        assert not pragmas.pragmas
        assert not pragmas.problems

    def test_unknown_rule_in_pragma_is_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            x = 1  # repro: allow[R999] no such rule
        """)
        assert any("unknown rule R999" in v.message
                   for v in rule_hits(report, PRAGMA_RULE_ID))

    def test_unused_pragma_is_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            def clean():
                # repro: allow[R003] nothing here actually fires
                return [1, 2, 3]
        """)
        assert any("unused pragma" in v.message
                   for v in rule_hits(report, PRAGMA_RULE_ID))

    def test_unused_pragma_flagging_can_be_disabled(self, tmp_path):
        report = lint_source(tmp_path, """
            def clean():
                # repro: allow[R003] nothing here actually fires
                return [1, 2, 3]
        """, flag_unused_pragmas=False)
        assert not rule_hits(report, PRAGMA_RULE_ID)


# -- framework: scopes, selection, parse errors, output, exit codes -------------


class TestFramework:
    def test_scope_override_rescopes_a_rule(self, tmp_path):
        source = TestR001WallClock.VIOLATION
        overrides = {"R001": Scope(include=("tools/*",))}
        target = tmp_path / "tools" / "x.py"
        target.parent.mkdir()
        target.write_text(textwrap.dedent(source))
        report = lint_paths([str(tmp_path)],
                            LintConfig(scope_overrides=overrides),
                            root=str(tmp_path))
        assert len(rule_hits(report, "R001")) == 1

    def test_select_runs_only_named_rules(self, tmp_path):
        source = TestR001WallClock.VIOLATION + """
        def emit(trace, sink):
            for ino in set(trace.observed):
                sink.write(ino)
        """
        report = lint_source(tmp_path, source, select=("R003",))
        assert report.rules == ["R003"]
        assert not rule_hits(report, "R001")
        assert len(rule_hits(report, "R003")) == 1

    def test_unknown_select_raises(self, tmp_path):
        with pytest.raises(KeyError):
            lint_paths([str(tmp_path)], LintConfig(select=("R777",)))

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        report = lint_source(tmp_path, "def broken(:\n")
        (hit,) = report.violations
        assert hit.rule == PARSE_ERROR_ID

    def test_every_rule_has_id_name_rationale_scope(self):
        assert set(RULES) == {"R001", "R002", "R003", "R004", "R005",
                              "R006", "R007", "R008", "R009", "R010"}
        for rule in RULES.values():
            assert rule.id and rule.name and rule.rationale
            assert rule.scope.include

    def test_violations_sort_by_location(self, tmp_path):
        source = TestR003UnorderedIteration.VIOLATION + """
        import time

        def stamp():
            return time.time()
        """
        report = lint_source(tmp_path, source)
        assert [v.line for v in report.violations] == \
            sorted(v.line for v in report.violations)


class TestJsonOutput:
    def test_schema(self, tmp_path, capsys):
        target = tmp_path / ENGINE_REL
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(TestR003UnorderedIteration.VIOLATION))
        rc = lint_main([str(target), "--format", "json",
                        "--root", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"R003": 1}
        assert payload["rules"] == ["R001", "R002", "R003", "R004",
                                    "R005", "R006", "R007", "R008",
                                    "R009", "R010"]
        (violation,) = payload["violations"]
        assert set(violation) == {"rule", "path", "line", "col", "message"}
        assert violation["rule"] == "R003"
        assert violation["path"].endswith("fixture_mod.py")

    def test_clean_tree_json_and_exit_zero(self, tmp_path, capsys):
        target = tmp_path / "empty.py"
        target.write_text("x = 1\n")
        rc = lint_main([str(target), "--format", "json",
                        "--root", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert payload["violations"] == []


class TestCli:
    def test_missing_path_exits_2(self, capsys):
        assert lint_main(["definitely/not/a/path"]) == 2

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        target = tmp_path / "x.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target), "--select", "R777"]) == 2

    def test_list_rules_mentions_every_rule(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in list(RULES) + [PRAGMA_RULE_ID, PARSE_ERROR_ID]:
            assert rule_id in out


# -- multi-line statements: pragma placement (regression) -----------------------


class TestMultiLinePragma:
    def test_pragma_on_violating_line_of_multiline_statement(self, tmp_path):
        report = lint_source(tmp_path, """
            def run(pool, items):
                futures = pool.submit(
                    lambda x: x,  # repro: allow[R004] inline test-only task
                    items,
                )
                return futures
        """)
        assert not rule_hits(report, "R004")
        assert not rule_hits(report, PRAGMA_RULE_ID)

    def test_pragma_on_sibling_line_of_multiline_statement(self, tmp_path):
        report = lint_source(tmp_path, """
            def run(pool, items):
                futures = pool.submit(
                    lambda x: x,
                    items,  # repro: allow[R004] inline test-only task
                )
                return futures
        """)
        assert not rule_hits(report, "R004")
        assert not rule_hits(report, PRAGMA_RULE_ID)

    def test_pragma_does_not_leak_across_statements(self, tmp_path):
        # A pragma inside one statement must not silence the next one.
        report = lint_source(tmp_path, """
            def run(pool, items):
                first = pool.submit(
                    lambda x: x,  # repro: allow[R004] inline test-only task
                )
                second = pool.submit(lambda x: x, items)
                return first, second
        """)
        assert len(rule_hits(report, "R004")) == 1


# -- SARIF output ---------------------------------------------------------------


class TestSarifOutput:
    def _emit(self, tmp_path, capsys):
        target = tmp_path / ENGINE_REL
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(
            TestR003UnorderedIteration.VIOLATION))
        rc = lint_main([str(target), "--format", "sarif",
                        "--root", str(tmp_path)])
        return rc, capsys.readouterr().out

    def test_sarif_2_1_0_shape(self, tmp_path, capsys):
        rc, out = self._emit(tmp_path, capsys)
        payload = json.loads(out)
        assert rc == 1
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]
        (result,) = run["results"]
        assert result["ruleId"] == "R003"
        assert rule_ids[result["ruleIndex"]] == "R003"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(
            "fixture_mod.py")
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1

    def test_sarif_is_deterministic(self, tmp_path, capsys):
        _, first = self._emit(tmp_path, capsys)
        _, second = self._emit(tmp_path, capsys)
        assert first == second

    def test_clean_tree_sarif_has_empty_results(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        rc = lint_main([str(target), "--format", "sarif",
                        "--root", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["runs"][0]["results"] == []


# -- the autofixer --------------------------------------------------------------


FIXABLE = """
    import json  # repro: allow[R001] stale pragma that suppresses nothing

    def emit(trace, sink):
        for ino in set(trace.observed):
            sink.write(json.dumps(ino))
"""


class TestAutofix:
    def _plant(self, tmp_path):
        target = tmp_path / ENGINE_REL
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(FIXABLE))
        return target

    def test_fix_rewrites_and_relints_clean(self, tmp_path, capsys):
        target = self._plant(tmp_path)
        rc = lint_main([str(target), "--fix", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "fixed 2 violation(s)" in out
        fixed = target.read_text()
        assert "sorted(set(trace.observed))" in fixed
        assert "repro: allow" not in fixed
        assert lint_main([str(target), "--root", str(tmp_path)]) == 0

    def test_fix_is_idempotent(self, tmp_path, capsys):
        target = self._plant(tmp_path)
        lint_main([str(target), "--fix", "--root", str(tmp_path)])
        capsys.readouterr()
        once = target.read_text()
        rc = lint_main([str(target), "--fix", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fixed 0 violation(s)" in out
        assert target.read_text() == once

    def test_fix_diff_previews_without_writing(self, tmp_path, capsys):
        target = self._plant(tmp_path)
        before = target.read_text()
        rc = lint_main([str(target), "--fix", "--diff",
                        "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "+++ " in out and "--- " in out
        assert "sorted(set(trace.observed))" in out
        assert target.read_text() == before

    def test_diff_without_fix_is_a_usage_error(self, tmp_path):
        target = self._plant(tmp_path)
        assert lint_main([str(target), "--diff",
                          "--root", str(tmp_path)]) == 2

    def test_unfixable_violations_keep_exit_one(self, tmp_path, capsys):
        target = tmp_path / ENGINE_REL
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(TestR001WallClock.VIOLATION))
        rc = lint_main([str(target), "--fix", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "need a human" in out


# -- the meta-test: the committed tree is clean, with zero 3p imports -----------


#: A ``python -c`` prelude: a meta-path finder that refuses every import
#: of a top-level package in ``BANNED`` and records each attempt, so an
#: ImportError the code under test catches still fails the check.  It
#: implements ``find_spec``; Python 3.12 no longer calls ``find_module``.
IMPORT_BLOCKER = """
import sys

class _Blocker:
    attempts = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BANNED:
            self.attempts.append(name)
            raise ImportError("blocked import: " + name)
        return None

blocker = _Blocker()
sys.meta_path.insert(0, blocker)
"""


def blocked_script(banned, body: str) -> str:
    """*body* as a ``python -c`` script that imports ``src/``'s repro
    with the *banned* top-level packages blocked."""
    src = os.path.join(REPO_ROOT, "src")
    return (f"BANNED = {sorted(banned)!r}\n" + IMPORT_BLOCKER
            + f"sys.path.insert(0, {src!r})\n" + body)


LINT_ONLY = """
from repro.cli import main

code = main(["lint"])
assert not blocker.attempts, blocker.attempts
raise SystemExit(code)
"""


class TestCommittedTree:
    def test_repro_lint_is_clean_and_dependency_free(self):
        """`repro lint` exits 0 on the committed tree without importing
        any third-party package (the CI step runs before pip install)."""
        script = blocked_script(
            ("numpy", "scipy", "pytest", "hypothesis", "tomli", "pandas",
             "matplotlib"), LINT_ONLY)
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout
        # The whole-program pack (R007-R010) ran too, still stdlib-only.
        assert "10 rules" in proc.stdout

    def test_standalone_module_entry_point(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0
        assert "R001" in proc.stdout
