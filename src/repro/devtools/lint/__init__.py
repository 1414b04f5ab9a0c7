"""``repro lint``: AST-based static analysis of the repo's invariants.

The runtime stack guarantees record streams are byte-identical across
serial, parallel, and prefix-replayed execution; the dynamic guards
(golden fixtures, the replay-determinism CI step) catch violations only
once a test exercises them.  This package enforces the statically
visible half of those invariants at commit time, with zero third-party
imports so it runs before any dependency install:

* ``R001`` no-wallclock          -- no clock/entropy reads in record paths
* ``R002`` rng-discipline        -- RNGs flow through named substreams
* ``R003`` unordered-iteration   -- no bare set iteration where order
  becomes a record or a splice decision
* ``R004`` fork-safety           -- no lambdas/closures into worker pools
* ``R005`` replay-soundness      -- scenarios/apps opt into replay
  explicitly (no silent cold fallback)
* ``R006`` frozen-spec-mutation  -- planning specs are immutable values

The whole-program pack (call graph + effect summaries over every file
in the run; :mod:`repro.devtools.lint.wholeprogram`):

* ``R007`` fork-effect-safety    -- no module-global writes reachable
  from a fork/spawn entry point (outside the sanctioned registries)
* ``R008`` queue-protocol        -- lease-queue state dirs change only
  through claim-by-rename / segment-publish-settles transitions
* ``R009`` shutdown-soundness    -- explicit releases after an acquire
  (FINISHED marker, shard close) are finally-dominated
* ``R010`` sink-plan-order       -- no record emission driven by a raw
  listdir/glob/iterdir enumeration

Suppression grammar (reason mandatory)::

    expr  # repro: allow[R001] elapsed-time report only, never recorded

Rules live in :mod:`repro.devtools.lint.rules` and
:mod:`repro.devtools.lint.wholeprogram`; adding one is a
:class:`~repro.devtools.lint.registry.Rule` (or ``ProjectRule``)
subclass plus the ``@register`` decorator (see the README's "Static
analysis" section).  ``--format sarif`` emits SARIF 2.1.0
(:mod:`repro.devtools.lint.sarif`); ``--fix`` applies the mechanical
rewrites (:mod:`repro.devtools.lint.fixer`).
"""

from repro.devtools.lint import rules as _rules  # populate the registry
from repro.devtools.lint import wholeprogram as _wholeprogram  # noqa: F401
from repro.devtools.lint.engine import LintReport, lint_file, lint_paths
from repro.devtools.lint.pragmas import PRAGMA_RULE_ID, parse_pragmas
from repro.devtools.lint.registry import (
    RULES,
    FileContext,
    LintConfig,
    ProjectRule,
    Rule,
    Scope,
    Violation,
    register,
)

del _rules, _wholeprogram

__all__ = [
    "FileContext",
    "LintConfig",
    "LintReport",
    "PRAGMA_RULE_ID",
    "ProjectRule",
    "RULES",
    "Rule",
    "Scope",
    "Violation",
    "lint_file",
    "lint_paths",
    "parse_pragmas",
    "register",
]
