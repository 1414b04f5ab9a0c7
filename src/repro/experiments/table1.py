"""Table I -- fault models supported by FFIS.

The paper's Table I is a specification table (model, affected FUSE
primitives, features).  The reproduction *executes* the specification:
each row is produced by actually applying the model to a 4 KiB write
call and measuring what happened (bits flipped, sector-aligned shear
point, suppression), so the table doubles as a conformance check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.tables import render_table
from repro.core.fault_models import (
    BitFlipFault,
    DroppedWriteFault,
    ShornWriteFault,
)
from repro.fusefs.interposer import CallDecision, PrimitiveCall
from repro.util.bitops import hamming_distance

AFFECTED_PRIMITIVES = "FFISwrite, FFISmknod, FFISchmod ..."


@dataclass
class Table1Row:
    model: str
    primitives: str
    feature: str
    measured: str


@dataclass
class Table1Result:
    rows: List[Table1Row] = field(default_factory=list)

    def render(self) -> str:
        return render_table(
            ["Fault model", "Affected FUSE primitives", "Features", "Measured behaviour"],
            [[r.model, r.primitives, r.feature, r.measured] for r in self.rows],
            title="Table I: fault models supported by FFIS",
        )


def _call(buf: bytes) -> PrimitiveCall:
    return PrimitiveCall(primitive="ffis_write",
                         args={"fd": 3, "buf": buf, "size": len(buf), "offset": 0},
                         seqno=0)


def run_table1(seed: int = 0, block_size: int = 4096) -> Table1Result:
    """Apply each fault model once to one block and describe the result."""
    rng = np.random.default_rng(seed)
    original = bytes(rng.integers(0, 256, size=block_size, dtype=np.uint8))
    result = Table1Result()

    bf = BitFlipFault(n_bits=2)
    call = _call(original)
    decision = bf.apply(call, np.random.default_rng(seed))
    flipped = hamming_distance(original, call.args["buf"])
    result.rows.append(Table1Row(
        model="Bitflip", primitives=AFFECTED_PRIMITIVES, feature=bf.describe(),
        measured=f"{flipped} bits flipped, size preserved "
                 f"({len(call.args['buf'])} B), decision={decision}"))

    for fraction in (3 / 8, 7 / 8):
        sw = ShornWriteFault(fraction=fraction)
        call = _call(original)
        sw.apply(call, np.random.default_rng(seed))
        buf = call.args["buf"]
        kept = sw.shear_point(block_size)
        prefix_ok = buf[:kept] == original[:kept]
        tail_differs = buf[kept:] != original[kept:]
        result.rows.append(Table1Row(
            model="Shorn write", primitives=AFFECTED_PRIMITIVES,
            feature=sw.describe(),
            measured=f"first {kept} B intact ({prefix_ok}), "
                     f"{block_size - kept} B tail undefined ({tail_differs})"))

    dw = DroppedWriteFault()
    call = _call(original)
    decision = dw.apply(call, np.random.default_rng(seed))
    result.rows.append(Table1Row(
        model="Dropped write", primitives=AFFECTED_PRIMITIVES,
        feature=dw.describe(),
        measured=f"decision={decision is CallDecision.SUPPRESS and 'SUPPRESS'}, "
                 "success still reported"))
    return result
