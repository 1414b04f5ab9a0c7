"""Shared low-level utilities: bit manipulation, RNG streams, binary codecs.

Exports resolve lazily (PEP 562, via :mod:`repro.util.lazy`) so packages
that only need the lazy-export helper never pay for numpy.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    name: ("repro.util.bitops", name) for name in (
        "flip_bit", "flip_bits", "flip_consecutive_bits", "hamming_distance",
    )
}
_EXPORTS.update({
    "RngStream": ("repro.util.rngstream", "RngStream"),
    "derive_seed": ("repro.util.rngstream", "derive_seed"),
    "pack_uint": ("repro.util.binary", "pack_uint"),
    "unpack_uint": ("repro.util.binary", "unpack_uint"),
})

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
