"""mini-HDF5: a from-scratch binary scientific file format.

This package implements the subset of the HDF5 File Format Specification
the paper's metadata study exercises (Sec. II Fig. 1 and Sec. IV-D):

* superblock → root group object header → symbol-table message,
* v1 B-tree node (``TREE``) + symbol-table node (``SNOD``) + local heap
  (``HEAP``) indexing the datasets of the root group,
* per-dataset object header carrying dataspace, datatype (with the full
  floating-point property record: bit offset / bit precision / exponent
  location / exponent size / exponent bias / mantissa location / mantissa
  size / mantissa normalization / sign location), contiguous data layout
  (size + Address of Raw Data), modification time, and NIL padding,
* a *strict* reader that raises :class:`repro.errors.FormatError` for the
  structural violations the real library treats as fatal (signatures,
  versions, message types, allocation sizes), and
* a *generic* float decoder that honours the (possibly corrupted)
  datatype-message geometry, which is the mechanism behind the paper's
  Table IV symptoms.

The on-disk write sequence mirrors the library behaviour the paper's
metadata injector keys on: raw data first (in block-sized writes), then a
single packed metadata blob (the **penultimate** write), then a small
superblock close-flag update (the final write).
"""

from repro.mhdf5 import constants
from repro.mhdf5.chunks import (
    FILTER_DEFLATE,
    ChunkRecord,
    chunk_btree_size,
    split_into_chunks,
)
from repro.mhdf5.dataspace import DataspaceMessage
from repro.mhdf5.datatype import ByteOrder, DatatypeMessage, MantissaNorm, ieee_f32le, ieee_f64le
from repro.mhdf5.fieldmap import FieldClass, FieldMap, FieldSpan
from repro.mhdf5.floatcodec import decode_floats
from repro.mhdf5.layout import (
    ChunkedLayoutMessage,
    ContiguousLayoutMessage,
    decode_layout,
)
from repro.mhdf5.reader import Hdf5Reader, list_datasets, read_dataset
from repro.mhdf5.repair import (
    Diagnosis,
    DiagnosisKind,
    RepairAction,
    RepairReport,
    diagnose_dataset,
    repair_file,
)
from repro.mhdf5.writer import DatasetSpec, Hdf5Writer, LayoutPlan, write_file

__all__ = [
    "DatatypeMessage",
    "ByteOrder",
    "MantissaNorm",
    "ieee_f32le",
    "ieee_f64le",
    "DataspaceMessage",
    "ContiguousLayoutMessage",
    "ChunkedLayoutMessage",
    "decode_layout",
    "ChunkRecord",
    "FILTER_DEFLATE",
    "chunk_btree_size",
    "split_into_chunks",
    "DatasetSpec",
    "FieldMap",
    "FieldSpan",
    "FieldClass",
    "decode_floats",
    "Hdf5Writer",
    "write_file",
    "LayoutPlan",
    "Hdf5Reader",
    "read_dataset",
    "list_datasets",
    "Diagnosis",
    "DiagnosisKind",
    "RepairAction",
    "RepairReport",
    "diagnose_dataset",
    "repair_file",
    "constants",
]
