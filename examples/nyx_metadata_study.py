#!/usr/bin/env python
"""The HDF5-metadata study (paper Sec. IV-D / V-A) end to end.

1. Byte-by-byte corruption of the Nyx plotfile metadata (Table III).
2. Targeted corruption of the six SDC-capable fields (Table IV).
3. The average-value detection + auto-correction methodology in action.
"""

from repro.apps.nyx import NyxApplication
from repro.experiments import run_table4
from repro.experiments.params import nyx_small
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem
from repro.mhdf5.repair import diagnose_dataset, repair_file
from repro.study import Study, get_study


def metadata_sweep(byte_stride: int) -> None:
    print("=" * 70)
    print(f"Table III: byte-by-byte metadata corruption (stride {byte_stride} "
          "for speed;")
    print("           run the bench for the full per-byte sweep)")
    print("=" * 70)
    table3 = get_study("table3")
    results = Study(table3.build(byte_stride=byte_stride)).run()
    print(table3.render(results))


def field_symptoms(app: NyxApplication = None) -> None:
    print("=" * 70)
    print("Table IV: what each SDC-capable field does to the post-analysis")
    print("=" * 70)
    print(run_table4(app).render())


def detect_and_repair() -> None:
    print("=" * 70)
    print("Detection + auto-correction (Sec. V-A)")
    print("=" * 70)
    app = nyx_small()
    fs = FFISFileSystem()
    with mount(fs) as mp:
        app.execute(mp)
        path = app.output_paths()[0]
        fieldmap = app.last_write_result.fieldmap

        # Corrupt the Exponent Bias field the way the paper's example does
        # (bias 0x7f -> 0x73 scales the field by 2^12).
        span = next(s for s in fieldmap if "Exponent Bias" in s.name)
        raw = bytearray(mp.read_file(path))
        raw[span.start] ^= 0x0C
        with mp.open(path, "r+") as f:
            f.pwrite(bytes(raw[span.start:span.start + 1]), span.start)

        diagnosis = diagnose_dataset(mp, path, "baryon_density")
        print(f"diagnosis : {diagnosis.kind.value} "
              f"(observed mean {diagnosis.observed_mean:.6g}; {diagnosis.detail})")
        report = repair_file(mp, path, "baryon_density")
        print(f"repair    : success={report.success}")
        for action in report.actions:
            print(f"  corrected {action.field_name}: "
                  f"{action.old_value} -> {action.new_value}")
        print(f"mean after: {report.mean_after:.6f} (invariant restored)")


def main(byte_stride: int = 4, table4_app: NyxApplication = None) -> None:
    """``table4_app`` defaults to the 64^3 Nyx of the paper's Table IV."""
    metadata_sweep(byte_stride)
    field_symptoms(table4_app)
    detect_and_repair()


if __name__ == "__main__":
    main()
