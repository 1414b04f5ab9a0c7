#!/usr/bin/env python
"""Compressed checkpoints shift the storage-fault profile (Sec. V-A).

The paper notes the Nyx baryon-density field compresses well, which
"greatly raises the importance of metadata due to its increasing portion
in the whole file".  This example writes the same snapshot contiguous
and chunked+deflate, then shows the two consequences:

1. metadata becomes a several-times-larger share of the file (and of the
   write-level fault surface), and
2. bit flips inside compressed chunks break the deflate filter -- a
   loud, *detectable* failure -- where the same flip in raw data was a
   silent one-value change.
"""

from repro import Campaign, CampaignConfig, FFISFileSystem, mount
from repro.apps.nyx import FieldConfig, NyxApplication

SHAPE = (64, 64, 64)
N_RUNS = 80


def file_layout(app: NyxApplication, label: str) -> None:
    fs = FFISFileSystem()
    with mount(fs) as mp:
        app.execute(mp)
        size = mp.stat(app.output_paths()[0]).size
    plan = app.last_write_result.plan
    fraction = plan.metadata_size / size
    print(f"{label:<12} file {size:>9} B   metadata {plan.metadata_size:>5} B "
          f"({100 * fraction:.2f}% of the file)")


def campaign(app: NyxApplication, label: str, n_runs: int) -> None:
    result = Campaign(app, CampaignConfig(fault_model="BF", n_runs=n_runs,
                                          seed=31)).run()
    print(f"{label:<12} BF outcomes: {result.tally}")


def main(n_runs: int = N_RUNS, shape=SHAPE) -> None:
    field = FieldConfig(shape=tuple(shape))
    plain = NyxApplication(seed=2021, field_config=field)
    # Four chunks along the slowest axis, each compressed on its own.
    packed = NyxApplication(seed=2021, field_config=field,
                            chunks=(shape[0] // 4,) + tuple(shape[1:]),
                            compression="deflate")

    print("== layout ==")
    file_layout(plain, "contiguous")
    file_layout(packed, "compressed")
    print("\n== bit-flip campaigns ==")
    campaign(plain, "contiguous", n_runs)
    campaign(packed, "compressed", n_runs)
    print("\nCompression converts silent single-value corruption into")
    print("decompression failures the application cannot miss.")


if __name__ == "__main__":
    main()
