#!/usr/bin/env python
"""QMCPACK under storage faults: the restart-file propagation channel.

The paper finds QMCPACK the least resilient of the three applications
(~50-60 % SDC).  The mechanism is visible here: the DMC series *reads
back* the walker configuration VMC wrote, so corrupted bytes silently
steer the projector and the final energy.
"""


from repro import Campaign, CampaignConfig, FFISFileSystem, mount
from repro.apps.qmcpack import (
    CONFIG_FILE,
    HE_EXACT_ENERGY,
    S001_SCALARS,
    SDC_WINDOW,
    QmcpackApplication,
)
from repro.apps.qmcpack.app import WALKER_DATASET
from repro.fusefs.interposer import PrimitiveCall
from repro.mhdf5.reader import Hdf5Reader

N_RUNS = 60
#: The float64 walker coordinate whose mantissa is flipped (the last one
#: when the population holds fewer).
COORDINATE = 8


def show_golden(app: QmcpackApplication) -> None:
    fs = FFISFileSystem()
    with mount(fs) as mp:
        golden = app.capture_golden(mp)
    print(f"golden DMC energy : {golden.analysis['energy']:.5f} "
          f"+/- {golden.analysis['error']:.5f} Ha")
    print(f"exact (paper)     : {HE_EXACT_ENERGY} Ha")
    print(f"SDC window        : {SDC_WINDOW}  (inside = silent)\n")


def demonstrate_propagation(app: QmcpackApplication) -> None:
    """One flipped bit in one walker coordinate changes the DMC output."""
    fs = FFISFileSystem()
    with mount(fs) as mp:
        app.execute(mp)
        golden_s001 = mp.read_file(S001_SCALARS)
        walkers = Hdf5Reader(mp, CONFIG_FILE).info(WALKER_DATASET)
    # A mid-mantissa bit of one float64 coordinate: perturbs that walker
    # by ~1e-6 bohr -- far below any physical scale, yet enough to steer
    # the stochastic trajectory.
    coordinate = min(COORDINATE, walkers.dataspace.npoints - 1)
    target = walkers.layout.data_address + 8 * coordinate + 4

    fs = FFISFileSystem()

    opened = []
    fired = []

    def note_open(call: PrimitiveCall):
        opened.append(call.args["path"])
        return None

    def flip_one_walker_bit(call: PrimitiveCall):
        offset, buf = call.args["offset"], call.args["buf"]
        # The walker file is written whole between its open and the next.
        if (opened[-1] == CONFIG_FILE and not fired
                and offset <= target < offset + len(buf)):
            flipped = bytearray(buf)
            flipped[target - offset] ^= 0x10
            call.args["buf"] = bytes(flipped)
            fired.append(call.seqno)
        return None

    fs.interposer.add_hook("ffis_open", note_open)
    fs.interposer.add_hook("ffis_write", flip_one_walker_bit)
    with mount(fs) as mp:
        app.execute(mp)
        faulty_s001 = mp.read_file(S001_SCALARS)
        energy = app.energy(mp)

    changed = sum(a != b for a, b in zip(golden_s001, faulty_s001))
    print("one bit flipped in the walker file ->")
    print(f"  He.s001.scalar.dat bytes changed : {changed}")
    print(f"  reanalysed energy                : {energy.mean:.5f} Ha")
    lo, hi = SDC_WINDOW
    verdict = "SDC (silent!)" if lo <= energy.mean <= hi else "detected"
    print(f"  verdict                          : {verdict}\n")


def campaign(app: QmcpackApplication, n_runs: int) -> None:
    print(f"campaigns ({n_runs} runs per fault model):")
    for fault_model in ("BF", "SW", "DW"):
        config = CampaignConfig(fault_model=fault_model, n_runs=n_runs, seed=7)
        result = Campaign(app, config).run()
        print(f"  {result.summary()}")


def main(n_runs: int = N_RUNS, app: QmcpackApplication = None) -> None:
    if app is None:
        app = QmcpackApplication(seed=2021)
    show_golden(app)
    demonstrate_propagation(app)
    campaign(app, n_runs)


if __name__ == "__main__":
    main()
