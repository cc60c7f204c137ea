"""Disk latency models.

The paper's numbers come from a real Ultra ATA/100 disk (Table 1).  The
shapes of its performance figures are driven by one property of that
disk: a random block access pays a positioning cost (seek + rotational
latency) that dwarfs the transfer time, while sequential accesses pay
only transfer time.  The latency model here charges exactly those costs
so that

* CleanDisk/FragDisk beat the steganographic systems on single-user
  sequential workloads (Figure 10a, 11b), and
* that advantage disappears once concurrent streams interleave and every
  access becomes effectively random (Figures 10b, 11c), and
* the external merge sort used to reorder the oblivious storage is much
  cheaper per I/O than its random retrievals (Figure 12b).

Default parameters approximate a 7200 RPM ATA disk of the paper's era:
8.5 ms average seek, 4.2 ms average rotational latency, and about 40
MB/s sustained transfer (≈0.1 ms per 4 KB block).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DiskLatencyModel:
    """Charges per-access latency, distinguishing sequential from random I/O.

    Parameters
    ----------
    seek_ms:
        Average seek time charged for a non-sequential access.
    rotational_ms:
        Average rotational latency charged for a non-sequential access.
    transfer_ms_per_block:
        Media transfer time per block; charged for every access.
    sequential_threshold:
        An access within this many blocks after the previous one counts
        as sequential and pays only transfer time.  The previous access
        is the device's, whichever stream issued it: ``RawStorage`` has
        a single head shared by all streams.
    """

    seek_ms: float = 8.5
    rotational_ms: float = 4.2
    transfer_ms_per_block: float = 0.1
    sequential_threshold: int = 1

    def cost_ms(self, previous_index: int | None, index: int) -> float:
        """Latency of accessing ``index`` given the previous access position."""
        if previous_index is not None:
            distance = index - previous_index
            if 0 <= distance <= self.sequential_threshold:
                return self.transfer_ms_per_block
        return self.seek_ms + self.rotational_ms + self.transfer_ms_per_block

    @property
    def random_access_ms(self) -> float:
        """Full cost of one random access."""
        return self.seek_ms + self.rotational_ms + self.transfer_ms_per_block

    @property
    def sequential_access_ms(self) -> float:
        """Cost of one sequential access."""
        return self.transfer_ms_per_block


@dataclass
class ZeroLatencyModel(DiskLatencyModel):
    """A latency model that charges nothing.

    Useful in unit tests that only care about functional behaviour and
    I/O counts, not timing.
    """

    seek_ms: float = 0.0
    rotational_ms: float = 0.0
    transfer_ms_per_block: float = 0.0
