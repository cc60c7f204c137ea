"""Block-device protocol and partition views.

The paper carves the raw storage into a StegFS partition and an
oblivious-storage partition (Section 5): "We carve out a partition on
the raw storage and construct it to be an oblivious storage ... The
remaining space on the storage is used for the StegFS partition."

:class:`Partition` provides a window onto a contiguous range of a
:class:`~repro.storage.disk.RawStorage`; file systems and the oblivious
store are written against the :class:`BlockDevice` protocol so they work
on either a whole volume or a partition.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import BlockOutOfRangeError
from repro.storage.disk import RawStorage, _index_list


@runtime_checkable
class BlockDevice(Protocol):
    """Minimal interface needed by the file-system layers."""

    @property
    def block_size(self) -> int:
        """Bytes per block."""

    @property
    def num_blocks(self) -> int:
        """Number of addressable blocks."""

    def read_block(self, index: int, stream: str = "default") -> bytes:
        """Read one block (charges I/O)."""

    def write_block(self, index: int, data: bytes, stream: str = "default") -> None:
        """Write one block (charges I/O)."""

    def read_blocks(
        self, indices: Iterable[int], stream: str | Sequence[str] = "default"
    ) -> list[bytes]:
        """Read many blocks; observationally identical to a loop of reads."""

    def write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes],
        stream: str | Sequence[str] = "default",
    ) -> None:
        """Write many blocks; observationally identical to a loop of writes."""

    def read_write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes] | None = None,
        stream: str | Sequence[str] = "default",
        write_indices: Iterable[int] | None = None,
    ) -> None:
        """Charge a read+write cycle per entry (read ``indices[i]``, write
        ``write_indices[i]``; write targets default to the read targets,
        ``datas=None`` rewrites in place)."""

    def peek_block(self, index: int) -> bytes:
        """Read block bytes without charging I/O (attacker/bookkeeping view)."""


class RawDevice:
    """Adapter presenting a whole :class:`RawStorage` as a :class:`BlockDevice`."""

    def __init__(self, storage: RawStorage):
        self.storage = storage

    @property
    def block_size(self) -> int:
        return self.storage.geometry.block_size

    @property
    def num_blocks(self) -> int:
        return self.storage.geometry.num_blocks

    def read_block(self, index: int, stream: str = "default") -> bytes:
        return self.storage.read_block(index, stream)

    def write_block(self, index: int, data: bytes, stream: str = "default") -> None:
        self.storage.write_block(index, data, stream)

    def read_blocks(
        self, indices: Iterable[int], stream: str | Sequence[str] = "default"
    ) -> list[bytes]:
        return self.storage.read_blocks(indices, stream)

    def write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes],
        stream: str | Sequence[str] = "default",
    ) -> None:
        self.storage.write_blocks(indices, datas, stream)

    def read_write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes] | None = None,
        stream: str | Sequence[str] = "default",
        write_indices: Iterable[int] | None = None,
    ) -> None:
        self.storage.read_write_blocks(indices, datas, stream, write_indices=write_indices)

    def peek_block(self, index: int) -> bytes:
        return self.storage.peek_block(index)


class Partition:
    """A contiguous sub-range of a raw storage volume, addressed from zero."""

    def __init__(self, storage: RawStorage, start_block: int, num_blocks: int):
        if start_block < 0 or num_blocks <= 0:
            raise ValueError("partition bounds must be positive")
        if start_block + num_blocks > storage.geometry.num_blocks:
            raise BlockOutOfRangeError(
                f"partition [{start_block}, {start_block + num_blocks}) exceeds "
                f"volume of {storage.geometry.num_blocks} blocks"
            )
        self.storage = storage
        self.start_block = start_block
        self._num_blocks = num_blocks

    @property
    def block_size(self) -> int:
        return self.storage.geometry.block_size

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def _translate(self, index: int) -> int:
        if not 0 <= index < self._num_blocks:
            raise BlockOutOfRangeError(
                f"block {index} outside partition of {self._num_blocks} blocks"
            )
        return self.start_block + index

    def _translate_many(self, indices: Iterable[int]) -> list[int]:
        return [self._translate(index) for index in _index_list(indices)]

    def read_block(self, index: int, stream: str = "default") -> bytes:
        return self.storage.read_block(self._translate(index), stream)

    def write_block(self, index: int, data: bytes, stream: str = "default") -> None:
        self.storage.write_block(self._translate(index), data, stream)

    def read_blocks(
        self, indices: Iterable[int], stream: str | Sequence[str] = "default"
    ) -> list[bytes]:
        return self.storage.read_blocks(self._translate_many(indices), stream)

    def write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes],
        stream: str | Sequence[str] = "default",
    ) -> None:
        self.storage.write_blocks(self._translate_many(indices), datas, stream)

    def read_write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes] | None = None,
        stream: str | Sequence[str] = "default",
        write_indices: Iterable[int] | None = None,
    ) -> None:
        self.storage.read_write_blocks(
            self._translate_many(indices),
            datas,
            stream,
            write_indices=None if write_indices is None else self._translate_many(write_indices),
        )

    def peek_block(self, index: int) -> bytes:
        return self.storage.peek_block(self._translate(index))


def split_volume(storage: RawStorage, first_partition_blocks: int) -> tuple[Partition, Partition]:
    """Split a volume into two partitions (e.g. StegFS + oblivious storage)."""
    total = storage.geometry.num_blocks
    if not 0 < first_partition_blocks < total:
        raise ValueError("first_partition_blocks must split the volume into two non-empty parts")
    first = Partition(storage, 0, first_partition_blocks)
    second = Partition(storage, first_partition_blocks, total - first_partition_blocks)
    return first, second
