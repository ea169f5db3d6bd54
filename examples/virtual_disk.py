"""A virtual disk on the block store — the paper's §7 vision.

Run:  python examples/virtual_disk.py

"We envision a system that uses our protocol to build an
industrial-strength distributed disk array ..." — this example builds a
tiny virtual disk with a file table on top of the block API, stores
files, survives a double fault, and compares its storage bill against
replication with equal fault tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import Cluster, VolumeClient


@dataclass
class FileEntry:
    name: str
    start_block: int
    length: int


class TinyDisk:
    """A minimal file layer: a directory dict plus extent allocation."""

    def __init__(self, volume: VolumeClient):
        self.volume = volume
        self.files: dict[str, FileEntry] = {}
        self._next_block = 0

    def store(self, name: str, data: bytes) -> FileEntry:
        start = self._next_block
        used = self.volume.write_bytes(start, data)
        self._next_block += used
        entry = FileEntry(name, start, len(data))
        self.files[name] = entry
        return entry

    def load(self, name: str) -> bytes:
        entry = self.files[name]
        return self.volume.read_bytes(entry.start_block, entry.length)


def main() -> None:
    # A "highly-efficient" code: 14-of-16 tolerates 2 faults at 1.14x
    # storage.  3-way replication would pay 3x for the same tolerance.
    k, n = 14, 16
    cluster = Cluster(k=k, n=n, block_size=1024)
    disk = TinyDisk(cluster.client("fileserver"))

    print(f"virtual disk on a {k}-of-{n} code")
    # Replication survives n - k losses with n - k + 1 copies.
    print(f"  storage blowup: {n / k:.2f}x "
          f"(replication with equal tolerance: {n - k + 1}x)")

    files = {
        "readme.txt": b"erasure codes provide space-optimal redundancy\n" * 40,
        "data.bin": bytes(range(256)) * 64,
        "log.json": b'{"event": "write", "seq": %d}' % 7,
    }
    print("\nstoring files...")
    for name, data in files.items():
        entry = disk.store(name, data)
        blocks = -(-entry.length // disk.volume.block_size)
        print(f"  {name:<12} {entry.length:>6} bytes in {blocks} blocks "
              f"@ block {entry.start_block}")

    print("\ncrashing two storage nodes (the full fault budget)...")
    cluster.crash_storage(3)
    cluster.crash_storage(11)

    print("reading everything back through the double fault:")
    for name, data in files.items():
        recovered = disk.load(name)
        status = "OK" if recovered == data else "CORRUPT"
        print(f"  {name:<12} {status}")
        assert recovered == data

    stripes = disk._next_block // k + 1
    disk.volume.monitor_sweep(range(stripes))
    print("\nfull redundancy restored:",
          all(cluster.stripe_consistent(s) for s in range(stripes - 1)))


if __name__ == "__main__":
    main()
