"""The public block-storage API applications use.

Section 2's goal: "applications access data through a block interface
that supports read-block and write-block operations ... all
peculiarities of erasure codes [are] hidden from applications".  A
:class:`VolumeClient` exposes exactly that — logical block numbers and
bytes in/out; striping, stripe rotation, codes, recovery and retries
all live below this line.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.client.gc import GcManager
from repro.client.monitor import Monitor, MonitorReport
from repro.client.protocol import ProtocolClient
from repro.erasure.striping import StripeLayout


class VolumeClient:
    """Block read/write interface over one volume for one client node."""

    def __init__(self, protocol: ProtocolClient, layout: StripeLayout):
        self.protocol = protocol
        self.layout = layout
        self.gc = GcManager(protocol)
        self.monitor = Monitor(protocol)

    @property
    def block_size(self) -> int:
        """Fixed block size, the minimum quantum of data transfer."""
        return self.protocol.meta.block_size

    @property
    def client_id(self) -> str:
        return self.protocol.client_id

    # ------------------------------------------------------------------
    # single-block operations
    # ------------------------------------------------------------------

    def write_block(self, logical: int, data: bytes) -> None:
        """Write ``data`` (at most ``block_size`` bytes, zero-padded) to
        logical block ``logical``."""
        value = self._pad(data)
        loc = self.layout.locate(logical)
        self.protocol.write(loc.stripe, loc.data_index, value)

    def read_block(self, logical: int) -> bytes:
        """Read logical block ``logical`` (always ``block_size`` bytes)."""
        loc = self.layout.locate(logical)
        block = self.protocol.read(loc.stripe, loc.data_index)
        return block.tobytes()

    # ------------------------------------------------------------------
    # multi-block conveniences
    # ------------------------------------------------------------------

    def write_blocks(self, start: int, blocks: Sequence[bytes]) -> None:
        """Write consecutive logical blocks starting at ``start``.

        Stripe rotation puts consecutive blocks on different storage
        nodes, so the whole extent is written in two rounds however many
        stripes it spans (§3.11's pipelined sequential I/O): one swap
        frame per data node, then one add per redundant block carrying
        its stripe's summed delta (:meth:`ProtocolClient.write_stripes`).
        """
        stripes: dict[int, dict[int, np.ndarray]] = {}
        for offset, data in enumerate(blocks):
            loc = self.layout.locate(start + offset)
            stripes.setdefault(loc.stripe, {})[loc.data_index] = self._pad(data)
        self.protocol.write_stripes(stripes)

    def read_blocks(self, start: int, count: int) -> list[bytes]:
        """Read ``count`` consecutive logical blocks from ``start``."""
        return [self.read_block(start + i) for i in range(count)]

    def write_bytes(self, start_block: int, data: bytes) -> int:
        """Write an arbitrary byte string across consecutive blocks;
        returns the number of blocks used."""
        size = self.block_size
        chunks = [data[i : i + size] for i in range(0, len(data), size)] or [b""]
        self.write_blocks(start_block, chunks)
        return len(chunks)

    def read_bytes(self, start_block: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``start_block``."""
        if length < 0:
            raise ValueError("length must be >= 0")
        count = -(-length // self.block_size) if length else 0
        data = b"".join(self.read_blocks(start_block, count))
        return data[:length]

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def collect_garbage(self) -> int:
        """Run one round of the two-phase tid GC (Fig. 7)."""
        return self.gc.run_once()

    def start_gc_loop(self, interval: float = 0.1):
        """Run GC periodically on a daemon thread (Fig. 7's "repeat
        periodically").  Returns a stop callable; idempotent to call
        twice (the prior loop is stopped first)."""
        import threading

        self.stop_gc_loop()
        stop = threading.Event()

        def loop() -> None:
            while not stop.is_set():
                self.gc.run_once()
                stop.wait(interval)
            # Final drain so nothing is stranded mid-two-phase.
            self.gc.run_once()
            self.gc.run_once()

        thread = threading.Thread(target=loop, name="gc-loop", daemon=True)
        thread.start()
        self._gc_loop = (thread, stop)

        def stopper() -> None:
            stop.set()
            thread.join(timeout=10)

        return stopper

    def stop_gc_loop(self) -> None:
        """Stop a running background GC loop, if any."""
        loop = getattr(self, "_gc_loop", None)
        if loop is not None:
            thread, stop = loop
            stop.set()
            thread.join(timeout=10)
            self._gc_loop = None

    def monitor_sweep(
        self, stripes: Iterable[int], deep: bool = False
    ) -> MonitorReport:
        """Probe stripes for damage and repair them (§3.10); ``deep``
        also catches restarted nodes that are delta behind."""
        return self.monitor.sweep(list(stripes), deep=deep)

    def recover_stripe(self, stripe: int) -> bool:
        """Explicitly recover one stripe (normally triggered on access)."""
        return self.protocol.recover(stripe)

    def rebuild(self, stripes: Iterable[int], stripes_per_second: float | None = None):
        """Proactively repair damaged stripes in bulk (§6.2's sweep)."""
        from repro.client.rebuild import Rebuilder

        return Rebuilder(
            self.protocol, stripes_per_second=stripes_per_second
        ).rebuild(list(stripes))

    # ------------------------------------------------------------------

    def _pad(self, data: bytes) -> np.ndarray:
        if len(data) > self.block_size:
            raise ValueError(
                f"data ({len(data)} bytes) exceeds block size {self.block_size}"
            )
        value = np.zeros(self.block_size, dtype=np.uint8)
        if data:
            value[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return value
