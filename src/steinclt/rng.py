"""Counter-based random streams built on the Philox generator.

A stream is a plain value ``(master_seed, stream_id, counter, position)``.
Independent substreams are derived by re-keying (``child``), disjoint blocks
inside one stream by moving the counter (``block``), so block b of a sample is
the same draws whatever blocks come before it.  Nothing here is stateful:
every ``generator()`` call starts from the exact position encoded in the
stream value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Value-type handle for a deterministic Philox stream.

    At `position` d it draws words [4d, ...) of block `counter`'s raw words, so
    a share of a block's rows can start where the whole block's draw reaches it.
    """

    master_seed: int
    stream_id: int = 0
    counter: int = 0
    position: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at (master_seed, stream_id, counter, position)."""
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        # The block index lives in a high counter word; the low word is the
        # position, which Philox increments while drawing, so blocks never overlap.
        ctr = np.array([self.position & _MASK64, 0, self.counter & _MASK64, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=ctr))

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream by re-keying."""
        mixed = _splitmix64((self.stream_id ^ _splitmix64(index & _MASK64)) & _MASK64)
        return RngStream(self.master_seed, mixed, 0)

    def block(self, index: int, position: int = 0) -> "RngStream":
        """Same key, counter at block `index` (disjoint from other blocks), `position` steps in."""
        return replace(self, counter=index & _MASK64, position=position)
