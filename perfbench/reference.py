"""Fixed reference work that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and that host
changes speed by up to 1.7x, in states that last from a fraction of a second
to minutes.  CPU time tracks wall time, so the slowdown is in the core, not in
the scheduler, and no choice of clock removes it.  The benchmark therefore
times each op next to a block of this reference work and divides the op's time
by the block's time per chunk.  Multiplied by `CHUNK_S`, every reported time
is in seconds at one fixed host speed: the speed at which a chunk takes
`CHUNK_S`.

The reference work is code of the benchmark, not of the program under test,
so a change to the program cannot change it.  Like the program, it is pure
Python on integer bitmasks, lists and dicts: breadth-first searches on a fixed
king graph, with bitmask frontiers and a dict of distances.
"""

import time

CHUNK_S = 0.001  # nominal duration of one chunk, in seconds
SHARE = 0.3      # reference time per op, as a share of the op's time

_SIDE = 14
_SOURCES = (0, 31, 62, 97, 130, 163, 195)


def _king_masks(side):
    masks = []
    for v in range(side * side):
        r, c = divmod(v, side)
        m = 0
        for rr in (r - 1, r, r + 1):
            for cc in (c - 1, c, c + 1):
                if 0 <= rr < side and 0 <= cc < side:
                    m |= 1 << (rr * side + cc)
        masks.append(m)
    return masks


_ADJ = _king_masks(_SIDE)


def chunk():
    """One unit of reference work; returns a checksum so it cannot be skipped."""
    total = 0
    for s in _SOURCES:
        seen = 1 << s
        frontier = [s]
        dist = {s: 0}
        k = 0
        while frontier:
            k += 1
            nxt = []
            for x in frontier:
                new = _ADJ[x] & ~seen
                seen |= new
                while new:
                    low = new & -new
                    y = low.bit_length() - 1
                    dist[y] = k
                    nxt.append(y)
                    new ^= low
            frontier = nxt
        total += sum(dist.values())
    return total


def chunks_for(seconds):
    """How many chunks to run next to an op that took `seconds`."""
    return max(2, round(SHARE * seconds / CHUNK_S))


def block(chunks):
    """Run `chunks` chunks; returns (seconds, chunks)."""
    t0 = time.perf_counter()
    for _ in range(chunks):
        chunk()
    return time.perf_counter() - t0, chunks


def scale(seconds, before, after):
    """`seconds` at the nominal host speed, from the blocks timed around it."""
    per_chunk = (before[0] + after[0]) / (before[1] + after[1])
    return seconds * CHUNK_S / per_chunk
