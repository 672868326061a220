#!/usr/bin/env python3
"""Crash in the middle of an asynchronous write, then recover (§4.2).

EasyIO commits a write's metadata (with embedded DMA sequence numbers)
*before* the data lands.  If the machine dies in that window, recovery
compares each committed block mapping's SN against the channel's
persistent completion buffer and discards mappings whose DMA never
finished -- falling back to the previous (CoW-preserved) data.

This example:
1. writes generation-1 data and lets it complete;
2. starts a generation-2 overwrite and "pulls the plug" right after
   its metadata commit but before its DMA finishes;
3. replays the persist-ordered mutation journal into a fresh image
   (exactly a power failure) and recovers from that image alone;
4. shows that the file cleanly contains generation-1 data.

Run:  python examples/crash_recovery.py
"""

from repro import Platform, make_fs, recover
from repro.fs import file_bytes
from repro.fs.recovery import completion_buffer_validator

GEN1 = b"\x11" * 65536
GEN2 = b"\x22" * 65536

platform = Platform()
fs = make_fs("easyio", platform, record=True)
engine = platform.engine
crash_point = {}


def workload():
    ino = yield from fs.create(fs.context(), "/db.log")
    r1 = yield from fs.write(fs.context(), ino, 0, len(GEN1), GEN1)
    yield r1.pending
    print(f"[{engine.now:>7} ns] generation-1 write durable "
          f"(SNs {r1.sns}, completion buffers "
          f"{dict(fs.image.completion_buffers)})")

    r2 = yield from fs.write(fs.context(), ino, 0, len(GEN2), GEN2)
    # The syscall has returned: metadata for generation 2 is already
    # committed, but its DMA is still in flight...
    entry = fs.image.committed_log(ino)[-1]
    print(f"[{engine.now:>7} ns] generation-2 metadata committed "
          f"(entry SNs {entry.sns}); DMA still in flight -- CRASH NOW")
    crash_point["at"] = len(fs.image.mutations)
    crash_point["ino"] = ino
    yield r2.pending   # (let the live run finish cleanly)


proc = engine.process(workload())
platform.run()
if not proc.ok:
    raise proc.value

# ---- power failure: replay the persist-order prefix -------------------
crashed_image = fs.image.replay(crash_point["at"])
print(f"\nsimulating power failure at persist #{crash_point['at']} "
      f"of {fs.image.crash_points()}")

# Recovery needs no machine: it rebuilds the volatile inode table from
# the crashed image, validating SNs against its completion buffers.
recovered = recover(crashed_image, completion_buffer_validator(crashed_image))
print(f"recovery discarded {recovered.discarded_entries} "
      f"committed-but-unfinished log entr"
      f"{'y' if recovered.discarded_entries == 1 else 'ies'}")

m = recovered.inodes[crash_point["ino"]]
data = file_bytes(crashed_image, m, 0, m.size)
if data == GEN1:
    print("file content after recovery: generation 1 -- consistent!")
elif data == GEN2:
    print("file content after recovery: generation 2 (DMA had finished)")
else:
    raise SystemExit("TORN DATA -- recovery failed")
