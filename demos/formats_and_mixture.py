#!/usr/bin/env python3
"""The on-disk story: portable image/map/scanpath/rating files, dataset
handle directories, and the equal-rate mixture that feeds training."""

import collections
import tempfile
from pathlib import Path

import numpy as np

from uniar.data import (
    MixtureConfig,
    gen_rating_task,
    gen_saliency_task,
    load_handle,
    mixture_next,
    mixture_start,
    read_grid,
    read_pgm,
    save_handle,
    write_grid,
    write_pgm,
)
from uniar.errors import ParseError
from uniar.types import GrayMap

workdir = tempfile.TemporaryDirectory(prefix="uniar_demo_")
root = Path(workdir.name)
print("working under", root)

# ------------------------------------------------------ map files

m = GrayMap(3, 2, [[0.1, 0.5, 1.0], [0.0, 1 / 3, 0.999999]])
write_grid(root / "m.grid", m)
raw = (root / "m.grid").read_bytes()
header, _, payload = raw.partition(b"\n")
print("\nbinary grid, exact float64 round trip:")
print(f"header {header.decode()!r}, then {len(payload)} bytes "
      f"(3 x 2 little-endian float64), {len(raw)} bytes in all")
assert read_grid(root / "m.grid").values.tobytes() == m.values.tobytes()
print("round trip exact:", True)

write_pgm(root / "m.pgm", m)
back = read_pgm(root / "m.pgm")
print(f"16-bit pgm, quantized round trip: max err "
      f"{np.abs(back.values - m.values).max():.2e} (bound {0.5 / 65535:.2e})")

# a grid cut short is refused before any array exists; the error names
# the file and how many bytes the header's size calls for
(root / "bad.grid").write_bytes(raw[:-1])
try:
    read_grid(root / "bad.grid")
except ParseError as e:
    assert str(e).startswith(f"{root / 'bad.grid'}: ")
    print("truncated grid:", e)

# ------------------------------------------------- handle round trip

h = gen_saliency_task(seed=1, n=4)
save_handle(root / "blobs", h)
listing = sorted(p.relative_to(root).as_posix() for p in (root / "blobs").rglob("*")
                 if p.is_file())
print(f"\nsaved handle '{h.name}' ->")
for p in listing[:6]:
    print("   ", p)
back = load_handle(root / "blobs")
err = max(np.abs(a.target.values - b.target.values).max()
          for a, b in zip(h.samples, back.samples))
print(f"reloaded {len(back.samples)} samples; maps travel as 16-bit pgm, "
      f"max err {err:.1e}")
print("(write a maps/<id>.grid next to the pgm for an exact copy; "
      "the loader prefers it)")
workdir.cleanup()

# ---------------------------------------------------- equal-rate mixture

# one giant handle, ten tiny ones; draws must ignore the size skew
handles = [gen_rating_task(s, n, size=8)
           for s, n in enumerate([1000] + [1] * 10)]
mix = MixtureConfig(tuple(handles), seed=0)
state = mixture_start(mix)
owner = {}
for k, hd in enumerate(handles):
    for s in hd.samples:
        owner[id(s)] = k
counts = collections.Counter()
for _ in range(5500):
    s, state = mixture_next(mix, state)
    counts[owner[id(s)]] += 1
print(f"\n5500 draws over sizes [1000, 1 x10] -> per-handle counts "
      f"{min(counts.values())}..{max(counts.values())} (uniform = 500)")
print("the 1000-sample handle got", counts[0],
      "draws: size buys nothing, every dataset trains at the same rate")
