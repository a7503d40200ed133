#!/usr/bin/env python3
"""Turns a prof.<pid>.txt written by sampler.c into a profile.

    python3 scripts/prof/symbolize.py prof.1234.txt [--top 40] [--lines NAME]

Prints self and inclusive time by function (a function counts once per
sample however deep it recurses). `--lines NAME` adds a per-source-line view
of the self samples of every function whose name contains NAME. Symbols come
from `nm` (`nm -D` for stripped libraries such as libc), source lines from
`addr2line`; build the profiled binary with frame pointers and debug info
(`RUSTFLAGS="-C force-frame-pointers=yes"`, `CARGO_PROFILE_RELEASE_DEBUG=1`).
"""

import argparse
import bisect
import collections
import re
import subprocess

HASH = re.compile(r"::h[0-9a-f]{16}$")


def run(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout


class Image:
    """One mapped ELF file: its load segments and its function symbols."""

    def __init__(self, path):
        self.path = path
        self.segments = []  # (file offset, file size, vaddr)
        for line in run("readelf", "-lW", path).splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                self.segments.append((int(f[1], 16), int(f[4], 16), int(f[2], 16)))
        syms = {}  # address -> (size, name)
        for flags in (["-S", "-C", "--defined-only"], ["-D", "-S", "-C", "--defined-only"]):
            for line in run("nm", *flags, path).splitlines():
                f = line.split(" ", 3)
                if len(f) == 4 and f[2] in "tTwWi":
                    syms.setdefault(int(f[0], 16), (int(f[1], 16), HASH.sub("", f[3])))
            if syms:
                break
        self.addrs = sorted(syms)
        self.ends = [a + syms[a][0] for a in self.addrs]
        self.names = [syms[a][1] for a in self.addrs]

    def vaddr(self, offset):
        for off, size, va in self.segments:
            if off <= offset < off + size:
                return offset - off + va
        return offset

    def name(self, vaddr):
        """The function containing `vaddr`: None past the end of the nearest
        symbol (a stripped library's internal function)."""
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 and vaddr < self.ends[i] else None


def load(path):
    maps, samples = [], []
    for line in open(path):
        if line.startswith("map "):
            f = line.split()
            if len(f) >= 7 and f[6].startswith("/"):
                lo, hi = (int(x, 16) for x in f[1].split("-"))
                maps.append((lo, hi, int(f[3], 16), f[6]))
        elif line.strip():
            samples.append([int(x, 16) for x in line.split()])
    maps.sort()
    return maps, samples


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--lines", metavar="NAME")
    args = ap.parse_args()
    maps, samples = load(args.profile)
    starts = [m[0] for m in maps]
    images, cache = {}, {}

    def locate(addr):
        """(image, vaddr) of an address, or None outside every file mapping."""
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            return None
        lo, _, off, path = maps[i]
        image = images.get(path) or images.setdefault(path, Image(path))
        return image, image.vaddr(addr - lo + off)

    def symbol(addr):
        if addr not in cache:
            hit = locate(addr)
            if hit is None:
                cache[addr] = "[unknown]"
            else:
                image, va = hit
                cache[addr] = image.name(va) or f"[{image.path.rsplit('/', 1)[-1]}]"
        return cache[addr]

    self_time, inclusive = collections.Counter(), collections.Counter()
    for stack in samples:
        # Return addresses point after the call: look up the call itself.
        names = [symbol(stack[0])] + [symbol(a - 1) for a in stack[1:]]
        self_time[names[0]] += 1
        inclusive.update(set(names))
    total = max(len(samples), 1)
    print(f"{len(samples)} samples")
    print(f"{'self':>7} {'incl':>7}  function")
    for name, n in self_time.most_common(args.top):
        print(f"{100 * n / total:6.1f}% {100 * inclusive[name] / total:6.1f}%  {name}")

    if args.lines:
        per_image = collections.defaultdict(collections.Counter)
        for stack in samples:
            if args.lines in symbol(stack[0]):
                hit = locate(stack[0])
                if hit:
                    per_image[hit[0].path][hit[1]] += 1
        lines = collections.Counter()
        for path, counts in per_image.items():
            addrs = list(counts)
            out = run("addr2line", "-e", path, *(f"{a:#x}" for a in addrs)).splitlines()
            for a, where in zip(addrs, out):
                lines[where] += counts[a]
        print(f"\nself samples by line in functions matching {args.lines!r}")
        for where, n in lines.most_common(args.top):
            print(f"{100 * n / total:6.1f}%  {where}")


if __name__ == "__main__":
    main()
