#!/usr/bin/env python3
"""Turns a prof.<pid>.txt written by sampler.c into a profile.

    python3 scripts/prof/symbolize.py prof.1234.txt [--top 40] [--lines NAME] [--callers]

Prints self and inclusive time by function (a function counts once per
sample however deep it recurses). `--lines NAME` adds a per-source-line view
of the self samples of every function whose name contains NAME, every line
listed. `--callers` charges each sample whose innermost frame is in a
stripped library (libc's `memcpy`, `malloc`, ...) to the first frame in the
profiled binary, by source line. Symbols come from `nm` (`nm -D` for
stripped libraries such as libc), source lines from `addr2line -i`; a line
inside an inlined standard-library function (`/rustc/...`) is charged to the
source line that called it. Build the profiled binary with frame pointers
and debug info (`RUSTFLAGS="-C force-frame-pointers=yes"`,
`CARGO_PROFILE_RELEASE_DEBUG=1`).
"""

import argparse
import bisect
import collections
import re
import subprocess

HASH = re.compile(r"::h[0-9a-f]{16}$")


def run(*cmd, stdin=None):
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True).stdout


def source_lines(path, addrs):
    """{address: (function, "file:line")} for addresses in one image. Of the
    inline chain `addr2line -i` reports (innermost first), the first frame
    outside the standard library's sources is kept."""
    out = run("addr2line", "-a", "-i", "-f", "-C", "-e", path,
              stdin="".join(f"{a:#x}\n" for a in addrs))
    chains, chain = [], None
    for line in out.splitlines():
        if re.fullmatch(r"0x[0-9a-f]+", line):
            chain = []
            chains.append(chain)
        elif chain is not None:
            chain.append(line)
    where = {}
    for a, chain in zip(addrs, chains):
        frames = list(zip(chain[0::2], chain[1::2])) or [("??", "??:0")]
        own = [f for f in frames if not f[1].startswith("/rustc/")]
        func, loc = (own or frames)[0]
        where[a] = (HASH.sub("", func), loc)
    return where


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
        # Only dynamic symbols: internal functions have no name.
        self.stripped = flags[0] == "-D"
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
    ap.add_argument("--callers", action="store_true")
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

    def by_line(hits):
        """Sample counts per (function, source line) of (image, vaddr) hits."""
        per_image = collections.defaultdict(collections.Counter)
        for image, va in hits:
            per_image[image.path][va] += 1
        lines = collections.Counter()
        for path, counts in per_image.items():
            for a, where in source_lines(path, list(counts)).items():
                lines[where] += counts[a]
        return lines

    if args.lines:
        hits = [locate(stack[0]) for stack in samples if args.lines in symbol(stack[0])]
        print(f"\nself samples by line in functions matching {args.lines!r}")
        for (func, where), n in by_line(filter(None, hits)).most_common():
            print(f"{100 * n / total:6.1f}%  {where}  {func}")

    if args.callers:
        # The profiled binary is the lowest file mapping: the executable.
        binary = maps[0][3] if maps else None
        hits, unattributed = [], 0
        for stack in samples:
            leaf = locate(stack[0])
            if leaf is None or not leaf[0].stripped:
                continue
            caller = next((h for h in map(locate, (a - 1 for a in stack[1:]))
                           if h and h[0].path == binary), None)
            if caller:
                hits.append(caller)
            else:
                unattributed += 1
        print(f"\nsamples in stripped libraries by first caller in {binary}")
        for (func, where), n in by_line(hits).most_common(args.top):
            print(f"{100 * n / total:6.1f}%  {where}  {func}")
        print(f"{100 * unattributed / total:6.1f}%  (no frame in the binary)")


if __name__ == "__main__":
    main()
