#!/usr/bin/env python3
"""Summarize what scripts/prof/sampler.c recorded.

Usage: report.py <executable> <samples file> [--top N] [--rep <rep output>]

Prints, over the SIGPROF samples: self time by innermost function (inline
frames resolved), inclusive time by function, time by nearest `starqo_*`
owner, the inclusive share of each layer a request passes through
(`LAYERS`: the whole request, parse, canonicalize, the served and the cold
path, the executor); then, of the samples inside `Optimizer::optimize`, the shares in
reference counting (innermost frame an `Arc` count), the allocator (libc
called from Rust's alloc/dealloc paths), the rest of libc (the memcpy
family: moves too large to inline) and tearing the run down, refcount
samples by `Arc` payload, and where the futex waits came from.

Program addresses are resolved with `llvm-addr2line` (or `addr2line`, whose
innermost inline name is the enclosing symbol's) with `-i`, shared-library
addresses by the exported symbol `nm -D -S` lists that contains them. libc
ships no local symbols: an address past the end of the exported symbol
before it is its library's static code (glibc's malloc.c, for one) and is
labeled by where that gap starts, e.g. `libc.so.6+0x96063 (static)`, not
after its neighbour. That is also why libc samples are classified by their
Rust caller (the allocator share counts libc frames called from Rust's
alloc/dealloc paths, static or not). $ADDR2LINE picks the tool.

With --rep (the repetition's stdout, which names its `attempted` requests)
it first prints minor page faults per request: the process's `ru_minflt` at
exit, which the sampler records, over `attempted`. Setup and warm-up faults
are in the numerator too, so a run with no fault per request in steady
state still reads a small positive figure that shrinks as the run grows.
"""

import bisect
import collections
import os
import re
import shutil
import struct
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}( \(\.llvm\.\d+\))?$")
LEGACY = [("$LT$", "<"), ("$GT$", ">"), ("$RF$", "&"), ("$C$", ","), ("$u20$", " "),
          ("$u7b$", "{"), ("$u7d$", "}"), ("$u5b$", "["), ("$u5d$", "]"), ("..", "::")]
ATOMIC_FILE = "/core/src/sync/atomic.rs"
ARC_FILE = "/alloc/src/sync.rs"
ALLOC_FILE = re.compile(r"/alloc/src/alloc\.rs|/std/src/sys/alloc/")
ALLOC_FN = re.compile(r"__rust_(alloc|dealloc|realloc)|__rdl_")
BOX_FILE = re.compile(r"/alloc/src/(sync|boxed)\.rs")
OPTIMIZE = "starqo_core::optimizer::Optimizer::optimize"


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of every PT_LOAD segment of an ELF64."""
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize
        )
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


class Module:
    def __init__(self, path):
        self.path = path
        self.maps = []
        self.segs = load_segments(path)
        self.syms = None

    def vaddr(self, pc):
        for lo, hi, off in self.maps:
            if lo <= pc < hi:
                fo = pc - lo + off
                for p_off, p_vaddr, size in self.segs:
                    if p_off <= fo < p_off + max(size, 1):
                        return fo - p_off + p_vaddr
                return fo
        return None

    def name(self, addr):
        """`symbol@library`, or `library+start (static)` for an address in
        the gap after an exported symbol's end (a symbol nm gives no size is
        taken to reach the next one)."""
        if self.syms is None:
            out = subprocess.run(
                ["nm", "-D", "-S", "--defined-only", self.path],
                capture_output=True, text=True, check=False,
            ).stdout
            syms = []
            for line in out.splitlines():
                parts = line.split()
                if len(parts) == 4 and parts[2] in "TtWwi":
                    syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
                elif len(parts) == 3 and parts[1] in "TtWwi":
                    syms.append((int(parts[0], 16), None, parts[2]))
            syms.sort()
            self.syms = ([a for a, _, _ in syms], syms)
        base = os.path.basename(self.path)
        starts, syms = self.syms
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0:
            return "??@" + base
        start, size, name = syms[i]
        if size is not None and addr >= start + size:
            return f"{base}+{start + size:#x} (static)"
        return name + "@" + base


def read_samples(path):
    modules, records, dropped, minflt = {}, [], 0, None
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "M":
                lo, hi, off, name = rest.split(" ", 3)
                if name not in modules:
                    modules[name] = Module(name)
                modules[name].maps.append((int(lo, 16), int(hi, 16), int(off, 16)))
            elif kind in ("S", "F"):
                records.append((kind, [int(x, 16) for x in rest.split()]))
            elif kind == "D":
                dropped = int(rest)
            elif kind == "R":
                minflt = int(rest)
    return modules, records, dropped, minflt


def module_of(modules, pc):
    for m in modules.values():
        for lo, hi, _ in m.maps:
            if lo <= pc < hi:
                return m
    return None


def symbolize(exe, addrs):
    """vaddr -> [(name, file)] innermost first, from one addr2line run."""
    tool = os.environ.get("ADDR2LINE") or shutil.which("llvm-addr2line") or "addr2line"
    text = "".join(f"{a:#x}\n" for a in addrs)
    out = subprocess.run(
        [tool, "-e", exe, "-a", "-f", "-i", "-C"],
        input=text, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    frames, cur, i = {}, None, 0
    while i < len(out):
        line = out[i]
        if re.fullmatch(r"0x[0-9a-f]+", line):
            cur = int(line, 16)
            frames[cur] = []
            i += 1
            continue
        name = HASH.sub("", line)
        if "$" in name:
            for mangled, plain in LEGACY:
                name = name.replace(mangled, plain)
        where = out[i + 1] if i + 1 < len(out) else ""
        frames[cur].append((name, where))
        i += 2
    return frames


def main():
    args = sys.argv[1:]
    top = 25
    if "--top" in args:
        at = args.index("--top")
        top = int(args[at + 1])
        del args[at:at + 2]
    rep = None
    if "--rep" in args:
        at = args.index("--rep")
        rep = args[at + 1]
        del args[at:at + 2]
    exe, path = args
    exe = os.path.realpath(exe)
    modules, records, dropped, minflt = read_samples(path)
    if rep is not None and minflt is not None:
        with open(rep) as f:
            fields = dict(line.split(" ", 1) for line in f if " " in line)
        attempted = int(fields["attempted"])
        print(f"minor faults: {minflt} over {attempted} requests = "
              f"{minflt / max(attempted, 1):.2f} per request")

    # Drop the sampler's own frames, and for a SIGPROF sample the signal
    # trampoline after them; every frame but an interrupted PC is a return
    # address, looked up one byte back.
    stacks = []
    for kind, pcs in records:
        i = 0
        while i < len(pcs):
            m = module_of(modules, pcs[i])
            if m is None or not m.path.endswith("sampler.so"):
                break
            i += 1
        if kind == "S":
            i += 1
        stacks.append((kind, [pc if j == i and kind == "S" else pc - 1
                              for j, pc in enumerate(pcs) if j >= i]))

    wanted = set()
    located = {}
    for _, pcs in stacks:
        for pc in pcs:
            if pc in located:
                continue
            m = module_of(modules, pc)
            va = m.vaddr(pc) if m else None
            located[pc] = (m, va)
            if m is not None and os.path.realpath(m.path) == exe and va is not None:
                wanted.add(va)
    inline = symbolize(exe, sorted(wanted)) if wanted else {}

    def frames(pc):
        m, va = located[pc]
        if m is None or va is None:
            return [("??", "")]
        if os.path.realpath(m.path) == exe:
            return inline.get(va) or [("??", "")]
        return [(m.name(va), LIB)]

    prof = [[f for pc in pcs for f in frames(pc)] for k, pcs in stacks if k == "S"]
    waits = [[f for pc in pcs for f in frames(pc)] for k, pcs in stacks if k == "F"]
    total = len(prof)
    print(f"samples: {total} SIGPROF, {len(waits)} futex waits, {dropped} dropped")
    if not total:
        return

    def table(title, counter, base):
        print(f"\n== {title}")
        for name, n in counter.most_common(top):
            print(f"{100.0 * n / base:6.1f}%  {n:6d}  {name}")

    selfs, incl, owners = collections.Counter(), collections.Counter(), collections.Counter()
    inside = []
    for chain in prof:
        selfs[chain[0][0]] += 1
        for name in {n for n, _ in chain}:
            incl[name] += 1
        owners[owner(chain)] += 1
        if any(n.startswith(OPTIMIZE) for n, _ in chain):
            inside.append(chain)
    table("self (innermost inline frame)", selfs, total)
    table("inclusive", incl, total)
    table("nearest starqo_* owner", owners, total)

    print("\n== request layers (inclusive, % of all samples)")
    for layer in LAYERS:
        n = sum(any(name == layer or name.endswith("::" + layer) for name, _ in chain)
                for chain in prof)
        print(f"{100.0 * n / total:6.1f}%  {n:6d}  {layer}")

    opt = len(inside)
    print(f"\n== inside {OPTIMIZE}: {opt} samples ({100.0 * opt / total:.1f}% of all)")
    if not opt:
        return
    cats, payloads = collections.Counter(), collections.Counter()
    for chain in inside:
        cat = leaf_category(chain)
        cats[cat] += 1
        if cat == REFCOUNT:
            payloads[arc_payload(chain)] += 1
        if teardown(chain):
            cats[TEARDOWN] += 1
    for label in (REFCOUNT, ALLOCATOR, MOVES, TEARDOWN):
        print(f"{100.0 * cats[label] / opt:6.1f}%  {cats[label]:6d}  {label}")
    table("refcount samples by Arc payload (% of optimize)", payloads, opt)
    if waits:
        table("futex waits by nearest starqo_* owner",
              collections.Counter(owner(c) for c in waits), len(waits))


LIB = "<shared library>"
# Where a request's time goes, outermost first: a frame matches a layer when
# its name is the layer's or ends in `::` and the layer's.
LAYERS = ["perf::run::request", "parse_query", "canonicalize", "Service::serve_prepared",
          "Service::cold_optimize", "VexecExecutor::run"]
REFCOUNT = "refcount (Arc inc/dec)"
ALLOCATOR = "allocator (libc, called from alloc/dealloc)"
MOVES = "memcpy family (libc, called from elsewhere)"
TEARDOWN = "teardown (drops made by optimize_spanned itself; overlaps the above)"


def owner(chain):
    return next((n for n, _ in chain if "starqo_" in n), "(no starqo frame)")


def leaf_category(chain):
    """Where the innermost frame is: an `Arc` count, libc on behalf of the
    allocator, libc for anything else, or program code."""
    name, where = chain[0]
    if ATOMIC_FILE in where or ARC_FILE in where:
        return REFCOUNT
    if where != LIB:
        return None
    caller = next(((n, w) for n, w in chain if w != LIB), ("", ""))
    n, w = caller
    if (ALLOC_FILE.search(w) or ALLOC_FN.match(n)
            or (BOX_FILE.search(w) and n.startswith("drop"))):
        return ALLOCATOR
    return MOVES


def arc_payload(chain):
    """The first generic argument of the innermost `Arc` frame (`clone<T, A>`)."""
    arc = next((n for n, w in chain if ARC_FILE in w), "")
    start = arc.find("<")
    if start < 0:
        return arc or "?"
    depth = 0
    for i in range(start, len(arc)):
        depth += {"<": 1, "[": 1, "(": 1, ">": -1, "]": -1, ")": -1}.get(arc[i], 0)
        if depth == 1 and arc[i] == "," or depth == 0:
            return arc[start + 1:i]
    return arc[start + 1:]


def teardown(chain):
    """A drop called by `optimize_spanned` itself: the run's state going away."""
    for i, (n, _) in enumerate(chain):
        if n.endswith("optimize_spanned"):
            return i > 0 and "drop_in_place<" in chain[i - 1][0]
    return False


if __name__ == "__main__":
    main()
