#!/usr/bin/env bash
# CPU profile of one perfbench leg: where does the host time go?
#
# The CPU twin of scripts/memprof.sh, for hosts without perf. Builds the
# perfbench binary (Release, LTO) with frame pointers, compiles a small
# SIGPROF sampler into a shared object, LD_PRELOADs it into one leg run and
# prints a flat per-function profile. The sampler records the interrupted
# PC (so libc's memcpy, malloc and friends show up, which gprof cannot see)
# plus a frame-pointer walk, bounded to the 8 MiB above the stack pointer,
# for inclusive counts. Not part of the tier-1 tests.
#
#   scripts/cpuprof.sh                        # swarm main leg
#   scripts/cpuprof.sh fleet                  # any leg: fleet|swarm|punch|chaos
#   scripts/cpuprof.sh chaos --seconds 2 --seed 3
#
# Arguments after the leg go to perfbench as they are (--seed, --seconds,
# ...); the leg runs at --scale main with --trace 0 unless they override it.
# The sampler ticks at 1 kHz of CPU time and the top 40 functions are shown.
#
# Output: the profile on stdout, plus $OUT_DIR/profile.txt and the raw
# samples and address map it was built from.
#
# Columns: self% counts samples whose PC is in the function; total% counts
# samples with the function anywhere on the walked stack. A frameless leaf
# (most of libc) hides its direct caller from the walk, so total% is a
# lower bound there. Symbols come from nm: functions inlined by LTO are
# charged to the function they were inlined into, and libc addresses past
# the end of every exported symbol are shown as "libc.so.6 ?" after the
# nearest export.
#
# Environment knobs:
#   BUILD_DIR (default: .bench_build/cpuprof)
#   OUT_DIR   (default: cpuprof-out)

set -euo pipefail
cd "$(dirname "$0")/.."

LEG="${1:-swarm}"
shift $(($# > 0 ? 1 : 0))
BUILD_DIR="${BUILD_DIR:-.bench_build/cpuprof}"
OUT_DIR="${OUT_DIR:-cpuprof-out}"

case "$LEG" in
  fleet | swarm | punch | chaos) ;;
  *)
    echo "usage: scripts/cpuprof.sh [fleet|swarm|punch|chaos] [perfbench args...]" >&2
    exit 2
    ;;
esac

cmake -S perfbench -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer" >/dev/null
cmake --build "$BUILD_DIR" --target perfbench -j "${JOBS:-$(nproc)}" >/dev/null

mkdir -p "$OUT_DIR"
SAMPLER="$BUILD_DIR/cpuprof_sampler.so"
cat >"$BUILD_DIR/cpuprof_sampler.c" <<'C'
// SIGPROF PC sampler, loaded with LD_PRELOAD. Every millisecond of CPU
// time it records the interrupted PC and a bounded frame-pointer walk into
// a preallocated buffer (the handler never allocates), and writes the
// samples and /proc/self/maps when the process exits. CPUPROF_OUT names the
// output prefix.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

enum { kDepth = 24, kMaxSamples = 1 << 16 };
static const uintptr_t kStackSpan = 8u << 20;

static uintptr_t (*samples)[kDepth + 1];  // [0] = frame count
static unsigned long next_sample;
static unsigned long dropped;

static void OnProf(int sig, siginfo_t* info, void* raw) {
  (void)sig;
  (void)info;
  const unsigned long i = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
  if (i >= kMaxSamples) {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  const ucontext_t* uc = (const ucontext_t*)raw;
  uintptr_t* out = samples[i];
  uintptr_t n = 0;
  out[1 + n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  while (n < kDepth && fp >= sp && fp < sp + kStackSpan && (fp & 7) == 0) {
    const uintptr_t up = ((const uintptr_t*)fp)[0];
    const uintptr_t ret = ((const uintptr_t*)fp)[1];
    if (ret < 4096) {
      break;
    }
    out[1 + n++] = ret - 1;  // inside the call instruction
    if (up <= fp) {
      break;
    }
    fp = up;
  }
  out[0] = n;
}

__attribute__((constructor)) static void Start(void) {
  if (getenv("CPUPROF_OUT") == NULL) {
    return;
  }
  samples = mmap(NULL, sizeof(*samples) * kMaxSamples, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (samples == MAP_FAILED) {
    samples = NULL;
    return;
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval tv;
  tv.it_interval.tv_sec = 0;
  tv.it_interval.tv_usec = 1000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void Stop(void) {
  if (samples == NULL) {
    return;
  }
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  char path[4096];
  snprintf(path, sizeof(path), "%s.samples", getenv("CPUPROF_OUT"));
  FILE* f = fopen(path, "w");
  if (f != NULL) {
    unsigned long n = next_sample < kMaxSamples ? next_sample : kMaxSamples;
    fprintf(f, "# samples=%lu dropped=%lu\n", n, dropped);
    for (unsigned long i = 0; i < n; ++i) {
      for (uintptr_t k = 0; k < samples[i][0]; ++k) {
        fprintf(f, k == 0 ? "%lx" : " %lx", (unsigned long)samples[i][1 + k]);
      }
      fputc('\n', f);
    }
    fclose(f);
  }
  snprintf(path, sizeof(path), "%s.maps", getenv("CPUPROF_OUT"));
  FILE* in = fopen("/proc/self/maps", "r");
  FILE* out = fopen(path, "w");
  if (in != NULL && out != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), in) != NULL) {
      fputs(line, out);
    }
  }
  if (in != NULL) fclose(in);
  if (out != NULL) fclose(out);
}
C
cc -O2 -fPIC -shared -o "$SAMPLER" "$BUILD_DIR/cpuprof_sampler.c"

PREFIX="$OUT_DIR/$LEG"
rm -f "$PREFIX.samples" "$PREFIX.maps"
LD_PRELOAD="$(realpath "$SAMPLER")" CPUPROF_OUT="$PREFIX" \
  "$BUILD_DIR/perfbench" "$LEG" --scale main --trace 0 "$@" >"$OUT_DIR/$LEG.out"

python3 - "$PREFIX" <<'PY' | tee "$OUT_DIR/profile.txt"
import bisect
import collections
import os
import subprocess
import sys

prefix = sys.argv[1]
TOP = 40

# Executable mappings: (start, end, file offset, path).
maps = []
for line in open(prefix + ".maps"):
    parts = line.split()
    if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
        continue
    start, end = (int(x, 16) for x in parts[0].split("-"))
    maps.append((start, end, int(parts[2], 16), parts[5]))
maps.sort()
starts = [m[0] for m in maps]


def load_segments(path):
    """(file offset, vaddr, size) of each PT_LOAD, to turn offsets into vaddrs."""
    segs = []
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    for line in out.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def load_symbols(path):
    """Sorted (vaddr, size, name) of defined functions; .dynsym when stripped."""
    for extra in ([], ["-D"]):
        out = subprocess.run(["nm", "-C", "-S", "--defined-only", *extra, path],
                             capture_output=True, text=True).stdout
        syms = []
        for line in out.splitlines():
            f = line.split(None, 3)
            if len(f) == 4 and f[2] in "tTwWiI":
                syms.append((int(f[0], 16), int(f[1], 16), f[3]))
        if syms:
            return sorted(syms)
    return []


segments, symbols, sym_starts = {}, {}, {}


def name_of(addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return "?? (unmapped)"
    start, _, offset, path = maps[i]
    lib = os.path.basename(path)
    if path not in symbols:
        segments[path] = load_segments(path)
        symbols[path] = load_symbols(path)
        sym_starts[path] = [s[0] for s in symbols[path]]
    file_off = addr - start + offset
    vaddr = file_off
    for seg_off, seg_vaddr, seg_size in segments[path]:
        if seg_off <= file_off < seg_off + seg_size:
            vaddr = file_off - seg_off + seg_vaddr
            break
    j = bisect.bisect_right(sym_starts[path], vaddr) - 1
    if j < 0:
        return f"{lib} ?"
    sym_addr, sym_size, sym_name = symbols[path][j]
    if sym_size and vaddr >= sym_addr + sym_size:
        return f"{lib} ? (after {sym_name})"
    return sym_name if lib == "perfbench" else f"{sym_name} [{lib}]"


self_counts = collections.Counter()
total_counts = collections.Counter()
n = 0
header = ""
cache = {}
for line in open(prefix + ".samples"):
    if line.startswith("#"):
        header = line[1:].strip()
        continue
    addrs = [int(a, 16) for a in line.split()]
    if not addrs:
        continue
    n += 1
    names = []
    for a in addrs:
        if a not in cache:
            cache[a] = name_of(a)
        names.append(cache[a])
    self_counts[names[0]] += 1
    for name in set(names):
        total_counts[name] += 1

print(f"cpuprof: {n} samples ({header})")
if n == 0:
    sys.exit(0)
print(f"{'self%':>7} {'total%':>7}  function")
for name, count in self_counts.most_common(TOP):
    print(f"{100.0 * count / n:7.2f} {100.0 * total_counts[name] / n:7.2f}  {name}")
PY
