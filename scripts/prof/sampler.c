/* SIGPROF frame-pointer sampler, loaded with LD_PRELOAD.
 *
 * Every millisecond of process CPU time (ITIMER_PROF) the handler records
 * the interrupted instruction pointer and the return addresses found by
 * walking the frame-pointer chain. Frames are read with process_vm_readv on
 * our own pid, so a garbage frame pointer (libc and the precompiled std keep
 * none) ends the walk with EFAULT instead of a crash. Code that uses RBP as a
 * general register (glibc's malloc internals) ends the walk at once; when no
 * walked address lies in the executable's text, the handler scans up to
 * SCAN words upward from the interrupted RSP and keeps the first few that
 * do, tagged as scanned: likely return addresses, possibly stale ones. At
 * exit the samples, one line of hex addresses each (innermost first, a
 * scanned one prefixed with `~`), and a copy of /proc/self/maps are written
 * to prof.<pid>.txt in the working directory; symbolize.py turns that into
 * a profile.
 *
 *   cc -O2 -shared -fPIC -o sampler.so scripts/prof/sampler.c
 *   RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release ...
 *   LD_PRELOAD=$PWD/sampler.so ./binary args
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define WORDS (1u << 24) /* 128 MiB of sample words, reserved lazily */
#define DEPTH 128
#define SCAN 256              /* stack words searched when the walk misses the binary */
#define CHUNK 32              /* words read per process_vm_readv while scanning */
#define KEEP 4                /* scanned words kept per sample */
#define SCANNED (1ull << 63)  /* tags a word found by scanning, not by the walk */

static uint64_t *buf;
static size_t used; /* words of buf taken; reserved atomically per sample */
static uint64_t text_lo, text_hi; /* the executable's code, from /proc/self/maps */

static int peek(uint64_t at, uint64_t *out, size_t words) {
    struct iovec local = {out, words * 8}, remote = {(void *)at, words * 8};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == (ssize_t)(words * 8);
}

static int in_text(uint64_t a) { return a >= text_lo && a < text_hi; }

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t pcs[DEPTH], frame[2]; /* frame: [saved fp, return address] */
    uint64_t fp = (uint64_t)r[REG_RBP];
    size_t n = 0;
    pcs[n++] = (uint64_t)r[REG_RIP];
    int hit = in_text(pcs[0]);
    while (n < DEPTH && fp && !(fp & 7) && peek(fp, frame, 2) && frame[1]) {
        hit |= in_text(frame[1]);
        pcs[n++] = frame[1];
        if (frame[0] <= fp) break; /* the stack grows down: callers are above */
        fp = frame[0];
    }
    uint64_t sp = (uint64_t)r[REG_RSP] & ~7ull, chunk[CHUNK];
    for (size_t kept = 0, k = 0; !hit && kept < KEEP && k < SCAN; k += CHUNK) {
        if (!peek(sp + 8 * k, chunk, CHUNK)) break; /* past the top of the stack */
        for (size_t j = 0; j < CHUNK && kept < KEEP && n < DEPTH; j++)
            if (in_text(chunk[j])) pcs[n++] = chunk[j] | SCANNED, kept++;
    }
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > WORDS) return;
    for (size_t i = 0; i < n; i++) buf[at + 1 + i] = pcs[i];
    buf[at] = n;
}

/* Finds the executable's text mapping, the range scanned words must hit. */
static void find_text(void) {
    char exe[1024], line[2048];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (len <= 0 || !maps) {
        if (maps) fclose(maps);
        return;
    }
    exe[len] = 0;
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        char perms[8];
        int path = 0;
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %n", &lo, &hi, perms, &path) == 3 && path
            && perms[2] == 'x' && strncmp(line + path, exe, len) == 0 && line[path + len] == '\n') {
            text_lo = lo, text_hi = hi;
            break;
        }
    }
    fclose(maps);
}

__attribute__((constructor)) static void start(void) {
    find_text();
    buf = mmap(0, WORDS * 8, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, 0);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    if (!buf || buf == MAP_FAILED) return;
    char name[64], line[4096];
    snprintf(name, sizeof name, "prof.%d.txt", (int)getpid());
    FILE *out = fopen(name, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out) return;
    while (maps && fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    if (maps) fclose(maps);
    /* A sample has at least one address, so a zero count is the first slot
     * never written: where the buffer filled up. */
    for (size_t at = 0; at < used && at < WORDS && buf[at]; at += 1 + buf[at]) {
        for (size_t i = 0; i < buf[at]; i++) {
            uint64_t a = buf[at + 1 + i];
            fprintf(out, "%s%s%lx", i ? " " : "", a & SCANNED ? "~" : "", (unsigned long)(a & ~SCANNED));
        }
        fputc('\n', out);
    }
    fclose(out);
}
