/* SIGPROF frame-pointer sampler, loaded with LD_PRELOAD.
 *
 * Every millisecond of process CPU time (ITIMER_PROF) the handler records
 * the interrupted instruction pointer and the return addresses found by
 * walking the frame-pointer chain. Frames are read with process_vm_readv on
 * our own pid, so a garbage frame pointer (libc and the precompiled std keep
 * none) ends the walk with EFAULT instead of a crash. At exit the samples,
 * one line of hex addresses each (innermost first), and a copy of
 * /proc/self/maps are written to prof.<pid>.txt in the working directory;
 * symbolize.py turns that into a profile.
 *
 *   cc -O2 -shared -fPIC -o sampler.so scripts/prof/sampler.c
 *   RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release ...
 *   LD_PRELOAD=$PWD/sampler.so ./binary args
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define WORDS (1u << 24) /* 128 MiB of sample words, reserved lazily */
#define DEPTH 128

static uint64_t *buf;
static size_t used; /* words of buf taken; reserved atomically per sample */

static int peek(uint64_t at, uint64_t out[2]) {
    struct iovec local = {out, 16}, remote = {(void *)at, 16};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == 16;
}

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t pcs[DEPTH], frame[2]; /* frame: [saved fp, return address] */
    uint64_t fp = (uint64_t)r[REG_RBP];
    size_t n = 0;
    pcs[n++] = (uint64_t)r[REG_RIP];
    while (n < DEPTH && fp && !(fp & 7) && peek(fp, frame) && frame[1]) {
        pcs[n++] = frame[1];
        if (frame[0] <= fp) break; /* the stack grows down: callers are above */
        fp = frame[0];
    }
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > WORDS) return;
    for (size_t i = 0; i < n; i++) buf[at + 1 + i] = pcs[i];
    buf[at] = n;
}

__attribute__((constructor)) static void start(void) {
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
        for (size_t i = 0; i < buf[at]; i++) fprintf(out, i ? " %lx" : "%lx", (unsigned long)buf[at + 1 + i]);
        fputc('\n', out);
    }
    fclose(out);
}
