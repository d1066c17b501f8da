/*
 * A sampling profiler to LD_PRELOAD into one process (see scripts/profile.sh).
 *
 * - Every millisecond of process CPU time (SIGPROF from ITIMER_PROF) the
 *   interrupted thread records its stack with backtrace(3).
 * - A shim over syscall(2) records the stack of every FUTEX_WAIT a Rust
 *   program makes (std parks threads and waits on contended locks through
 *   syscall(SYS_futex, ...)), then forwards the call.
 *
 * Records go to a fixed array filled lock-free; at exit they are written,
 * after the process's executable mappings, to $STARQO_PROF_OUT (default
 * prof.out) for scripts/prof/report.py:
 *
 *   M <start> <end> <file offset> <path>     one per executable mapping
 *   S <pc> <pc> ...                          one SIGPROF sample, innermost first
 *   F <pc> <pc> ...                          one futex wait
 *   R <minflt>                               the process's minor faults
 *
 * Build: cc -O2 -shared -fPIC -o sampler.so sampler.c -ldl
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <linux/futex.h>
#include <signal.h>
#include <stdarg.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/time.h>

#define DEPTH 40
#define CAPACITY (1 << 16)

struct record {
    char kind;
    unsigned char depth;
    void *pcs[DEPTH];
};

static struct record *records;
static atomic_uint used;
static atomic_uint dropped;
static long (*real_syscall)(long, ...);

static void take(char kind)
{
    unsigned at = atomic_fetch_add_explicit(&used, 1, memory_order_relaxed);
    if (!records || at >= CAPACITY) {
        atomic_fetch_add_explicit(&dropped, 1, memory_order_relaxed);
        return;
    }
    struct record *r = &records[at];
    r->depth = (unsigned char)backtrace(r->pcs, DEPTH);
    r->kind = kind;
}

static void on_prof(int sig)
{
    (void)sig;
    take('S');
}

long syscall(long number, ...)
{
    va_list ap;
    long a[6];
    va_start(ap, number);
    for (int i = 0; i < 6; i++)
        a[i] = va_arg(ap, long);
    va_end(ap);
    if (number == SYS_futex) {
        int cmd = (int)a[1] & FUTEX_CMD_MASK;
        if (cmd == FUTEX_WAIT || cmd == FUTEX_WAIT_BITSET)
            take('F');
    }
    return real_syscall(number, a[0], a[1], a[2], a[3], a[4], a[5]);
}

__attribute__((constructor)) static void start(void)
{
    real_syscall = (long (*)(long, ...))dlsym(RTLD_NEXT, "syscall");
    records = calloc(CAPACITY, sizeof(struct record));
    /* backtrace(3) loads its unwinder on first use; do that here, not in
     * the signal handler. */
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("STARQO_PROF_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi, off;
        char perms[8], name[4096] = "";
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095[^\n]", &lo, &hi, perms, &off, name) >= 4
            && perms[2] == 'x' && name[0] == '/')
            fprintf(out, "M %lx %lx %lx %s\n", lo, hi, off, name);
    }
    if (maps)
        fclose(maps);
    unsigned n = atomic_load(&used);
    if (n > CAPACITY)
        n = CAPACITY;
    for (unsigned i = 0; i < n; i++) {
        struct record *r = &records[i];
        if (!r->kind)
            continue;
        fputc(r->kind, out);
        for (int d = 0; d < r->depth; d++)
            fprintf(out, " %lx", (unsigned long)r->pcs[d]);
        fputc('\n', out);
    }
    fprintf(out, "D %u\n", atomic_load(&dropped));
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0)
        fprintf(out, "R %ld\n", usage.ru_minflt);
    fclose(out);
}
