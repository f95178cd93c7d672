// Wall-clock stack sampler, loaded into a program with LD_PRELOAD.
//
//   cc -O2 -fPIC -shared -o sampler.so scripts/profile/sampler.c
//   LD_PRELOAD=$PWD/sampler.so build-perf/rfaas_perf --workload parallel_batches --seconds 4
//   python3 scripts/profile/report.py sampler-<pid>.txt
//
// A CLOCK_MONOTONIC timer raises SIGPROF 10,000 times per second of wall
// time (not CPU time, so time the process spends blocked is sampled
// too). The handler stores the interrupted stack, as return addresses
// from backtrace(3), in a buffer allocated up front; it never allocates
// or takes a lock of its own. At exit the library writes the samples and
// a copy of /proc/self/maps to sampler-<pid>.txt in the working
// directory, which report.py turns into per-function shares.
//
// backtrace() unwinds with the binary's .eh_frame, so no frame pointers
// are needed. Its first call loads the unwinder, so it is made once at
// load time, outside the handler. x86-64 and aarch64 Linux.
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum {
  kHz = 10000,
  kMaxDepth = 128,
  kWords = 32 << 20,  // 256 MiB of address space, touched only as samples arrive
};

// Samples, back to back: a frame count, then that many addresses, leaf first.
static uintptr_t* g_buf;
static size_t g_used;
static unsigned long g_samples;
static unsigned long g_dropped;
static timer_t g_timer;
static int g_armed;

static uintptr_t interrupted_pc(void* context) {
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

static void on_sample(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (g_used + 1 + kMaxDepth > kWords) {
    ++g_dropped;
    return;
  }
  void* frames[kMaxDepth];
  const int n = backtrace(frames, kMaxDepth);
  // Skip this handler and the signal trampoline: the stack starts at the
  // interrupted instruction.
  const uintptr_t pc = interrupted_pc(context);
  int first = n < 2 ? n : 2;
  for (int i = 0; i < n; ++i) {
    if ((uintptr_t)frames[i] == pc) {
      first = i;
      break;
    }
  }
  g_buf[g_used] = (uintptr_t)(n - first);
  for (int i = first; i < n; ++i) g_buf[g_used + 1 + (size_t)(i - first)] = (uintptr_t)frames[i];
  g_used += 1 + (size_t)(n - first);
  ++g_samples;
}

static void copy_maps(FILE* out) {
  const int fd = open("/proc/self/maps", O_RDONLY);
  if (fd < 0) return;
  char chunk[4096];
  ssize_t got;
  while ((got = read(fd, chunk, sizeof chunk)) > 0) fwrite(chunk, 1, (size_t)got, out);
  close(fd);
}

__attribute__((constructor)) static void sampler_start(void) {
  void* warm[4];
  (void)backtrace(warm, 4);
  g_buf = mmap(NULL, kWords * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (g_buf == MAP_FAILED) return;

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;

  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &g_timer) != 0) return;
  struct itimerspec period;
  memset(&period, 0, sizeof period);
  period.it_interval.tv_nsec = 1000000000L / kHz;
  period.it_value = period.it_interval;
  g_armed = timer_settime(g_timer, 0, &period, NULL) == 0;
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (!g_armed) return;
  timer_delete(g_timer);
  g_armed = 0;
  char path[64];
  snprintf(path, sizeof path, "sampler-%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out, "# rfs-sampler hz=%d samples=%lu dropped=%lu\n", kHz, g_samples, g_dropped);
  fprintf(out, "# maps\n");
  copy_maps(out);
  fprintf(out, "# samples\n");
  for (size_t at = 0; at < g_used;) {
    const size_t n = g_buf[at++];
    for (size_t i = 0; i < n; ++i) fprintf(out, i == 0 ? "%lx" : " %lx", (unsigned long)g_buf[at + i]);
    fputc('\n', out);
    at += n;
  }
  fclose(out);
  fprintf(stderr, "sampler: %lu samples (%lu dropped) in %s\n", g_samples, g_dropped, path);
}
