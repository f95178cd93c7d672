// Peak-heap profiler, loaded into a program with LD_PRELOAD: the
// allocation-side companion of sampler.c.
//
//   cc -O2 -fPIC -shared -o heap.so scripts/profile/heap.c
//   LD_PRELOAD=$PWD/heap.so build-perf/rfaas_perf --workload lease_churn --seconds 4
//   python3 scripts/profile/report.py heap-<pid>.txt --under main
//
// It hooks malloc, calloc, realloc, aligned_alloc, posix_memalign and
// free. Each hook passes the call on to glibc's own entry points
// (__libc_malloc and friends, so no dlsym bootstrap is needed) and
// records the block in a table of live blocks, together with the call
// stack that allocated it (backtrace(3), interned once per distinct
// stack). It keeps, for every stack, the bytes that stack held live at
// the moment the live heap bytes peaked (exactly, and without a copy per
// new peak: see note_change). At exit it writes them to heap-<pid>.txt
// in the working directory in sampler.c's format, one sample per 4 KiB
// held at the peak (rounded to the nearest), so report.py's self and
// inclusive tables read as shares of the peak heap.
//
// Outside its view: memory mapped without malloc (mmap, such as
// rdmalib::Buffer's regions), blocks from other entry points (memalign,
// valloc), blocks allocated before the library's constructor ran, and
// blocks allocated while it is itself inside a hook (backtrace's first
// call loads the unwinder). Freeing a block it never saw passes straight
// through. Its own tables are mmap'ed, so they stay out of the heap they
// measure. Every hook takes one spin lock: the shares hold for threaded
// programs, but their allocations serialize. x86-64 and aarch64 Linux,
// glibc.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t count, size_t size);
extern void* __libc_realloc(void* old, size_t size);
extern void* __libc_memalign(size_t alignment, size_t size);
extern void __libc_free(void* p);

enum {
  kMaxDepth = 64,
  kBytesPerSample = 4096,
  kMaxStacks = 1 << 20,    // distinct allocating call stacks
  kFrameWords = 32 << 20,  // their frames: 256 MiB of address space, touched as used
};

typedef struct {
  uint64_t hash;
  uint32_t frames;   // offset of the first (leaf) frame in g_frames
  uint32_t depth;
  int64_t live;      // bytes this stack holds live now
  int64_t at_peak;   // bytes it held at the last peak, once it changed after it
  uint64_t version;  // g_peak_version when `live` last changed
} Stack;

typedef struct {
  uintptr_t ptr;  // 0: empty slot
  size_t size;
  uint32_t stack;
} Block;

static Stack* g_stacks;
static uint32_t g_stack_count;
static uint32_t* g_stack_slots;  // 2 * kMaxStacks slots of stack index + 1 (0: empty)
static uintptr_t* g_frames;
static size_t g_frames_used;
static Block* g_blocks;
static size_t g_block_cap;
static size_t g_block_count;
static int64_t g_live;
static int64_t g_peak;
static uint64_t g_peak_version;
static unsigned long g_untracked;  // allocations the tables had no room for
static int g_ready;
static char g_lock;
static __thread int t_busy __attribute__((tls_model("initial-exec")));

static void* map_zeroed(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                 -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static void lock(void) {
  while (__atomic_test_and_set(&g_lock, __ATOMIC_ACQUIRE)) {
  }
}

static void unlock(void) { __atomic_clear(&g_lock, __ATOMIC_RELEASE); }

static uint64_t mix(uint64_t h, uint64_t v) { return (h ^ v) * 0x100000001b3ull; }

static size_t block_slot(uintptr_t ptr, size_t cap) {
  return (size_t)((ptr >> 4) * 0x9E3779B97F4A7C15ull) & (cap - 1);
}

// Doubles the block table once it is half full. Returns 0 when out of memory.
static int blocks_reserve(void) {
  if (2 * (g_block_count + 1) <= g_block_cap) return 1;
  const size_t cap = g_block_cap * 2;
  Block* grown = map_zeroed(cap * sizeof(Block));
  if (grown == NULL) return 0;
  for (size_t i = 0; i < g_block_cap; ++i) {
    if (g_blocks[i].ptr == 0) continue;
    size_t at = block_slot(g_blocks[i].ptr, cap);
    while (grown[at].ptr != 0) at = (at + 1) & (cap - 1);
    grown[at] = g_blocks[i];
  }
  munmap(g_blocks, g_block_cap * sizeof(Block));
  g_blocks = grown;
  g_block_cap = cap;
  return 1;
}

// Removes `ptr`'s block into *out; 0 when the table never saw it. Linear
// probing with backward-shift deletion, so no tombstones pile up.
static int blocks_take(uintptr_t ptr, Block* out) {
  const size_t mask = g_block_cap - 1;
  size_t at = block_slot(ptr, g_block_cap);
  while (g_blocks[at].ptr != ptr) {
    if (g_blocks[at].ptr == 0) return 0;
    at = (at + 1) & mask;
  }
  *out = g_blocks[at];
  size_t hole = at;
  for (size_t next = (at + 1) & mask; g_blocks[next].ptr != 0; next = (next + 1) & mask) {
    const size_t home = block_slot(g_blocks[next].ptr, g_block_cap);
    // Move `next` into the hole unless its home lies cyclically in (hole, next].
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      g_blocks[hole] = g_blocks[next];
      hole = next;
    }
  }
  g_blocks[hole].ptr = 0;
  --g_block_count;
  return 1;
}

// Applies `delta` bytes to a stack's live total. The per-stack values at
// the peak are kept lazily: a new peak only bumps g_peak_version, and a
// stack first changed after it saves its `live`, which the peak left
// untouched, into `at_peak` before changing.
static void note_change(uint32_t id, int64_t delta) {
  Stack* s = &g_stacks[id];
  if (s->version != g_peak_version) {
    s->at_peak = s->live;
    s->version = g_peak_version;
  }
  s->live += delta;
  g_live += delta;
  if (g_live > g_peak) {
    g_peak = g_live;
    ++g_peak_version;
  }
}

// The samples a stack gets: its bytes at the peak, to the nearest 4 KiB.
static int64_t samples_at_peak(const Stack* s) {
  const int64_t bytes = s->version != g_peak_version ? s->live : s->at_peak;
  return (bytes + kBytesPerSample / 2) / kBytesPerSample;
}

// Index of the stack calling the hook that `ra` returns into, interned;
// UINT32_MAX when the tables are full.
static uint32_t intern_stack(uintptr_t ra) {
  void* raw[kMaxDepth + 8];
  const int n = backtrace(raw, kMaxDepth + 8);
  int first = 0;  // skip this library's frames: the stack starts in the caller
  for (int i = 0; i < n; ++i) {
    if ((uintptr_t)raw[i] == ra) {
      first = i;
      break;
    }
  }
  uintptr_t frames[kMaxDepth];
  uint32_t depth = 0;
  for (int i = first; i < n && depth < kMaxDepth; ++i) frames[depth++] = (uintptr_t)raw[i];
  // The leaf is a return address too; point it into the call instruction,
  // as report.py does for the outer frames.
  if (depth > 0) frames[0] -= 1;
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint32_t i = 0; i < depth; ++i) hash = mix(hash, frames[i]);

  const uint32_t mask = 2 * kMaxStacks - 1;
  uint32_t at = (uint32_t)hash & mask;
  for (; g_stack_slots[at] != 0; at = (at + 1) & mask) {
    const Stack* s = &g_stacks[g_stack_slots[at] - 1];
    if (s->hash == hash && s->depth == depth &&
        memcmp(&g_frames[s->frames], frames, depth * sizeof(uintptr_t)) == 0) {
      return g_stack_slots[at] - 1;
    }
  }
  if (g_stack_count == kMaxStacks || g_frames_used + depth > kFrameWords) return UINT32_MAX;
  Stack* s = &g_stacks[g_stack_count];
  s->hash = hash;
  s->frames = (uint32_t)g_frames_used;
  s->depth = depth;
  s->version = g_peak_version;  // at_peak = live = 0: it held nothing at the last peak
  memcpy(&g_frames[g_frames_used], frames, depth * sizeof(uintptr_t));
  g_frames_used += depth;
  g_stack_slots[at] = ++g_stack_count;
  return g_stack_count - 1;
}

// Both run with the lock held and t_busy set.
static void track_locked(void* p, size_t size, uintptr_t ra) {
  const uint32_t id = intern_stack(ra);
  if (id == UINT32_MAX || !blocks_reserve()) {
    ++g_untracked;
    return;
  }
  size_t at = block_slot((uintptr_t)p, g_block_cap);
  while (g_blocks[at].ptr != 0) at = (at + 1) & (g_block_cap - 1);
  g_blocks[at] = (Block){(uintptr_t)p, size, id};
  ++g_block_count;
  note_change(id, (int64_t)size);
}

static void untrack_locked(void* p) {
  Block b;
  if (blocks_take((uintptr_t)p, &b)) note_change(b.stack, -(int64_t)b.size);
}

static int enter(void) {
  if (!g_ready || t_busy) return 0;
  t_busy = 1;
  lock();
  return 1;
}

static void leave(void) {
  unlock();
  t_busy = 0;
}

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  if (p != NULL && enter()) {
    track_locked(p, size, (uintptr_t)__builtin_return_address(0));
    leave();
  }
  return p;
}

void* calloc(size_t count, size_t size) {
  void* p = __libc_calloc(count, size);
  if (p != NULL && enter()) {
    track_locked(p, count * size, (uintptr_t)__builtin_return_address(0));
    leave();
  }
  return p;
}

void* realloc(void* old, size_t size) {
  if (!enter()) return __libc_realloc(old, size);
  // Under the lock, so no other thread reuses `old`'s address between the
  // move and the untrack.
  void* p = __libc_realloc(old, size);
  if (old != NULL && (p != NULL || size == 0)) untrack_locked(old);
  if (p != NULL) track_locked(p, size, (uintptr_t)__builtin_return_address(0));
  leave();
  return p;
}

void* aligned_alloc(size_t alignment, size_t size) {
  if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
    errno = EINVAL;
    return NULL;
  }
  void* p = __libc_memalign(alignment, size);
  if (p != NULL && enter()) {
    track_locked(p, size, (uintptr_t)__builtin_return_address(0));
    leave();
  }
  return p;
}

int posix_memalign(void** out, size_t alignment, size_t size) {
  if (alignment == 0 || alignment % sizeof(void*) != 0 || (alignment & (alignment - 1)) != 0) {
    return EINVAL;
  }
  void* p = __libc_memalign(alignment, size);
  if (p == NULL) return ENOMEM;
  if (enter()) {
    track_locked(p, size, (uintptr_t)__builtin_return_address(0));
    leave();
  }
  *out = p;
  return 0;
}

void free(void* p) {
  if (p != NULL && enter()) {
    untrack_locked(p);
    leave();
  }
  __libc_free(p);
}

static void copy_maps(FILE* out) {
  const int fd = open("/proc/self/maps", O_RDONLY);
  if (fd < 0) return;
  char chunk[4096];
  ssize_t got;
  while ((got = read(fd, chunk, sizeof chunk)) > 0) fwrite(chunk, 1, (size_t)got, out);
  close(fd);
}

__attribute__((constructor)) static void heap_start(void) {
  t_busy = 1;
  void* warm[4];
  (void)backtrace(warm, 4);  // loads the unwinder, which allocates
  g_stacks = map_zeroed(kMaxStacks * sizeof(Stack));
  g_stack_slots = map_zeroed(2 * kMaxStacks * sizeof(uint32_t));
  g_frames = map_zeroed(kFrameWords * sizeof(uintptr_t));
  g_block_cap = 1 << 16;
  g_blocks = map_zeroed(g_block_cap * sizeof(Block));
  g_ready = g_stacks != NULL && g_stack_slots != NULL && g_frames != NULL && g_blocks != NULL;
  t_busy = 0;
}

__attribute__((destructor)) static void heap_stop(void) {
  if (!g_ready) return;
  t_busy = 1;  // fopen and stdio allocate
  lock();
  g_ready = 0;
  unlock();
  unsigned long samples = 0;
  for (uint32_t i = 0; i < g_stack_count; ++i) {
    samples += (unsigned long)samples_at_peak(&g_stacks[i]);
  }
  char path[64];
  snprintf(path, sizeof path, "heap-%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out,
          "# rfs-heap peak_bytes=%lld bytes_per_sample=%d samples=%lu stacks=%u untracked=%lu\n",
          (long long)g_peak, kBytesPerSample, samples, g_stack_count, g_untracked);
  fprintf(out, "# maps\n");
  copy_maps(out);
  fprintf(out, "# samples\n");
  for (uint32_t i = 0; i < g_stack_count; ++i) {
    const Stack* s = &g_stacks[i];
    const int64_t n = samples_at_peak(s);
    for (int64_t k = 0; k < n; ++k) {
      for (uint32_t f = 0; f < s->depth; ++f) {
        fprintf(out, f == 0 ? "%lx" : " %lx", (unsigned long)g_frames[s->frames + f]);
      }
      fputc('\n', out);
    }
  }
  fclose(out);
  fprintf(stderr, "heap: peak %.1f MiB live in %u stacks, %lu samples in %s\n",
          (double)g_peak / (1 << 20), g_stack_count, samples, path);
}
