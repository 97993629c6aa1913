/* malloc_count.c - an LD_PRELOAD allocation-call counter.
 *
 * Interposes malloc, calloc, realloc and free, forwards each call to
 * glibc's own implementation (__libc_malloc and friends, so no dlsym
 * bootstrap is needed) and counts the calls. When the process exits it
 * writes one line to standard error:
 *
 *   malloc_count[<pid>]: malloc=<n> calloc=<n> realloc=<n> free=<n>
 *
 * C++ operator new and delete reach these through libstdc++, so the
 * counts include them. Build and run it through scripts/malloc_count.sh.
 */

#include <stddef.h>
#include <unistd.h>

extern void *__libc_malloc(size_t Size);
extern void *__libc_calloc(size_t N, size_t Size);
extern void *__libc_realloc(void *P, size_t Size);
extern void __libc_free(void *P);

static unsigned long long Mallocs, Callocs, Reallocs, Frees;

#define COUNT(C) __atomic_fetch_add(&(C), 1, __ATOMIC_RELAXED)

void *malloc(size_t Size) {
  COUNT(Mallocs);
  return __libc_malloc(Size);
}

void *calloc(size_t N, size_t Size) {
  COUNT(Callocs);
  return __libc_calloc(N, Size);
}

void *realloc(void *P, size_t Size) {
  COUNT(Reallocs);
  return __libc_realloc(P, Size);
}

void free(void *P) {
  if (P)
    COUNT(Frees);
  __libc_free(P);
}

/* Appends the decimal digits of V to Buf at *Pos (no allocation, no stdio:
 * this runs while the process is shutting down). */
static void putNum(char *Buf, size_t *Pos, unsigned long long V) {
  char Digits[24];
  int N = 0;
  do {
    Digits[N++] = (char)('0' + V % 10);
    V /= 10;
  } while (V);
  while (N)
    Buf[(*Pos)++] = Digits[--N];
}

static void putStr(char *Buf, size_t *Pos, const char *S) {
  while (*S)
    Buf[(*Pos)++] = *S++;
}

__attribute__((destructor)) static void report(void) {
  char Buf[256];
  size_t Pos = 0;
  putStr(Buf, &Pos, "malloc_count[");
  putNum(Buf, &Pos, (unsigned long long)getpid());
  putStr(Buf, &Pos, "]: malloc=");
  putNum(Buf, &Pos, __atomic_load_n(&Mallocs, __ATOMIC_RELAXED));
  putStr(Buf, &Pos, " calloc=");
  putNum(Buf, &Pos, __atomic_load_n(&Callocs, __ATOMIC_RELAXED));
  putStr(Buf, &Pos, " realloc=");
  putNum(Buf, &Pos, __atomic_load_n(&Reallocs, __ATOMIC_RELAXED));
  putStr(Buf, &Pos, " free=");
  putNum(Buf, &Pos, __atomic_load_n(&Frees, __ATOMIC_RELAXED));
  Buf[Pos++] = '\n';
  ssize_t Ignored = write(2, Buf, Pos);
  (void)Ignored;
}
