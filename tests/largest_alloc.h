// Largest-allocation probe for decoder robustness tests: replaces the
// global operator new/delete of the test binary that includes it, so
// include it from exactly one source file per binary.

#ifndef HDOV_TESTS_LARGEST_ALLOC_H_
#define HDOV_TESTS_LARGEST_ALLOC_H_

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Largest single operator new request since the last reset: the
// inflated-count tests check that a decoder sizes no container from a
// count the input cannot hold. Every replaceable form is routed through
// malloc/free, so that no sanitizer sees mixed allocators.
std::atomic<size_t> largest_new{0};

void* TrackedAlloc(std::size_t size) noexcept {
  size_t seen = largest_new.load(std::memory_order_relaxed);
  while (size > seen && !largest_new.compare_exchange_weak(seen, size)) {
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = TrackedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}
// Not inlined, so that GCC does not pair a free() with a new-expression
// in a caller and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // HDOV_TESTS_LARGEST_ALLOC_H_
