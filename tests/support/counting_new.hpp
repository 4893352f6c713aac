// A counting replacement of the global operator new/delete, for the tests
// and benches that assert a path allocates nothing.
//
// Include it from exactly ONE translation unit per executable: it defines
// the replaceable global allocation functions, which a program may define
// only once. Only the unaligned forms are replaced; the aligned forms fall
// through to the standard library, which pairs them with its own deletes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace psl::test_support {

inline std::atomic<std::size_t> g_allocations{0};

/// Heap allocations made through the global operator new so far.
inline std::size_t allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace psl::test_support

// All six stay out of line. Inlined into a caller, a delete shows GCC a raw
// free() of memory the caller got from a (not inlined) operator new, which
// -Wmismatched-new-delete reports at every container destructor.
[[gnu::noinline]] void* operator new(std::size_t size) {
  psl::test_support::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
