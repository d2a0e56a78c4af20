// Allocation counter for the zero-allocation tests.
//
// A suite that links tests/support/counting_allocator.cpp runs with the
// global allocation functions replaced by counting wrappers over malloc/free
// (see the CMake test loop). The replacements live in their own translation
// unit on purpose: the suites never see their bodies, so no new/delete pair
// is inlined into a call site where the compiler could mistake the
// malloc-backed delete for a mismatched deallocation.
#pragma once

#include <cstddef>

namespace ftspan::test {

/// Number of global operator new / new[] calls since program start.
std::size_t allocation_count();

}  // namespace ftspan::test
