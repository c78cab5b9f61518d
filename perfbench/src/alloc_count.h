#pragma once

#include <cstdint>

namespace perfbench {

// Heap allocations made by this process so far (every operator new).
std::uint64_t alloc_count();

}  // namespace perfbench
