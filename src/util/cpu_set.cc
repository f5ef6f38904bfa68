#include "src/util/cpu_set.h"

#include <bit>
#include <cassert>

namespace perfiso {

CpuSet CpuSet::FirstN(int n) { return Range(0, n); }

CpuSet CpuSet::Range(int begin, int end) {
  assert(begin >= 0 && end <= kMaxCpus && begin <= end);
  CpuSet set;
  for (int cpu = begin; cpu < end; ++cpu) {
    set.Set(cpu);
  }
  return set;
}

CpuSet CpuSet::Single(int cpu) {
  CpuSet set;
  set.Set(cpu);
  return set;
}

CpuSet CpuSet::FromMask64(uint64_t mask) {
  CpuSet set;
  set.words_[0] = mask;
  return set;
}

int CpuSet::Highest() const {
  for (int w = kWords - 1; w >= 0; --w) {
    if (words_[w] != 0) {
      return w * 64 + 63 - std::countl_zero(words_[w]);
    }
  }
  return -1;
}

std::string CpuSet::ToString() const {
  if (Empty()) {
    return "(empty)";
  }
  std::string out;
  int run_start = -1;
  int prev = -2;
  auto flush = [&](int run_end) {
    if (run_start < 0) {
      return;
    }
    if (!out.empty()) {
      out += ",";
    }
    out += std::to_string(run_start);
    if (run_end > run_start) {
      out += "-" + std::to_string(run_end);
    }
  };
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    if (!Test(cpu)) {
      continue;
    }
    if (cpu != prev + 1) {
      flush(prev);
      run_start = cpu;
    }
    prev = cpu;
  }
  flush(prev);
  return out;
}

}  // namespace perfiso
