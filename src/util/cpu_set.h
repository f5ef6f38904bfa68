// CpuSet: a fixed-capacity bitmask of logical CPU ids.
//
// This is the currency of CPU blind isolation: the idle-core "syscall"
// returns one, and job-object affinity is set from one. Supports up to
// kMaxCpus logical CPUs (the paper's machines have 48; we leave headroom).
#ifndef PERFISO_SRC_UTIL_CPU_SET_H_
#define PERFISO_SRC_UTIL_CPU_SET_H_

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>

namespace perfiso {

class CpuSet {
 public:
  static constexpr int kMaxCpus = 256;
  static constexpr int kWords = kMaxCpus / 64;

  // Empty set.
  constexpr CpuSet() : words_{} {}

  // Set containing CPUs [0, n).
  static CpuSet FirstN(int n);

  // Set containing CPUs [begin, end).
  static CpuSet Range(int begin, int end);

  // Set containing exactly `cpu`.
  static CpuSet Single(int cpu);

  // Set built from the low 64 bits (convenient for <=64-core machines).
  static CpuSet FromMask64(uint64_t mask);

  // The accessors below run on every scheduling decision, so they stay
  // inline and work a 64-bit word at a time.
  void Set(int cpu) {
    assert(cpu >= 0 && cpu < kMaxCpus);
    words_[cpu / 64] |= uint64_t{1} << (cpu % 64);
  }
  void Clear(int cpu) {
    assert(cpu >= 0 && cpu < kMaxCpus);
    words_[cpu / 64] &= ~(uint64_t{1} << (cpu % 64));
  }
  bool Test(int cpu) const {
    if (cpu < 0 || cpu >= kMaxCpus) {
      return false;
    }
    return (words_[cpu / 64] >> (cpu % 64)) & 1;
  }

  // Number of CPUs in the set.
  int Count() const {
    int count = 0;
    for (uint64_t word : words_) {
      count += std::popcount(word);
    }
    return count;
  }
  bool Empty() const {
    for (uint64_t word : words_) {
      if (word != 0) {
        return false;
      }
    }
    return true;
  }

  // Lowest / highest set CPU id, or -1 if empty.
  int Lowest() const { return NextAfter(-1); }
  int Highest() const;

  // Lowest set CPU id strictly greater than `cpu` (any cpu < 0 scans from
  // 0), or -1.
  int NextAfter(int cpu) const {
    const int from = cpu < 0 ? 0 : cpu + 1;
    if (from >= kMaxCpus) {
      return -1;
    }
    int w = from / 64;
    uint64_t word = words_[w] & (~uint64_t{0} << (from % 64));
    while (word == 0) {
      if (++w == kWords) {
        return -1;
      }
      word = words_[w];
    }
    return w * 64 + std::countr_zero(word);
  }

  CpuSet operator|(const CpuSet& other) const {
    CpuSet out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = words_[w] | other.words_[w];
    }
    return out;
  }
  CpuSet operator&(const CpuSet& other) const {
    CpuSet out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = words_[w] & other.words_[w];
    }
    return out;
  }
  // Complement over [0, kMaxCpus).
  CpuSet operator~() const {
    CpuSet out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = ~words_[w];
    }
    return out;
  }
  CpuSet Minus(const CpuSet& other) const {
    CpuSet out;
    for (int w = 0; w < kWords; ++w) {
      out.words_[w] = words_[w] & ~other.words_[w];
    }
    return out;
  }

  bool operator==(const CpuSet& other) const { return words_ == other.words_; }
  bool operator!=(const CpuSet& other) const { return !(*this == other); }

  // Low 64 bits, for machines with <= 64 logical CPUs.
  uint64_t Mask64() const { return words_[0]; }

  // Human-readable form, e.g. "0-3,8,10-11" ("(empty)" when empty).
  std::string ToString() const;

 private:
  std::array<uint64_t, kWords> words_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_CPU_SET_H_
