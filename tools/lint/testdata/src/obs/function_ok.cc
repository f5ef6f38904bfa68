// PERF-002 scope fixture: cold-path code outside the per-event directories
// (metric probes, log sinks, trace clients) may keep std::function.
#include <functional>

namespace fixture {

struct Registry {
  std::function<double()> probe;
};

}  // namespace fixture
