// PERF-002 fixture: std::function in a per-event directory. The #include
// below, this comment's std::function and the string are decoys.
#include <functional>

namespace fixture {

struct Flow {
  std::function<void(long)> on_delivered;
};

using SinkFn = std::function<void(Flow*, long)>;
inline const char* kDecoy = "std::function<void()>";

// A function named `function` outside namespace std stays quiet.
inline int function(int x) { return x; }

// Suppressed with rationale.
using LegacyFn = std::function<void()>;  // NOLINT(perfiso-PERF-002) fixture

}  // namespace fixture
