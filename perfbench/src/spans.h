// In-memory span recorder for the traced run. The benchmark opens a
// span around each call it makes into a layer of the program (forward,
// backward, Adam step, ServingEngine::Handle, Router calls, swaps, ...),
// so layer time is measured from outside the program.
//
// Each span records name, start, end, its parent (the span open on the
// same thread when it started) and a group id (a request's
// Response::trace_id, or a training batch index). Spans live in
// per-thread buffers until the run ends; recording is off unless
// SetEnabled(true), and then costs two clock reads and a vector append.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::spans {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t group = -1;
  int thread = 0;
};

void SetEnabled(bool on);
bool Enabled();

int64_t NowNs();

// RAII span. `name` must be a string literal. A span opened with no
// group (-1) takes the group of the span enclosing it.
class Scope {
 public:
  explicit Scope(const char* name, int64_t group = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_group(int64_t group);

 private:
  void* buf_ = nullptr;
  size_t index_ = 0;
};

// Moves every buffered span out (all threads; call when no recording
// thread is running) and empties the buffers.
std::vector<Span> Drain();

struct LayerTime {
  int64_t count = 0;
  double total_ms = 0.0;
  // Span time minus the part covered by its child spans.
  double self_ms = 0.0;
};
// Per span name: count, summed duration and summed self time.
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans);

// chrome://tracing JSON (complete events; parent and group in args).
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench::spans

#endif  // PERFBENCH_SPANS_H_
