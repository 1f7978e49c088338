#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::spans {
namespace {

struct ThreadBuf {
  int thread = 0;
  int64_t next_seq = 0;  // never reset, so ids stay unique across drains
  std::vector<Span> spans;
  // Spans open on this thread, innermost last: id and group.
  std::vector<std::pair<int64_t, int64_t>> open;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu

ThreadBuf* LocalBuf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
    buf->thread = static_cast<int>(g_bufs.size()) - 1;
  }
  return buf;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(const char* name, int64_t group) {
  if (!Enabled()) return;
  ThreadBuf* buf = LocalBuf();
  buf_ = buf;
  index_ = buf->spans.size();
  Span s;
  s.name = name;
  s.id = (static_cast<int64_t>(buf->thread) << 40) | buf->next_seq++;
  s.parent = buf->open.empty() ? -1 : buf->open.back().first;
  // A span without its own group joins its parent's (a batch's layers
  // share the batch index).
  s.group = group >= 0 || buf->open.empty() ? group : buf->open.back().second;
  s.thread = buf->thread;
  buf->open.emplace_back(s.id, s.group);
  s.start_ns = NowNs();
  buf->spans.push_back(s);
}

Scope::~Scope() {
  if (buf_ == nullptr) return;
  auto* buf = static_cast<ThreadBuf*>(buf_);
  buf->spans[index_].end_ns = NowNs();
  buf->open.pop_back();
}

void Scope::set_group(int64_t group) {
  if (buf_ == nullptr) return;
  static_cast<ThreadBuf*>(buf_)->spans[index_].group = group;
}

std::vector<Span> Drain() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> out;
  for (auto& buf : g_bufs) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    buf->spans.clear();
  }
  return out;
}

std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans) {
  // Children of one span run on its thread and nest inside it, so they
  // never overlap each other: covered time is the sum of their durations.
  std::unordered_map<int64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    LayerTime& t = out[s.name];
    ++t.count;
    t.total_ms += ms;
    auto it = child_ms.find(s.id);
    t.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = INT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"group\":%lld}}",
                 i == 0 ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.group));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
