// trace.hpp — in-memory span recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent, run id). Spans are opened around
// calls into stordep's public functions from the benchmark's own code; the
// library itself is not instrumented. Parents are tracked per thread, so a
// span opened while another is open on the same thread is its child; an
// interval recorded from another thread names its parent explicitly. Everything stays in
// memory until write(), which the benchmark calls once at exit.
//
// A disabled Tracer records nothing and costs one branch per span, which
// is how the benchmark times the same code traced and untraced.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint32_t name = 0;    ///< index into names()
    std::int64_t startNs = 0;  ///< steady_clock, relative to the tracer epoch
    std::int64_t endNs = 0;
  };

  /// Per-name totals derived from the spans.
  struct NameStats {
    std::uint64_t count = 0;
    double totalSeconds = 0.0;
    /// Duration minus the part of it covered by child spans.
    double selfSeconds = 0.0;
    [[nodiscard]] double meanSeconds() const noexcept {
      return count == 0 ? 0.0 : totalSeconds / static_cast<double>(count);
    }
  };

  /// RAII span: opened on construction, closed on destruction (or end()).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint32_t parent);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void end();
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    std::uint32_t name_ = 0;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::uint32_t savedCurrent_ = 0;
    std::int64_t startNs_ = 0;
  };

  Tracer(bool enabled, std::string runId);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a child of the span currently open on this thread.
  [[nodiscard]] Scope span(const char* name) { return Scope(this, name, kAuto); }
  /// Records an already-measured interval under an explicit parent (work
  /// on another thread).
  void record(const char* name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, std::uint32_t parent);

  /// Per-name count, total and self time over every span recorded so far.
  [[nodiscard]] std::map<std::string, NameStats> summarize() const;
  /// Self time summed per layer (the name's prefix before the first '.').
  [[nodiscard]] std::map<std::string, double> selfSecondsByLayer() const;
  [[nodiscard]] std::size_t spanCount() const;

  /// Writes every span as CSV (run,id,parent,name,start_ns,end_ns).
  /// Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  static constexpr std::uint32_t kAuto = UINT32_MAX;

  [[nodiscard]] std::int64_t nowNs() const noexcept;
  std::uint32_t intern(const char* name);
  std::uint32_t nextId();
  void push(const Span& span);

  bool enabled_;
  std::string runId_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  ///< guards everything below
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> nameIndex_;
  std::uint32_t lastId_ = 0;
};

}  // namespace perfbench
