#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {
/// The span currently open on this thread (0 = none).
thread_local std::uint32_t tlsCurrent = 0;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint32_t parent)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    name_ = tracer_->intern(name);
    id_ = tracer_->nextId();
  }
  parent_ = parent == kAuto ? tlsCurrent : parent;
  savedCurrent_ = tlsCurrent;
  tlsCurrent = id_;
  startNs_ = tracer_->nowNs();
}

void Tracer::Scope::end() {
  if (tracer_ == nullptr) return;
  const std::int64_t endNs = tracer_->nowNs();
  tlsCurrent = savedCurrent_;
  tracer_->push(Span{id_, parent_, name_, startNs_, endNs});
  tracer_ = nullptr;
}

Tracer::Tracer(bool enabled, std::string runId)
    : enabled_(enabled),
      runId_(std::move(runId)),
      epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::nowNs() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::intern(const char* name) {
  const auto it = nameIndex_.find(name);
  if (it != nameIndex_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  nameIndex_.emplace(name, index);
  return index;
}

std::uint32_t Tracer::nextId() { return ++lastId_; }

void Tracer::push(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::record(const char* name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end,
                    std::uint32_t parent) {
  if (!enabled_) return;
  const auto rel = [this](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{nextId(), parent, intern(name), rel(start), rel(end)});
}

std::size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::NameStats> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children grouped by parent id, as (start, end) intervals.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.startNs, s.endNs);
  }
  std::map<std::string, NameStats> out;
  for (const Span& s : spans_) {
    const std::int64_t duration = s.endNs - s.startNs;
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      // Union of the children's intervals, clipped to this span, so
      // concurrent children are not double-counted.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t curStart = 0;
      std::int64_t curEnd = -1;
      for (const auto& [a0, b0] : intervals) {
        const std::int64_t a = std::max(a0, s.startNs);
        const std::int64_t b = std::min(b0, s.endNs);
        if (b <= a) continue;
        if (a > curEnd) {
          if (curEnd > curStart) covered += curEnd - curStart;
          curStart = a;
          curEnd = b;
        } else {
          curEnd = std::max(curEnd, b);
        }
      }
      if (curEnd > curStart) covered += curEnd - curStart;
    }
    NameStats& stats = out[names_[s.name]];
    stats.count += 1;
    stats.totalSeconds += static_cast<double>(duration) * 1e-9;
    stats.selfSeconds += static_cast<double>(duration - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::map<std::string, double> out;
  for (const auto& [name, stats] : summarize()) {
    out[name.substr(0, name.find('.'))] += stats.selfSeconds;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  std::lock_guard<std::mutex> lock(mu_);
  file << "run,id,parent,name,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    file << runId_ << ',' << s.id << ',' << s.parent << ',' << names_[s.name]
         << ',' << s.startNs << ',' << s.endNs << '\n';
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench
