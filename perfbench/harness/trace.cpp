#include "trace.hpp"

#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

thread_local std::uint32_t t_open_span = Tracer::kNoParent;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Record record;
  record.name = name;
  record.parent = t_open_span;
  record.thread = thread_number();
  record.start_ns = tracer_->now_ns();
  {
    const std::lock_guard lock(tracer_->mutex_);
    index_ = static_cast<std::uint32_t>(tracer_->records_.size());
    tracer_->records_.push_back(record);
  }
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->now_ns();
  {
    const std::lock_guard lock(tracer_->mutex_);
    tracer_->records_[index_].end_ns = end;
  }
  t_open_span = saved_parent_;
}

std::vector<Tracer::Record> Tracer::records() const {
  const std::lock_guard lock(mutex_);
  return records_;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  const std::lock_guard lock(mutex_);
  for (const Record& r : records_) {
    if (r.end_ns >= 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Record> spans = records();
  std::ofstream out(path);
  out.setf(std::ios::fixed);
  out.precision(3);  // ts and dur are microseconds: keep nanoseconds
  out << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& r = spans[i];
    if (r.end_ns < 0) continue;
    out << (first ? "\n" : ",\n") << "{\"name\": \"" << r.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.thread
        << ", \"ts\": " << static_cast<double>(r.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": "
        << (r.parent == kNoParent ? -1 : static_cast<std::int64_t>(r.parent))
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
