#include "trace.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {
thread_local std::uint32_t t_current_span = 0;
}  // namespace

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Tracer::write_json(const std::filesystem::path& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path.string());
  out << "{\"dropped\": " << dropped() << ", \"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.id = tracer_.next_id();
  span_.parent = t_current_span;
  span_.name = name;
  span_.request = request;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  t_current_span = saved_parent_;
  tracer_.record(std::move(span_));
}

}  // namespace perfbench
