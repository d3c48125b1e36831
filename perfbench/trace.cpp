#include <cstdio>

#include "bench.hpp"

namespace perfbench {

void Tracer::begin(const char* name, std::uint64_t id) {
  Open o{name, id, now_ns(), 0, -1, -1};
  if (!stack_.empty()) o.parent = stack_.back().kept;
  if (kept_.size() < keep_limit_) {
    o.kept = static_cast<std::int64_t>(kept_.size());
    kept_.push_back({name, id, o.start, 0, o.parent});
  }
  stack_.push_back(o);
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start;
  Total& total = totals_[o.name];
  total.self_ns += static_cast<double>(dur - o.child_ns);
  ++total.count;
  if (o.kept >= 0) kept_[static_cast<std::size_t>(o.kept)].end = t;
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

double Tracer::self_ns(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.self_ns;
}

std::size_t Tracer::count(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.count;
}

bool Tracer::flush(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().start;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"id\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0),
                 static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
