#include "obs/trace.h"

#include <utility>

#include "obs/json.h"

namespace vp::obs {

void Tracer::Complete(uint64_t trace, ProcessorId proc, uint64_t ts_us,
                      uint64_t dur_us, std::string name, std::string cat,
                      Args args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'X';
  e.id = trace;
  e.proc = proc;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  Record(std::move(e));
}

void Tracer::AsyncBegin(uint64_t trace, ProcessorId proc, uint64_t ts_us,
                        std::string name, std::string cat, Args args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'b';
  e.id = trace;
  e.proc = proc;
  e.ts_us = ts_us;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  Record(std::move(e));
}

void Tracer::AsyncEnd(uint64_t trace, ProcessorId proc, uint64_t ts_us,
                      std::string name, std::string cat, Args args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'e';
  e.id = trace;
  e.proc = proc;
  e.ts_us = ts_us;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  Record(std::move(e));
}

void Tracer::Instant(uint64_t trace, ProcessorId proc, uint64_t ts_us,
                     std::string name, std::string cat, Args args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = 'i';
  e.id = trace;
  e.proc = proc;
  e.ts_us = ts_us;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.args = std::move(args);
  Record(std::move(e));
}

void Tracer::Record(TraceEvent e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

std::string Tracer::ToJson() const {
  JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.BeginArray("traceEvents");
  std::lock_guard<std::mutex> lock(mu_);
  for (const TraceEvent& e : events_) {
    w.BeginObject();
    w.Field("name", e.name);
    w.Field("cat", e.cat);
    w.Field("ph", std::string_view(&e.phase, 1));
    w.Field("ts", e.ts_us);
    if (e.phase == 'X') w.Field("dur", e.dur_us);
    w.Field("pid", static_cast<uint64_t>(e.proc));
    w.Field("tid", static_cast<uint64_t>(e.proc));
    if (e.phase == 'b' || e.phase == 'e') {
      // Async events pair by (cat, name, id); hex string per the format.
      char idbuf[24];
      std::snprintf(idbuf, sizeof(idbuf), "0x%llx",
                    static_cast<unsigned long long>(e.id));
      w.Field("id", idbuf);
    }
    if (!e.args.empty() || e.id != 0) {
      w.BeginObject("args");
      if (e.id != 0) w.Field("trace", e.id);
      for (const auto& [k, v] : e.args) w.Field(k, v);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Field("displayTimeUnit", "ms");
  w.EndObject();
  return w.TakeString();
}

bool Tracer::WriteFile(const std::string& path) const {
  std::string doc = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool wrote = n == doc.size();
  return (std::fclose(f) == 0) && wrote;
}

Tracer* Tracer::Disabled() {
  static Tracer* const global = new Tracer();
  return global;
}

}  // namespace vp::obs
