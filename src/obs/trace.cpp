#include "obs/trace.hpp"

namespace dcpl::obs {

namespace {

constexpr int kWallPid = 1;
constexpr int kVirtualPid = 2;

void write_event(JsonWriter& w, const TraceEvent& e, int pid,
                 std::uint64_t ts, std::uint64_t dur) {
  w.begin_object();
  w.kv("name", e.name);
  w.kv("cat", e.category.empty() ? std::string("proto") : e.category);
  w.kv("ph", "X");
  w.kv("ts", ts);
  w.kv("dur", dur);
  w.kv("pid", pid);
  w.kv("tid", 1);
  w.key("args");
  w.begin_object();
  if (e.has_virtual) {
    w.kv("vts_us", e.vts_us);
    w.kv("vdur_us", e.vdur_us);
  }
  for (const auto& [k, v] : e.args) w.kv(k, v);
  w.end_object();
  w.end_object();
}

void write_process_name(JsonWriter& w, int pid, const char* name) {
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.kv("tid", 1);
  w.key("args");
  w.begin_object();
  w.kv("name", name);
  w.end_object();
  w.end_object();
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::wall_now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::write_chrome_json(JsonWriter& w) const {
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  write_process_name(w, kWallPid, "wall clock");
  bool any_virtual = false;
  for (const auto& e : events_) {
    write_event(w, e, kWallPid, e.ts_us, e.dur_us);
    any_virtual |= e.has_virtual;
  }
  if (any_virtual) {
    write_process_name(w, kVirtualPid, "virtual (simulated) time");
    for (const auto& e : events_) {
      if (e.has_virtual) write_event(w, e, kVirtualPid, e.vts_us, e.vdur_us);
    }
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
}

std::string Tracer::to_chrome_json() const {
  JsonWriter w;
  write_chrome_json(w);
  return w.take();
}

bool Tracer::write(const std::string& path) const {
  return write_file(path, to_chrome_json());
}

Tracer& global_tracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace dcpl::obs
