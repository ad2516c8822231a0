// wfdbench: the repo benchmark's load generator. One process per run:
//
//   wfdbench --workload fuzz-swarm|mc-scenario|serve-mixed --seed N
//            --seconds S --trace 0|1 --root DIR --serve-bin PATH
//            [--trace-out FILE] [--commit ID]
//
// Normally started by run.py, which builds it first. Prints the machine
// record, then one result line (report.hpp); exit 0 iff the run completed,
// whatever its correctness verdict. Usage errors exit 2, a workload that
// cannot run (daemon failed to start, missing inputs) exits 1.
#include <sys/utsname.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"

#ifndef WFDBENCH_BUILD_TYPE
#define WFDBENCH_BUILD_TYPE "unknown"
#endif

namespace wfdbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- Tracer -----------------------------------------------------------------

namespace {
thread_local std::uint32_t t_current_span = 0;
thread_local void* t_buffer = nullptr;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(4096);
    t_buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_buffer);
}

void Tracer::record(const SpanRecord& span) {
  Buffer& buffer = local();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::uint32_t Tracer::add(const char* name, double start_s, double end_s,
                          std::uint64_t request, std::uint32_t parent) {
  const std::uint32_t id = next_id();
  record({name, start_s * 1e6, end_s * 1e6, id, parent, request, 0});
  return id;
}

std::vector<SpanRecord> Tracer::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::map<std::string, Summary> out;
  for (const SpanRecord& s : all()) {
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_us += s.end_us - s.start_us;
  }
  return out;
}

Span::Span(const char* name, std::uint64_t request)
    : Span(name, request, t_current_span) {}

Span::Span(const char* name, std::uint64_t request, std::uint32_t parent)
    : name_(name), request_(request) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  id_ = tracer.next_id();
  parent_ = parent;
  saved_ = t_current_span;
  t_current_span = id_;
  start_us_ = now_s() * 1e6;
}

Span::~Span() {
  if (id_ == 0) return;
  const double end_us = now_s() * 1e6;
  t_current_span = saved_;
  Tracer::instance().record(
      {name_, start_us_, end_us, id_, parent_, request_, 0});
}

double mean_us(const std::map<std::string, Tracer::Summary>& summary,
               const std::string& name) {
  const auto it = summary.find(name);
  if (it == summary.end() || it->second.count == 0) return 0.0;
  return it->second.total_us / static_cast<double>(it->second.count);
}

// --- machine record ---------------------------------------------------------

std::string machine_json(const std::string& commit) {
  using wfd::util::Json;
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  utsname uts{};
  uname(&uts);
  Json machine = Json::object();
  machine.set("nproc", Json::of_u64(std::thread::hardware_concurrency()));
  machine.set("cpu", Json::of_string(cpu));
  machine.set("kernel", Json::of_string(uts.release));
  machine.set("compiler", Json::of_string(std::string("g++ ") + __VERSION__));
  machine.set("build_type", Json::of_string(WFDBENCH_BUILD_TYPE));
  machine.set("commit", Json::of_string(commit));
  return machine.dump();
}

bool write_trace(const std::string& path, const std::string& machine) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"machine\":" << machine << ",\"spans\":[";
  bool first = true;
  for (const SpanRecord& s : Tracer::instance().all()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"thread\":" << s.thread << '}';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace wfdbench

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "wfdbench: %s\n"
               "usage: wfdbench --workload fuzz-swarm|mc-scenario|serve-mixed "
               "--seed N --seconds S --trace 0|1 --root DIR --serve-bin PATH "
               "[--trace-out FILE] [--commit ID]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfdbench;
  Context ctx;
  std::string trace_out;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        ctx.workload = value;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        ctx.traced = value == "1";
      } else if (arg == "--root") {
        ctx.root = value;
      } else if (arg == "--serve-bin") {
        ctx.serve_bin = value;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else if (arg == "--commit") {
        commit = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (ctx.seconds <= 0 || ctx.seconds > 600) usage("--seconds must be in (0, 600]");
  if (ctx.root.empty()) usage("--root is required");

  const std::string machine = machine_json(commit);
  std::cout << "{\"machine\":" << machine << "}" << std::endl;

  Result result;
  try {
    if (ctx.workload == "fuzz-swarm") {
      result = run_fuzz_swarm(ctx);
    } else if (ctx.workload == "mc-scenario") {
      result = run_mc_scenario(ctx);
    } else if (ctx.workload == "serve-mixed") {
      if (ctx.serve_bin.empty()) usage("serve-mixed needs --serve-bin");
      result = run_serve_mixed(ctx);
    } else {
      usage("unknown workload \"" + ctx.workload + "\"");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wfdbench: %s: %s\n", ctx.workload.c_str(), e.what());
    return 1;
  }

  if (ctx.traced && !trace_out.empty() && !write_trace(trace_out, machine)) {
    std::fprintf(stderr, "wfdbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "wfdbench: %s attempted no operation\n",
                 ctx.workload.c_str());
    return 1;
  }
  std::cout << result_to_json(result, ctx.traced ? per_layer_metrics()
                                                 : end_to_end_metrics())
            << std::endl;
  return 0;
}
