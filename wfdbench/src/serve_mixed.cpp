// serve-mixed: the daemon as a service. Spawns the built wfd_serve with its
// defaults (2 workers, queue 16, cache 256) on an ephemeral loopback TCP
// port and drives an open loop at one fixed rate over four connections, the
// client side with TCP_NODELAY so the client's own Nagle delay is not
// measured. Four, not two: the daemon's replies wait for the client's next
// packet (see README.md), so latency is quantized by the gap between
// requests on a connection. At two connections that gap (25 ms) falls
// inside the campaign execute times, and p99 flipped between one gap and
// two from run to run. At four the gap (50 ms) is longer than the client's
// ~40 ms delayed-ACK timer and nearly every execute time, so replies wait
// for that timer instead and p99 holds still.
// The request mix is drawn from the seed:
//
//  * run submits of config_to_json(sample_config(seed, i, legal)) (misses);
//  * repeats of an earlier miss whose result is surely cached by then (due
//    0.5 to 2 s before, well inside the cache's FIFO window) (~30%, hits);
//  * scenario submits: tests/vectors scenarios with a fresh seed (~12%);
//  * campaign submits with runs = 8 over the legal pool (~3%).
//
// Admission, cache, queue and transport dominate; the simulator does little
// and mc nothing. Every request is timed from its due time.
//
// Checks (after the window, daemon stopped): every response is a result
// whose payload is byte-identical to serve::execute_request on the same
// request, and the daemon's serve.cache.hits equals the number of repeats.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "fuzz/config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "serve/serve.hpp"
#include "stats.hpp"
#include "util/json.hpp"

namespace wfdbench {
namespace {

namespace fuzz = wfd::fuzz;
namespace serve = wfd::serve;
using wfd::util::Json;

constexpr double kRatePerS = 80.0;        ///< open-loop arrival rate
constexpr int kConnections = 4;
constexpr double kGoodputLimitS = 0.2;    ///< latency limit for goodput
constexpr double kReadyTimeoutS = 10.0;
constexpr double kDrainTimeoutS = 20.0;   ///< outstanding results after window
constexpr int kSetupRepeats = 7;
constexpr int kExecuteThreads = 2;        ///< the daemon's worker count

// The conformance vectors the scenario submits are drawn from, by name, so
// a vector added later does not change this workload.
const char* const kVectors[] = {
    "v01_exclusive_clean",          "v02_mistake_prefix",
    "v03_crash_regime",             "v04_broken_single_instance",
    "v05_broken_fork_based",        "v06_composed_pairs",
    "v07_dining_ring",              "v08_dining_partial_synchrony",
    "v09_pausing_mistakes",         "v10_duplication_benign",
    "v11_permanent_partition",      "v12_heavy_loss_extraction",
    "v13_transient_partition_still_fatal",
    "v14_transient_partition_healed",
};

enum Kind { kRun = 0, kScenario = 1, kCampaign = 2 };
const char* const kKindNames[] = {"run", "scenario", "campaign"};

// --- daemon lifecycle -------------------------------------------------------

/// On a box with at least 4 CPUs the generator keeps CPU 0 to itself and
/// the daemon gets the rest, so a busy worker cannot delay a send.
void pin_to(bool generator) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (generator) {
    CPU_SET(0, &set);
  } else {
    for (int c = 1; c < cpus; ++c) CPU_SET(c, &set);
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

/// One wfd_serve child. The destructor always stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it, so no exit path leaves a
/// daemon behind; PR_SET_PDEATHSIG covers this process dying first.
class Daemon {
 public:
  Daemon(const std::string& bin, double timeout_s) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(out[0]);
      ::close(out[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(126);
      pin_to(false);
      ::dup2(out[1], STDOUT_FILENO);
      const char* argv[] = {bin.c_str(), "--tcp", "0", "--quiet", nullptr};
      ::execv(bin.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
    std::string error;
    if (!read_ready(timeout_s, &error)) {
      stop();
      throw std::runtime_error("wfd_serve did not start: " + error);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// Peak resident set (VmHWM), MB.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    return 0.0;
  }
  /// User + system CPU seconds so far.
  double cpu_s() const {
    std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    const auto close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14 || i == 15) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  void stop() {
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const double deadline = now_s() + 10.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }

 private:
  bool read_ready(double timeout_s, std::string* error) {
    const double deadline = now_s() + timeout_s;
    std::string buffer;
    while (buffer.find('\n') == std::string::npos) {
      const double left = deadline - now_s();
      if (left <= 0) {
        *error = "no ready line within " + std::to_string(timeout_s) + " s";
        return false;
      }
      pollfd p{stdout_fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, static_cast<int>(left * 1e3) + 1);
      if (ready < 0 && errno != EINTR) {
        *error = std::strerror(errno);
        return false;
      }
      if (ready <= 0) continue;
      char chunk[512];
      const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
      if (n == 0) {
        *error = "exited before it was ready";
        return false;
      }
      if (n > 0) buffer.append(chunk, static_cast<std::size_t>(n));
    }
    Json doc;
    std::string parse_error;
    if (!Json::parse(buffer.substr(0, buffer.find('\n')), &doc, &parse_error) ||
        doc.find("type") == nullptr ||
        doc.find("type")->as_string("") != "ready" ||
        doc.find("tcp_port") == nullptr) {
      *error = "unexpected first line: " + buffer;
      return false;
    }
    port_ = static_cast<int>(doc.find("tcp_port")->as_u64());
    return port_ > 0;
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = -1;
};

/// A loopback TCP connection with TCP_NODELAY; closed on destruction.
struct Connection {
  int fd = -1;
  std::string inbox;  ///< bytes received, not yet a full line

  explicit Connection(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw std::runtime_error(std::string("connect failed: ") +
                               std::strerror(errno));
    }
  }
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to wfd_serve failed");
      off += static_cast<std::size_t>(n);
    }
  }
  /// Read what is available; false on EOF or error.
  bool pump() {
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    inbox.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  bool next_line(std::string* line) {
    const auto nl = inbox.find('\n');
    if (nl == std::string::npos) return false;
    *line = inbox.substr(0, nl);
    inbox.erase(0, nl + 1);
    return true;
  }
};

// --- request mix ------------------------------------------------------------

struct Request {
  Kind kind = kRun;
  bool repeat = false;
  std::size_t original = 0;  ///< self for originals
  std::string body;          ///< submit fields after the tag
};

std::string submit_line(const Request& request, std::size_t index) {
  return "{\"type\":\"submit\",\"tag\":\"r" + std::to_string(index) + "\"," +
         request.body + "}";
}

std::vector<Request> make_requests(const Context& ctx, std::size_t count) {
  std::vector<Json> vectors;
  for (const char* name : kVectors) {
    const std::string path =
        ctx.root + "/tests/vectors/" + name + ".scenario.json";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("missing input " + path);
    std::stringstream text;
    text << in.rdbuf();
    Json doc;
    std::string error;
    if (!Json::parse(text.str(), &doc, &error)) {
      throw std::runtime_error(path + ": " + error);
    }
    vectors.push_back(std::move(doc));
  }
  const std::vector<fuzz::TargetKind> legal = fuzz::legal_targets();
  const std::uint64_t stream = mix(ctx.seed ^ 0x73657276652d6d78ull);
  const auto window = static_cast<std::size_t>(kRatePerS * 0.5);
  const auto reach = static_cast<std::size_t>(kRatePerS * 2.0);

  // Every block of 100 requests holds exactly 55 runs, 12 scenarios, 3
  // campaigns and 30 repeats in a seeded order, and scenarios cycle through
  // the vectors in a seeded order: the seed changes the inputs, not the mix.
  enum Slot { kSlotRun, kSlotScenario, kSlotCampaign, kSlotRepeat };
  std::uint64_t shuffle = mix(stream);
  const auto below = [&](std::size_t n) {
    shuffle = mix(shuffle);
    return static_cast<std::size_t>(shuffle % n);
  };
  std::vector<Slot> slots;
  while (slots.size() < count) {
    std::vector<Slot> block(100, kSlotRun);
    std::fill(block.begin() + 55, block.begin() + 67, kSlotScenario);
    std::fill(block.begin() + 67, block.begin() + 70, kSlotCampaign);
    std::fill(block.begin() + 70, block.end(), kSlotRepeat);
    for (std::size_t k = block.size(); k > 1; --k) std::swap(block[k - 1], block[below(k)]);
    slots.insert(slots.end(), block.begin(), block.end());
  }
  std::vector<std::size_t> vector_order(vectors.size());
  for (std::size_t k = 0; k < vector_order.size(); ++k) vector_order[k] = k;
  for (std::size_t k = vector_order.size(); k > 1; --k) {
    std::swap(vector_order[k - 1], vector_order[below(k)]);
  }
  std::size_t scenarios = 0;

  std::vector<Request> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t state = mix(stream + i);
    const auto next = [&] { return state = mix(state); };
    Request& r = requests[i];
    r.original = i;
    if (slots[i] == kSlotRepeat) {
      // Repeat an original due 0.5..2 s earlier: finished and still cached.
      // (None exists in the first 0.5 s; those slots become runs.)
      std::vector<std::size_t> originals;
      for (std::size_t j = i >= reach ? i - reach : 0; j + window <= i; ++j) {
        if (!requests[j].repeat) originals.push_back(j);
      }
      if (!originals.empty()) {
        const std::size_t j = originals[next() % originals.size()];
        r = requests[j];
        r.repeat = true;
        r.original = j;
        continue;
      }
    }
    if (slots[i] == kSlotScenario) {
      Json doc = vectors[vector_order[scenarios++ % vectors.size()]];
      const std::uint64_t seed = 1 + next() % (1ull << 31);
      doc.set("seed", Json::of_u64(seed));
      for (auto& [key, expect] : doc.members) {
        if (key != "expect") continue;
        for (auto& [engine, spec] : expect.members) {
          if (engine == "fuzz" && spec.find("seeds") != nullptr) {
            Json seeds = Json::array();
            for (std::uint64_t k = 0; k < 3; ++k) seeds.push(Json::of_u64(seed + k));
            spec.set("seeds", std::move(seeds));
          }
        }
      }
      r.kind = kScenario;
      r.body = "\"kind\":\"scenario\",\"scenario\":" + doc.dump();
    } else if (slots[i] == kSlotCampaign) {
      r.kind = kCampaign;
      r.body = "\"kind\":\"campaign\",\"runs\":8,\"master_seed\":" +
               std::to_string(1 + next() % (1ull << 40));
    } else {
      r.kind = kRun;
      const fuzz::FuzzConfig config = fuzz::sample_config(stream, i, legal);
      std::string text;
      {
        Span s("util.json_write", i);
        text = fuzz::config_to_json(config, 0);
      }
      // config_to_json writes one field per line; a submit is one line.
      Json doc;
      std::string error;
      if (!Json::parse(text, &doc, &error)) {
        throw std::runtime_error("config_to_json output unparsable: " + error);
      }
      r.body = "\"kind\":\"run\",\"config\":" + doc.dump();
    }
  }
  return requests;
}

// --- open loop ----------------------------------------------------------------

struct Record {
  double sent = -1, accepted = -1, first_progress = -1, done = -1;
  bool ok = false;       ///< a result line arrived (else rejected / none)
  std::string payload;
};

std::string payload_of(const std::string& line) {
  const std::string key = "\"payload\":";
  const auto at = line.find(key);
  if (at == std::string::npos || line.empty() || line.back() != '}') return {};
  return line.substr(at + key.size(), line.size() - 1 - at - key.size());
}

struct LoopStats {
  std::uint64_t stray_lines = 0;  ///< unparsable, or untagged (error lines)
  std::uint64_t queue_depth_max = 0;
  std::uint64_t accepted_after_result = 0;
  double trace_cost_s = 0;
};

const std::string& str_field(const Json& doc, const char* key) {
  static const std::string empty;
  const Json* v = doc.find(key);
  return v == nullptr ? empty : v->as_string(empty);
}

}  // namespace

Result run_serve_mixed(const Context& ctx) {
  const auto count =
      static_cast<std::size_t>(std::ceil(kRatePerS * ctx.seconds));
  Tracer& tracer = Tracer::instance();
  if (ctx.traced) tracer.enable();
  const std::vector<Request> requests = make_requests(ctx, count);
  tracer.disable();

  // Set-up: spawn -> ready line -> both connections up, repeated; the last
  // daemon serves the window.
  std::vector<double> setup_s, spawn_ms, connect_ms;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> conns;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    conns.clear();
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(ctx.serve_bin, kReadyTimeoutS);
    const double t1 = now_s();
    for (int c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<Connection>(daemon->port()));
    }
    const double t2 = now_s();
    setup_s.push_back(t2 - t0);
    spawn_ms.push_back((t1 - t0) * 1e3);
    connect_ms.push_back((t2 - t1) * 1e3 / kConnections);
  }

  cpu_set_t all_cpus;
  ::sched_getaffinity(0, sizeof all_cpus, &all_cpus);
  pin_to(true);
  // Open loop: request i is due at start + i / rate on connection i % 4.
  std::vector<Record> records(count);
  std::unordered_map<std::uint64_t, std::size_t> job_request;  ///< job id -> i
  LoopStats stats;
  const double cpu0 = daemon->cpu_s();
  const double start = now_s() + 0.05;
  OpenLoop loop(start, kRatePerS, count);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  const double schedule_end = loop.due(count - 1);
  if (ctx.traced) tracer.enable();
  for (;;) {
    double now = now_s();
    if (next < count && now >= loop.due(next)) {
      conns[next % kConnections]->send_line(submit_line(requests[next], next));
      records[next].sent = now_s();
      loop.on_send(next, records[next].sent);
      ++next;
      ++outstanding;
      continue;
    }
    if (next >= count &&
        (outstanding == 0 || now > schedule_end + kDrainTimeoutS)) {
      break;
    }
    const double wake = next < count ? loop.due(next) : schedule_end + kDrainTimeoutS;
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) fds[c] = {conns[c]->fd, POLLIN, 0};
    const double wait_s = std::max(0.0, wake - now);
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    const int ready = ::ppoll(fds, kConnections, &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (ready <= 0) continue;
    now = now_s();
    for (int c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!conns[c]->pump()) throw std::runtime_error("wfd_serve closed a connection");
      std::string line;
      while (conns[c]->next_line(&line)) {
        Json doc;
        std::string error;
        if (!Json::parse(line, &doc, &error)) {
          if (stats.stray_lines++ == 0) {
            std::fprintf(stderr, "serve-mixed: unparsable line: %.300s\n",
                         line.c_str());
          }
          continue;
        }
        const std::string& type = str_field(doc, "type");
        if (type == "progress") {
          const auto job = job_request.find(doc.find("job") ? doc.find("job")->as_u64() : 0);
          if (job != job_request.end() && records[job->second].first_progress < 0) {
            records[job->second].first_progress = now;
          }
          continue;
        }
        const std::string& tag = str_field(doc, "tag");
        const std::size_t idx =
            tag.size() > 1 ? std::strtoull(tag.c_str() + 1, nullptr, 10) : count;
        if (idx < count && type == "accepted" && records[idx].accepted < 0) {
          // The daemon writes `accepted` after queueing the job, so a fast
          // worker's `result` can overtake it on the wire.
          records[idx].accepted = now;
          if (records[idx].done >= 0) ++stats.accepted_after_result;
          if (const Json* job = doc.find("job")) job_request[job->as_u64()] = idx;
          if (const Json* depth = doc.find("queue_depth")) {
            stats.queue_depth_max = std::max(stats.queue_depth_max, depth->as_u64());
          }
          continue;
        }
        if (idx >= count || records[idx].done >= 0) {
          if (stats.stray_lines++ == 0) {
            std::fprintf(stderr, "serve-mixed: unexpected line: %.300s\n",
                         line.c_str());
          }
          continue;
        }
        Record& r = records[idx];
        r.done = now;
        --outstanding;
        if (type == "result") {
          r.ok = true;
          r.payload = payload_of(line);
        }
        if (tracer.enabled()) {
          const double t0 = now_s();
          const std::uint32_t root = tracer.add("serve.request", loop.due(idx), r.done, idx);
          tracer.add("serve.send_late", loop.due(idx), r.sent, idx, root);
          if (r.accepted >= 0) {
            tracer.add("serve.accept", r.sent, r.accepted, idx, root);
            tracer.add("serve.result_wait", r.accepted, r.done, idx, root);
          }
          stats.trace_cost_s += now_s() - t0;
        }
      }
    }
  }
  tracer.disable();
  ::sched_setaffinity(0, sizeof all_cpus, &all_cpus);
  // Goodput's denominator: first due time to the last response.
  double last_done = start;
  for (const Record& r : records) last_done = std::max(last_done, r.done);
  const double window_s = last_done - start;

  // Registry after the window: cache hits and rejections.
  conns[0]->send_line("{\"type\":\"stats\"}");
  Json registry;
  for (const double deadline = now_s() + 5.0; registry.kind == Json::Kind::kNull;) {
    std::string line;
    if (!conns[0]->next_line(&line)) {
      pollfd p{conns[0]->fd, POLLIN, 0};
      if (now_s() > deadline) throw std::runtime_error("no stats reply from wfd_serve");
      if (::poll(&p, 1, 100) > 0 && !conns[0]->pump()) {
        throw std::runtime_error("wfd_serve closed the stats connection");
      }
      continue;
    }
    Json doc;
    std::string error;
    if (Json::parse(line, &doc, &error) && str_field(doc, "type") == "stats" &&
        doc.find("registry") != nullptr) {
      registry = *doc.find("registry");
    }
  }
  const auto counter = [&](const char* name) {
    const Json* v = registry.find(name);
    return v == nullptr ? 0.0 : v->as_double();
  };
  const double daemon_cpu_s = daemon->cpu_s() - cpu0;
  const double daemon_rss = daemon->peak_rss_mb();
  conns.clear();
  daemon.reset();

  // Reference payloads, computed directly on the same requests.
  std::vector<std::string> reference(count);
  std::vector<double> execute_ms(count, -1.0);
  std::vector<double> steps(count, 0.0), messages(count, 0.0);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> invalid{0};
  if (ctx.traced) tracer.enable();
  const auto execute_worker = [&] {
    for (std::size_t i = cursor.fetch_add(1); i < count; i = cursor.fetch_add(1)) {
      if (requests[i].repeat) continue;
      const std::string line = submit_line(requests[i], i);
      Json doc;
      serve::Request parsed;
      std::string error;
      bool ok;
      {
        Span s("util.json_parse", i);
        ok = Json::parse(line, &doc, &error);
      }
      {
        Span s("serve.parse_submit", i);
        ok = ok && serve::parse_submit(doc, &parsed, &error);
      }
      if (!ok) {
        std::fprintf(stderr, "serve-mixed: request %zu invalid: %s\n", i,
                     error.c_str());
        ++invalid;
        continue;
      }
      {
        Span s("serve.cache_key", i);
        (void)serve::cache_key(parsed);
      }
      const double t0 = now_s();
      {
        Span s("serve.execute", i);
        reference[i] = serve::execute_request(parsed, serve::ExecuteHooks{});
      }
      execute_ms[i] = (now_s() - t0) * 1e3;
      if (tracer.enabled() && parsed.kind == serve::JobKind::kRun) {
        // The run path once more, split at the simulator boundary.
        const fuzz::FuzzConfig config = fuzz::normalize(parsed.config);
        std::unique_ptr<fuzz::ConfigRun> run;
        {
          Span s("fuzz.rig_build", i);
          run = std::make_unique<fuzz::ConfigRun>(config);
        }
        {
          Span s("sim.run", i);
          run->advance_to(config.steps);
        }
        const fuzz::RunResult graded = run->grade(config);
        steps[i] = static_cast<double>(graded.stats.steps);
        messages[i] = static_cast<double>(graded.stats.messages_sent);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kExecuteThreads; ++t) pool.emplace_back(execute_worker);
  for (std::thread& t : pool) t.join();
  tracer.disable();

  // Checks.
  std::uint64_t failed = invalid.load() + stats.stray_lines;
  std::uint64_t repeats = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Record& r = records[i];
    if (requests[i].repeat) ++repeats;
    const std::string& want = reference[requests[i].original];
    const char* problem = !r.ok ? (r.done < 0 ? "no reply" : "refused")
                          : r.payload != want ? "payload differs from execute_request"
                                              : nullptr;
    if (problem != nullptr && failed++ < 5) {
      std::fprintf(stderr, "serve-mixed: request %zu (%s%s): %s\n", i,
                   kKindNames[requests[i].kind],
                   requests[i].repeat ? ", repeat" : "", problem);
    }
  }
  const auto hits = static_cast<std::uint64_t>(counter("serve.cache.hits"));
  bool correct = failed == 0;
  if (hits != repeats) {
    std::fprintf(stderr, "serve-mixed: serve.cache.hits %llu != repeats %llu\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(repeats));
    correct = false;
  }

  // End-to-end metrics, from due time.
  std::vector<double> latency_ms, hit_ms;
  std::uint64_t good = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Record& r = records[i];
    if (!r.ok) continue;
    const double latency = loop.latency(i, r.done);
    latency_ms.push_back(latency * 1e3);
    if (requests[i].repeat) hit_ms.push_back(latency * 1e3);
    if (latency <= kGoodputLimitS) ++good;
  }
  Result out;
  out.attempted = count;
  out.failed = failed;
  out.correct = correct;
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["peak_rss_mb"] = daemon_rss;
  out.metrics["throughput_per_s"] = static_cast<double>(good) / window_s;
  out.metrics["cpu_ms_per_op"] =
      daemon_cpu_s * 1e3 / static_cast<double>(std::max<std::size_t>(1, latency_ms.size()));
  out.metrics["latency_p50_ms"] = median(latency_ms);
  out.metrics["latency_p99_ms"] = percentile(latency_ms, 99);

  std::vector<double> lateness_ms;
  for (double l : loop.lateness_all()) lateness_ms.push_back(l * 1e3);
  std::fprintf(stderr,
               "serve-mixed: %zu requests at %.0f/s, %llu repeats, p50 %.2f ms, "
               "p99 %.2f ms (%zu beyond; highest percentile with >= 10 beyond: "
               "p%g), generator late p50 %.3f p99 %.3f max %.3f ms, %llu accepted "
               "lines after their result\n",
               count, kRatePerS, static_cast<unsigned long long>(repeats),
               median(latency_ms), percentile(latency_ms, 99),
               samples_beyond(latency_ms.size(), 99),
               highest_supported_percentile(latency_ms.size()),
               median(lateness_ms), percentile(lateness_ms, 99), percentile(lateness_ms, 100),
               static_cast<unsigned long long>(stats.accepted_after_result));

  if (ctx.traced) {
    const auto sum = tracer.summarize();
    std::vector<double> accept, first_progress, overhead;
    std::vector<double> rtt[3], exec[3], rtt_hit;
    double sim_ns = 0, sim_steps = 0, sim_messages = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const Record& r = records[i];
      const Request& q = requests[i];
      if (r.ok && r.accepted >= 0) accept.push_back((r.accepted - r.sent) * 1e3);
      if (r.first_progress >= 0) first_progress.push_back((r.first_progress - r.sent) * 1e3);
      if (!r.ok) continue;
      const double rtt_ms = (r.done - r.sent) * 1e3;
      if (q.repeat) {
        rtt_hit.push_back(rtt_ms);
      } else {
        rtt[q.kind].push_back(rtt_ms);
        exec[q.kind].push_back(execute_ms[i]);
        overhead.push_back(rtt_ms - execute_ms[i]);
      }
      sim_steps += steps[i];
      sim_messages += messages[i];
    }
    if (sum.count("sim.run")) sim_ns = sum.at("sim.run").total_us * 1e3;
    const double runs = static_cast<double>(sum.count("sim.run") ? sum.at("sim.run").count : 0);
    out.metrics["fuzz.rig_build_us"] = mean_us(sum, "fuzz.rig_build");
    out.metrics["sim.run_ms"] = mean_us(sum, "sim.run") / 1e3;
    out.metrics["sim.ns_per_step"] = sim_steps > 0 ? sim_ns / sim_steps : 0.0;
    out.metrics["sim.ns_per_message"] = sim_messages > 0 ? sim_ns / sim_messages : 0.0;
    out.metrics["sim.steps_per_run"] = runs > 0 ? sim_steps / runs : 0.0;
    out.metrics["sim.messages_per_run"] = runs > 0 ? sim_messages / runs : 0.0;
    out.metrics["serve.spawn_ready_ms"] = median(spawn_ms);
    out.metrics["serve.connect_ms"] = median(connect_ms);
    out.metrics["serve.accept_ms"] = median(accept);
    out.metrics["serve.rtt_ms.run"] = median(rtt[kRun]);
    out.metrics["serve.rtt_ms.scenario"] = median(rtt[kScenario]);
    out.metrics["serve.rtt_ms.campaign"] = median(rtt[kCampaign]);
    out.metrics["serve.rtt_ms.hit"] = median(rtt_hit);
    out.metrics["serve.first_progress_ms"] = median(first_progress);
    out.metrics["serve.execute_ms.run"] = median(exec[kRun]);
    out.metrics["serve.execute_ms.scenario"] = median(exec[kScenario]);
    out.metrics["serve.execute_ms.campaign"] = median(exec[kCampaign]);
    out.metrics["serve.overhead_ms"] = median(overhead);
    double busy_ms = 0;
    for (const auto& kind : exec) {
      for (double ms : kind) busy_ms += ms;
    }
    out.metrics["serve.worker_busy_share"] = busy_ms / 1e3 / (2.0 * window_s);
    out.metrics["serve.parse_submit_us"] = mean_us(sum, "serve.parse_submit");
    out.metrics["serve.cache_key_us"] = mean_us(sum, "serve.cache_key");
    out.metrics["util.json_parse_us"] = mean_us(sum, "util.json_parse");
    out.metrics["util.json_write_us"] = mean_us(sum, "util.json_write");
    const double lookups = counter("serve.cache.hits") + counter("serve.cache.misses");
    out.metrics["serve.cache_hit_ratio"] =
        lookups > 0 ? counter("serve.cache.hits") / lookups : 0.0;
    out.metrics["serve.queue_depth_max"] = static_cast<double>(stats.queue_depth_max);
    out.metrics["serve.rejected"] =
        counter("serve.rejected.backpressure") + counter("serve.rejected.draining");
    out.metrics["serve.hit_p50_ms"] = median(hit_ms);
    out.metrics["serve.gen_late_ms_p99"] = percentile(lateness_ms, 99);
    out.metrics["serve.samples"] = static_cast<double>(latency_ms.size());
    out.metrics["trace.overhead_pct"] = stats.trace_cost_s / window_s * 100.0;
  }
  return out;
}

}  // namespace wfdbench
