// serve-smoke: the campaign daemon (src/serve) exercised in-process over
// real unix sockets — NDJSON framing, request validation, the bounded
// admission queue's deterministic backpressure edge, cache-hit byte
// identity, disconnect cancellation, drain semantics, and the headline
// determinism pin: a request submitted through the socket yields a result
// payload bit-identical to execute_request() called directly, across three
// conformance vectors plus raw-config and campaign submissions. The
// end-to-end suite against the real wfd_serve binary (SIGTERM, process
// lifecycle) lives in tools/wfd_client.py --e2e. Loopback TCP is covered
// too: TCP_NODELAY on session sockets and a cache-hit round trip that must
// not wait on a delayed ACK.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "serve/framing.hpp"
#include "serve/serve.hpp"
#include "util/json.hpp"

namespace wfd::serve {
namespace {

namespace fs = std::filesystem;
using util::Json;

// write_line must surface a dead peer as `false`, never as SIGPIPE death —
// the same process-wide stance the daemon mains take.
struct SigpipeIgnore {
  SigpipeIgnore() { std::signal(SIGPIPE, SIG_IGN); }
} g_sigpipe_ignore;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- framing ---------------------------------------------------------------

TEST(Framing, ReassemblesLinesAcrossArbitraryChunks) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char* chunks[] = {"hel", "lo\nwor", "ld\n\ntail"};
  for (const char* chunk : chunks) {
    ASSERT_GT(::write(fds[1], chunk, std::strlen(chunk)), 0);
  }
  ::close(fds[1]);
  LineReader reader(fds[0]);
  std::string line;
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "hello");
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "world");
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "");  // the blank line between \n\n
  // The unterminated tail before EOF still comes out as a line.
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "tail");
  EXPECT_EQ(reader.next(&line), LineReader::Status::kEof);
  ::close(fds[0]);
}

TEST(Framing, StripsCarriageReturnAndCapsLineLength) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string crlf = "ping\r\n";
  ASSERT_GT(::write(fds[1], crlf.data(), crlf.size()), 0);
  const std::string runaway(64, 'x');  // no newline, over the 16-byte cap
  ASSERT_GT(::write(fds[1], runaway.data(), runaway.size()), 0);
  ::close(fds[1]);
  LineReader reader(fds[0], 16);
  std::string line;
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "ping");
  EXPECT_EQ(reader.next(&line), LineReader::Status::kTooLong);
  // Poisoned: the reader never yields data from an over-limit stream.
  EXPECT_EQ(reader.next(&line), LineReader::Status::kTooLong);
  ::close(fds[0]);
}

TEST(Framing, WriteLineToDeadPeerReturnsFalse) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);  // peer gone
  EXPECT_FALSE(write_line(fds[1], "{\"type\":\"ping\"}"));  // EPIPE, no kill
  ::close(fds[1]);

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EXPECT_TRUE(write_line(pair[0], "hello"));
  LineReader reader(pair[1]);
  std::string line;
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "hello");
  ::close(pair[1]);
  // First send after close may succeed (buffered); the connection reset
  // must surface as false within a bounded number of writes, not a signal.
  bool ok = true;
  for (int i = 0; i < 4 && ok; ++i) ok = write_line(pair[0], "after close");
  EXPECT_FALSE(ok);
  ::close(pair[0]);
}

TEST(Framing, PipelinedBurstOfTenThousandLines) {
  // One write carries 10k lines, every third CRLF-terminated; the reader
  // must hand them back intact and in order. The 32-byte cap applies to
  // each line, never to the burst, and still trips on a runaway tail.
  constexpr int kLines = 10000;
  std::string burst;
  for (int i = 0; i < kLines; ++i) {
    burst += "line-" + std::to_string(i) + (i % 3 == 0 ? "\r\n" : "\n");
  }
  burst.pop_back();  // write_line puts the last '\n' back
  const std::string runaway(40, 'x');  // unterminated and over the cap
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  std::thread writer([&] {
    EXPECT_TRUE(write_line(pair[0], burst));
    EXPECT_EQ(::send(pair[0], runaway.data(), runaway.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(runaway.size()));
    ::close(pair[0]);
  });
  LineReader reader(pair[1], 32);
  std::string line;
  for (int i = 0; i < kLines && !HasFailure(); ++i) {
    EXPECT_EQ(reader.next(&line), LineReader::Status::kLine) << i;
    EXPECT_EQ(line, "line-" + std::to_string(i));
  }
  if (!HasFailure()) {
    EXPECT_EQ(reader.next(&line), LineReader::Status::kTooLong);
  }
  // Closing our end first unblocks a writer the loop left mid-burst.
  ::close(pair[1]);
  writer.join();
}

sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

/// A connected loopback TCP pair: {client end, server-accepted end}.
bool tcp_pair(int out[2]) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return false;
  sockaddr_in addr = loopback(0);
  socklen_t len = sizeof addr;
  bool ok = ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
            ::listen(listener, 1) == 0 &&
            ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0;
  out[0] = ok ? ::socket(AF_INET, SOCK_STREAM, 0) : -1;
  ok = ok && out[0] >= 0 &&
       ::connect(out[0], reinterpret_cast<sockaddr*>(&addr), len) == 0;
  out[1] = ok ? ::accept(listener, nullptr, nullptr) : -1;
  ::close(listener);
  return ok && out[1] >= 0;
}

int nodelay_of(int fd) {
  int value = -1;
  socklen_t len = sizeof value;
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) return -1;
  return value;
}

TEST(Framing, TuneStreamSocketSetsNoDelay) {
  int fds[2];
  ASSERT_TRUE(tcp_pair(fds));
  EXPECT_EQ(nodelay_of(fds[1]), 0);  // Nagle is on by default
  EXPECT_TRUE(tune_stream_socket(fds[1]));
  EXPECT_EQ(nodelay_of(fds[1]), 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- request validation ----------------------------------------------------

Json parse_doc(const std::string& text) {
  Json doc;
  std::string error;
  EXPECT_TRUE(Json::parse(text, &doc, &error)) << error;
  return doc;
}

TEST(ParseSubmit, RejectsMalformedRequests) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_submit(parse_doc("{\"type\":\"submit\"}"), &request,
                            &error));
  EXPECT_NE(error.find("kind"), std::string::npos) << error;

  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"campaign\"}"), &request,
      &error));
  EXPECT_NE(error.find("runs"), std::string::npos) << error;

  EXPECT_FALSE(parse_submit(
      parse_doc(
          "{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":5000000}"),
      &request, &error));

  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":4,"
                "\"targets\":\"no_such_target\"}"),
      &request, &error));
  EXPECT_NE(error.find("no_such_target"), std::string::npos) << error;

  // Corpus names are names, not paths.
  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"evolve\","
                "\"corpus\":\"../evil\"}"),
      &request, &error));
  EXPECT_NE(error.find("corpus"), std::string::npos) << error;

  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"run\"}"), &request, &error));
  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"warp\"}"), &request,
      &error));
}

TEST(ParseSubmit, CacheKeyIsCanonical) {
  // Two textually different descriptions of the same run (field order,
  // defaulted members, out-of-domain values the normalizer clamps) share
  // one cache key.
  Request a;
  Request b;
  std::string error;
  ASSERT_TRUE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
                "{\"seed\":9,\"target\":\"dining\",\"n\":3}}"),
      &a, &error))
      << error;
  ASSERT_TRUE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
                "{\"n\":3,\"seed\":9,\"target\":\"dining\","
                "\"detector_lag\":20}}"),
      &b, &error))
      << error;
  EXPECT_EQ(cache_key(a), cache_key(b));
  EXPECT_NE(cache_key(a).find("run|"), std::string::npos);

  // Evolve is stateful (its on-disk corpus advances): never cached.
  Request evolve;
  ASSERT_TRUE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"evolve\"}"), &evolve,
      &error))
      << error;
  EXPECT_TRUE(cache_key(evolve).empty());
}

// --- in-process daemon over a real unix socket -----------------------------

class TestClient {
 public:
  bool connect_unix(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      return false;
    }
    reader_ = std::make_unique<LineReader>(fd_);
    return true;
  }
  bool connect_tcp(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr = loopback(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      return false;
    }
    tune_stream_socket(fd_);
    reader_ = std::make_unique<LineReader>(fd_);
    return true;
  }
  bool send(const std::string& line) { return write_line(fd_, line); }
  bool next(std::string* line) {
    return reader_->next(line) == LineReader::Status::kLine;
  }
  /// Read lines until one of the given type arrives (progress heartbeats
  /// and accepted acks in between are skipped).
  bool next_of_type(const char* type, std::string* line) {
    const std::string needle = std::string("\"type\":\"") + type + "\"";
    while (next(line)) {
      if (line->find(needle) != std::string::npos) return true;
    }
    return false;
  }
  /// Wakes a thread blocked on this socket without touching fd_.
  void shutdown_both() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  void close_fd() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() { close_fd(); }

 private:
  int fd_ = -1;
  std::unique_ptr<LineReader> reader_;
};

/// The raw payload bytes of a {"type":"result",...,"payload":{...}} line
/// (payload is the last member, so this is a pure suffix slice).
std::string payload_of(const std::string& result_line) {
  const std::string marker = "\"payload\":";
  const std::size_t pos = result_line.find(marker);
  if (pos == std::string::npos || result_line.empty() ||
      result_line.back() != '}') {
    return std::string();
  }
  return result_line.substr(pos + marker.size(),
                            result_line.size() - pos - marker.size() - 1);
}

class ServeTest : public ::testing::Test {
 protected:
  ServerOptions options_;  ///< adjust before boot()
  std::unique_ptr<Server> server_;
  std::thread runner_;
  std::string sock_path_;

  void boot() {
    static std::atomic<int> counter{0};
    sock_path_ =
        (fs::temp_directory_path() /
         ("wfd_serve_t" + std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1) + 1) + ".sock"))
            .string();
    options_.unix_path = sock_path_;
    server_ = std::make_unique<Server>(options_);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    runner_ = std::thread([this] { server_->run(); });
  }

  void drain_and_join() {
    if (server_ != nullptr) server_->request_drain();
    if (runner_.joinable()) runner_.join();
  }

  void TearDown() override {
    drain_and_join();
    server_.reset();
  }

  std::uint64_t counter_value(const char* name) {
    return server_->metrics().snapshot().counter_value(name);
  }
};

TEST_F(ServeTest, PingStatsAndUnknownTypeNeverWedge) {
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  ASSERT_TRUE(client.send("{\"type\":\"ping\"}"));
  std::string line;
  ASSERT_TRUE(client.next(&line));
  EXPECT_EQ(line, "{\"type\":\"pong\"}");

  ASSERT_TRUE(client.send("{\"type\":\"warp\"}"));
  ASSERT_TRUE(client.next(&line));
  EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos) << line;

  ASSERT_TRUE(client.send("this is not json"));
  ASSERT_TRUE(client.next(&line));
  EXPECT_NE(line.find("bad JSON"), std::string::npos) << line;

  ASSERT_TRUE(client.send("{\"type\":\"stats\"}"));
  ASSERT_TRUE(client.next(&line));
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(line, &doc, &error)) << error;
  const Json* registry = doc.find("registry");
  ASSERT_NE(registry, nullptr);
  ASSERT_NE(registry->find("serve.rejected.invalid"), nullptr);
  EXPECT_EQ(registry->find("serve.rejected.invalid")->as_u64(), 2u);
}

// The headline pin: a request submitted through the socket produces a
// result payload bit-identical to executing the same parsed request
// directly — across three conformance vectors, a raw config, and a swarm
// campaign.
TEST_F(ServeTest, SocketResultsAreBitIdenticalToDirectExecution) {
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));

  const auto pin = [&](const Json& submit_doc) {
    Request request;
    std::string error;
    ASSERT_TRUE(parse_submit(submit_doc, &request, &error)) << error;
    const std::string direct = execute_request(request, ExecuteHooks{});

    ASSERT_TRUE(client.send(submit_doc.dump(0)));
    std::string line;
    ASSERT_TRUE(client.next_of_type("result", &line));
    EXPECT_EQ(payload_of(line), direct) << line;
  };

  // Three conformance vectors through the scenario-DSL path.
  for (const char* vector :
       {"v01_exclusive_clean.scenario.json",
        "v04_broken_single_instance.scenario.json",
        "v07_dining_ring.scenario.json"}) {
    SCOPED_TRACE(vector);
    const std::string text =
        read_file(std::string(WFD_VECTOR_DIR) + "/" + vector);
    ASSERT_FALSE(text.empty());
    Json submit = Json::object();
    submit.set("type", Json::of_string("submit"));
    submit.set("kind", Json::of_string("scenario"));
    submit.set("scenario", parse_doc(text));
    pin(submit);
  }

  // A raw fuzz config (the wfd_fuzz --replay shape).
  {
    const fuzz::FuzzConfig config = fuzz::normalize(
        fuzz::sample_config(11, 0, fuzz::legal_targets()));
    Json submit = Json::object();
    submit.set("type", Json::of_string("submit"));
    submit.set("kind", Json::of_string("run"));
    submit.set("config", parse_doc(fuzz::config_to_json(config, 0)));
    pin(submit);
  }

  // A swarm campaign (the wfd_fuzz --runs shape, via harness batches).
  {
    Json submit = parse_doc(
        "{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":4,"
        "\"master_seed\":9,\"targets\":\"legal\"}");
    pin(submit);
  }
}

TEST_F(ServeTest, CacheHitReturnsIdenticalBytesInstantly) {
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  const std::string submit =
      "{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
      "{\"seed\":5,\"target\":\"dining\",\"n\":3,\"steps\":5000}}";
  ASSERT_TRUE(client.send(submit));
  std::string first;
  ASSERT_TRUE(client.next_of_type("result", &first));
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;

  ASSERT_TRUE(client.send(submit));
  std::string second;
  ASSERT_TRUE(client.next_of_type("result", &second));
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos) << second;
  EXPECT_EQ(payload_of(first), payload_of(second));

  EXPECT_EQ(counter_value("serve.cache.hits"), 1u);
  EXPECT_EQ(counter_value("serve.cache.misses"), 1u);
}

TEST_F(ServeTest, AcceptedPrecedesResultForEveryJob) {
  // 200 pipelined runs over 60 distinct configs on one connection: misses,
  // repeats that race their first copy, and cache hits. However fast a
  // worker finishes, its job's `accepted` line must come first.
  constexpr int kJobs = 200;
  options_.workers = 2;
  options_.queue_capacity = kJobs;
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  std::thread sender([&] {
    for (int i = 0; i < kJobs; ++i) {
      // A failed send shows up below as missing results.
      if (!client.send(
              "{\"type\":\"submit\",\"kind\":\"run\",\"config\":{\"seed\":" +
              std::to_string(i % 60) +
              ",\"target\":\"dining\",\"n\":3,\"steps\":2000}}")) {
        return;
      }
    }
  });
  std::map<std::uint64_t, bool> accepted;  // job -> its result seen
  int results = 0;
  std::string line;
  while (results < kJobs && !HasFailure() && client.next(&line)) {
    Json doc;
    std::string error;
    if (!Json::parse(line, &doc, &error)) {
      ADD_FAILURE() << error << ": " << line;
      break;
    }
    const std::string type = doc.find("type")->as_string(std::string());
    const Json* job_field = doc.find("job");
    if (type == "rejected" || job_field == nullptr) {
      ADD_FAILURE() << "reply without a job: " << line;
      break;
    }
    const std::uint64_t job = job_field->as_u64();
    if (type == "accepted") {
      EXPECT_TRUE(accepted.emplace(job, false).second) << line;
      continue;
    }
    const auto it = accepted.find(job);
    if (it == accepted.end()) {
      ADD_FAILURE() << "line before its accepted: " << line;
      break;
    }
    if (type == "result") {
      EXPECT_FALSE(it->second) << line;
      it->second = true;
      ++results;
    }
  }
  // Unblocks a sender stalled behind replies the loop stopped reading.
  client.shutdown_both();
  sender.join();
  EXPECT_EQ(results, kJobs);
  EXPECT_EQ(accepted.size(), static_cast<std::size_t>(kJobs));
  // Every run is cacheable, so each job was either a hit or a miss.
  EXPECT_EQ(counter_value("serve.cache.hits") +
                counter_value("serve.cache.misses"),
            static_cast<std::uint64_t>(kJobs));
  EXPECT_GE(counter_value("serve.cache.misses"), 60u);
}

TEST_F(ServeTest, TcpCacheHitRoundTripBeatsDelayedAck) {
  // Over loopback TCP a cache hit must cost a round trip, not a delayed
  // ACK: with Nagle on and `accepted`/`result` sent apart, every hit
  // waited ~40 ms. The 20 ms bound sits far from both sides.
  options_.tcp_port = 0;
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_tcp(server_->tcp_port()));
  const std::string submit =
      "{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
      "{\"seed\":5,\"target\":\"dining\",\"n\":3,\"steps\":5000}}";
  std::string line;
  ASSERT_TRUE(client.send(submit));
  ASSERT_TRUE(client.next_of_type("result", &line));
  std::vector<double> rtt_ms;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.send(submit));
    ASSERT_TRUE(client.next_of_type("result", &line));
    rtt_ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    EXPECT_NE(line.find("\"cached\":true"), std::string::npos) << line;
  }
  std::nth_element(rtt_ms.begin(), rtt_ms.begin() + 10, rtt_ms.end());
  EXPECT_LT(rtt_ms[10], 20.0) << "median cache-hit round trip over TCP";
}

TEST_F(ServeTest, TcpPipelinedPingsBeatDelayedAck) {
  // Two pings in one packet draw two pongs, written back to back. With
  // Nagle on the session socket the second pong waits for the client's
  // delayed ACK of the first (~40 ms); with TCP_NODELAY it does not.
  options_.tcp_port = 0;
  options_.workers = 0;
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_tcp(server_->tcp_port()));
  std::vector<double> rtt_ms;
  std::string line;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.send("{\"type\":\"ping\"}\n{\"type\":\"ping\"}"));
    for (int pong = 0; pong < 2; ++pong) {
      ASSERT_TRUE(client.next(&line));
      ASSERT_EQ(line, "{\"type\":\"pong\"}");
    }
    rtt_ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
  std::nth_element(rtt_ms.begin(), rtt_ms.begin() + 10, rtt_ms.end());
  EXPECT_LT(rtt_ms[10], 20.0) << "median two-pong round trip over TCP";
}

TEST_F(ServeTest, BackpressureRejectsExactlyAtCapacity) {
  options_.workers = 0;  // admission-only: nothing dequeues
  options_.queue_capacity = 2;
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  std::string line;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.send(
        "{\"type\":\"submit\",\"kind\":\"run\",\"config\":{\"seed\":" +
        std::to_string(100 + i) + ",\"target\":\"dining\"}}"));
    ASSERT_TRUE(client.next(&line));
    EXPECT_NE(line.find("\"type\":\"accepted\""), std::string::npos) << line;
  }
  ASSERT_TRUE(client.send(
      "{\"type\":\"submit\",\"kind\":\"run\",\"config\":{\"seed\":102,"
      "\"target\":\"dining\"}}"));
  ASSERT_TRUE(client.next(&line));
  EXPECT_NE(line.find("\"type\":\"rejected\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"reason\":\"backpressure\""), std::string::npos)
      << line;
  EXPECT_EQ(counter_value("serve.rejected.backpressure"), 1u);

  // A full queue never wedges the session: the daemon keeps answering.
  ASSERT_TRUE(client.send("{\"type\":\"ping\"}"));
  ASSERT_TRUE(client.next(&line));
  EXPECT_EQ(line, "{\"type\":\"pong\"}");
}

TEST_F(ServeTest, DisconnectCancelsItsJobsAndLeavesOthersServed) {
  options_.workers = 1;
  boot();
  TestClient doomed;
  ASSERT_TRUE(doomed.connect_unix(sock_path_));
  std::string line;
  // Two campaign jobs keep the single worker busy past the disconnect.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(doomed.send(
        "{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":6,"
        "\"master_seed\":" +
        std::to_string(40 + i) + "}"));
    ASSERT_TRUE(doomed.next(&line));
    EXPECT_NE(line.find("\"type\":\"accepted\""), std::string::npos) << line;
  }
  doomed.close_fd();  // vanish mid-stream

  TestClient survivor;
  ASSERT_TRUE(survivor.connect_unix(sock_path_));
  ASSERT_TRUE(survivor.send(
      "{\"type\":\"submit\",\"kind\":\"run\",\"config\":{\"seed\":3,"
      "\"target\":\"dining\",\"steps\":5000}}"));
  ASSERT_TRUE(survivor.next_of_type("result", &line));
  EXPECT_NE(line.find("\"verdict\":"), std::string::npos) << line;

  drain_and_join();
  // At least the queued second job was cancelled instead of computed into
  // the void; nothing crashed or wedged along the way.
  EXPECT_GE(counter_value("serve.jobs.cancelled"), 1u);
  EXPECT_EQ(counter_value("serve.clients.disconnected"), 2u);
}

TEST_F(ServeTest, DrainFinishesQueuedJobsThenHangsUp) {
  options_.workers = 1;
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  ASSERT_TRUE(client.send(
      "{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":4,"
      "\"master_seed\":9}"));
  std::string line;
  ASSERT_TRUE(client.next(&line));
  EXPECT_NE(line.find("\"type\":\"accepted\""), std::string::npos) << line;

  server_->request_drain();  // drain with the job still in flight
  ASSERT_TRUE(client.next_of_type("result", &line));  // result still flushed
  EXPECT_NE(line.find("\"kind\":\"campaign\""), std::string::npos) << line;
  // After the flush the daemon hangs up and the socket path is gone.
  while (client.next(&line)) {
  }
  drain_and_join();
  EXPECT_FALSE(fs::exists(sock_path_));
  EXPECT_EQ(counter_value("serve.jobs.completed"), 1u);
}

TEST_F(ServeTest, EvolveJobCheckpointsItsNamedCorpus) {
  const fs::path root =
      fs::temp_directory_path() / "wfd_serve_test_corpora";
  fs::remove_all(root);
  fs::create_directories(root);
  options_.workers = 1;
  options_.corpus_root = root.string();
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  ASSERT_TRUE(client.send(
      "{\"type\":\"submit\",\"kind\":\"evolve\",\"generations\":2,"
      "\"gen_size\":4,\"master_seed\":7,\"corpus\":\"c1\","
      "\"checkpoint_every\":1,\"shrink\":false}"));
  std::string line;
  bool saw_progress = false;
  for (;;) {
    ASSERT_TRUE(client.next(&line));
    if (line.find("\"type\":\"progress\"") != std::string::npos) {
      EXPECT_NE(line.find("\"phase\":\"evolve\""), std::string::npos) << line;
      saw_progress = true;
    }
    if (line.find("\"type\":\"result\"") != std::string::npos) break;
  }
  EXPECT_TRUE(saw_progress);
  EXPECT_NE(line.find("\"kind\":\"evolve\""), std::string::npos) << line;

  // The per-generation checkpoints materialized the named corpus on disk.
  std::size_t entries = 0;
  for (const auto& file : fs::directory_iterator(root / "c1")) {
    if (file.path().extension() == ".json") ++entries;
  }
  EXPECT_GT(entries, 0u);
  drain_and_join();
  fs::remove_all(root);
}

}  // namespace
}  // namespace wfd::serve
