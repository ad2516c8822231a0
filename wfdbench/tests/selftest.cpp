// The benchmark's own tests: nearest-rank percentiles, open-loop due-time
// accounting, and the output schema (round trip, and the metric lists
// against BENCHMARK.json). No daemon and no program run is involved.
//
//   wfdbench_selftest BENCHMARK.json     # exit 0 iff every check passes
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"
#include "stats.hpp"

namespace {

int g_failed = 0;
int g_passed = 0;

void check(bool ok, const char* what) {
  if (ok) {
    ++g_passed;
  } else {
    ++g_failed;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using wfdbench::percentile;
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // unsorted on purpose
  check(near(percentile(ten, 50), 5), "p50 of 1..10 is 5 (rank 5)");
  check(near(percentile(ten, 90), 9), "p90 of 1..10 is 9");
  check(near(percentile(ten, 91), 10), "p91 of 1..10 rounds the rank up");
  check(near(percentile(ten, 100), 10), "p100 is the maximum");
  check(near(percentile({7}, 1), 7), "any percentile of one sample");
  check(near(percentile({}, 50), 0), "empty sample reads 0");
  check(near(wfdbench::median({3, 1, 2, 4}), 2), "even-sized median is rank n/2");

  check(wfdbench::samples_beyond(1000, 99) == 10, "p99 of 1000 has 10 beyond");
  check(wfdbench::samples_beyond(999, 99) == 9, "p99 of 999 has 9 beyond");
  check(near(wfdbench::highest_supported_percentile(1000), 99),
        "1000 samples support p99");
  check(near(wfdbench::highest_supported_percentile(999), 90),
        "999 samples support only p90");
  check(near(wfdbench::highest_supported_percentile(10000), 99.9),
        "10000 samples support p99.9");
  check(near(wfdbench::highest_supported_percentile(19), 0),
        "19 samples support no percentile");
  check(near(wfdbench::highest_supported_percentile(20), 50),
        "20 samples support the median");
}

void test_open_loop() {
  // 10 requests at 100/s from t=0: due every 10 ms. The generator stalls
  // 50 ms at request 3 and then sends the backlog at once.
  wfdbench::OpenLoop loop(0.0, 100.0, 10);
  check(near(loop.due(3), 0.03), "due time is start + i / rate");
  for (std::size_t i = 0; i < 3; ++i) loop.on_send(i, loop.due(i));
  const double resume = 0.08;
  for (std::size_t i = 3; i < 10; ++i) {
    loop.on_send(i, std::max(resume, loop.due(i)));
  }
  check(near(loop.lateness(3), 0.05), "the stalled request is 50 ms late");
  check(near(loop.lateness(7), 0.01), "the backlog shrinks as due times pass");
  check(near(loop.lateness(9), 0.0), "a request due after the stall is on time");
  check(near(loop.lateness(2), 0.0), "requests before the stall are on time");
  // The server answers 1 ms after each send: latency from the due time
  // carries the stall, latency from the send time would hide it.
  const double done3 = std::max(resume, loop.due(3)) + 0.001;
  check(near(loop.latency(3, done3), 0.051), "latency is charged from due");
  const std::vector<double> late = loop.lateness_all();
  check(late.size() == 10, "lateness recorded for every sent request");
  check(near(wfdbench::percentile(late, 100), 0.05), "max lateness is the stall");
  wfdbench::OpenLoop unsent(0.0, 10.0, 3);
  check(unsent.lateness_all().empty(), "unsent requests have no lateness");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void test_schema(const std::string& benchmark_json) {
  wfdbench::Result result;
  result.correct = true;
  result.attempted = 1234;
  result.failed = 0;
  result.metrics["latency_p50_ms"] = 12.345678901234567;
  result.metrics["setup_s"] = 0.000123456789;
  const std::string line =
      wfdbench::result_to_json(result, wfdbench::end_to_end_metrics());
  wfdbench::Result back;
  std::map<std::string, std::string> units;
  std::string error;
  check(wfdbench::result_from_json(line, &back, &units, &error),
        "result line parses back");
  check(back.correct && back.attempted == 1234 && back.failed == 0,
        "top-level fields round trip");
  check(back.metrics.size() == wfdbench::end_to_end_metrics().size(),
        "every end-to-end metric is present");
  check(back.metrics["latency_p50_ms"] == 12.345678901234567,
        "values keep all their digits");
  check(back.metrics["setup_s"] == 0.000123456789, "small values round trip");
  check(units["latency_p50_ms"] == "ms" && units["setup_s"] == "s",
        "units round trip");
  check(line.find('\n') == std::string::npos, "result is one line");
  check(!wfdbench::result_from_json("{\"correct\":true}", &back, &units, &error),
        "a result missing keys is refused");

  // The lists must be BENCHMARK.json's, name for name and unit for unit.
  wfd::util::Json doc;
  check(wfd::util::Json::parse(read_file(benchmark_json), &doc, &error),
        "BENCHMARK.json parses");
  const auto same = [&](const char* key,
                        const std::vector<wfdbench::MetricDef>& defs) {
    const wfd::util::Json* list = doc.find(key);
    if (list == nullptr || list->items.size() != defs.size()) return false;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const wfd::util::Json& item = list->items[i];
      if (item.find("name") == nullptr || item.find("unit") == nullptr ||
          item.find("name")->str != defs[i].name ||
          item.find("unit")->str != defs[i].unit) {
        return false;
      }
    }
    return true;
  };
  check(same("end_to_end", wfdbench::end_to_end_metrics()),
        "end_to_end matches BENCHMARK.json");
  check(same("per_layer", wfdbench::per_layer_metrics()),
        "per_layer matches BENCHMARK.json");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fputs("usage: wfdbench_selftest BENCHMARK.json\n", stderr);
    return 2;
  }
  test_percentiles();
  test_open_loop();
  test_schema(argv[1]);
  std::printf("wfdbench self-test: %d passed, %d failed\n", g_passed, g_failed);
  return g_failed == 0 ? 0 : 1;
}
