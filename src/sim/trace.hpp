// Run traces: a run is a sequence of observable events (the paper reasons
// about runs as sequences of enabled steps; monitors and experiments reason
// about the event trace). Events are small PODs; observers subscribe for
// online property checking without retaining the whole trace.
//
// There is one subscription path, `subscribe_kinds(mask, fn)`: every
// observer names the event kinds it reads. The sink keeps the union of
// retention and every subscription's mask, and `emit` is a single
// branch-and-return unless the event's kind is in it, so a kind nobody
// asked for costs no std::function call. Graded fuzz runs listen only to
// diner transitions and detector flips; steps, sends, deliveries, drops
// and crashes stay on the zero-cost path unless a capture retains them.
//
// Retention is scoped by a kind mask of its own: constructing a Trace with
// a capacity enables only the kinds in `retain_mask` (default: all), so a
// capture of diner transitions does not drag every step event off the
// zero-cost path. Raw record kinds >= 64 alias low mask bits on the cheap
// `wants` check, but dispatch re-checks the exact kind before retaining or
// invoking an observer — aliasing can cost a wasted dispatch call, never a
// mis-delivered event (only a kAllEventKinds subscription sees raw kinds).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/types.hpp"

namespace wfd::sim {

enum class EventKind : std::uint8_t {
  kStep,            ///< a process executed an atomic step
  kSend,            ///< message handed to the channel      (a=dst, b=port, c=kind)
  kDeliver,         ///< message delivered                  (a=src, b=port, c=kind)
  kDrop,            ///< message discarded (dst crashed)    (a=src, b=port, c=kind)
  kCrash,           ///< process crashed
  kDinerTransition, ///< diner phase change                 (a=instance, b=from, c=to)
  kDetectorChange,  ///< suspicion flip                     (a=subject, b=0 trust / 1 suspect)
  kCustom,          ///< protocol-defined
};

/// One trace event. `pid` is the acting process; a/b/c are kind-specific.
struct Event {
  Time time = 0;
  EventKind kind = EventKind::kStep;
  ProcessId pid = kNoProcess;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

const char* to_string(EventKind kind);
std::string to_string(const Event& event);

/// Bit for one event kind in a subscription mask. Kinds beyond 63 (possible
/// through the raw record_kind escape hatch) alias low bits here; the cheap
/// `wants` pre-check uses the aliased bit (which can only over-approximate)
/// and dispatch re-checks the exact kind, so an observer never receives
/// a kind it did not subscribe to.
constexpr std::uint64_t kind_mask(EventKind kind) {
  return 1ull << (static_cast<unsigned>(kind) & 63u);
}
template <class... Kinds>
constexpr std::uint64_t kind_mask(EventKind first, Kinds... rest) {
  return kind_mask(first) | kind_mask(rest...);
}
inline constexpr std::uint64_t kAllEventKinds = ~0ull;

/// Event sink: optionally retains events (bounded, kind-scoped) and fans
/// out to subscribed observers. Observers must not mutate the engine.
class Trace {
 public:
  using Observer = std::function<void(const Event&)>;

  /// Retain at most `max_events` in memory (0 = retain nothing; observers
  /// still fire), and only events whose kind bit is set in `retain_mask` —
  /// every other kind stays on the zero-cost path. Retention is for
  /// debugging and offline capture/export.
  explicit Trace(std::size_t max_events = 0,
                 std::uint64_t retain_mask = kAllEventKinds)
      : max_events_(max_events),
        retain_mask_(max_events > 0 ? retain_mask : 0) {
    enabled_ = retain_mask_;
  }

  /// Observe only events whose kind bit is set in `mask` (build it with
  /// kind_mask(...); kAllEventKinds observes everything). Keeps every other
  /// kind on the zero-cost path.
  void subscribe_kinds(std::uint64_t mask, Observer observer) {
    observers_.push_back(Subscription{mask, std::move(observer)});
    enabled_ |= mask;
  }

  /// Count dispatched events (per kind) into `registry` — counters
  /// sim.events.<kind> plus sim.events.truncated for retention overflow.
  /// Counting never widens the enabled mask: only events that retention or
  /// a subscription already observes are counted, so unobserved kinds stay
  /// on the zero-cost path (the E19 "near-0% metrics-on" half). Capture
  /// runs retain every kind, so their counts are complete and must equal
  /// the exported per-kind event counts.
  void bind_metrics(obs::Registry* registry);

  /// True if an emit of `kind` would do any work — lets callers skip even
  /// assembling the event payload. May over-approximate for raw kinds >= 64
  /// (dispatch re-checks exactly).
  bool wants(EventKind kind) const { return (enabled_ & kind_mask(kind)) != 0; }

  void emit(const Event& event) {
    if (!wants(event.kind)) return;  // zero-cost disabled path
    dispatch(event);
  }

  /// Emit without constructing the Event unless someone listens.
  void emit(EventKind kind, Time time, ProcessId pid, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t c = 0) {
    if (!wants(kind)) return;
    dispatch(Event{time, kind, pid, a, b, c});
  }

  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }
  /// Events that matched the retention mask after capacity was exhausted.
  std::uint64_t truncated() const { return truncated_; }

 private:
  struct Subscription {
    std::uint64_t mask = kAllEventKinds;
    Observer fn;
  };

  /// Exact-kind test: raw kinds < 64 use their mask bit; raw kinds >= 64
  /// (record_kind escape hatch) match only the full mask, so they can never
  /// ride an aliased low bit into a masked observer.
  static bool mask_matches(std::uint64_t mask, EventKind kind) {
    const auto raw = static_cast<unsigned>(kind);
    if (raw < 64u) return ((mask >> raw) & 1u) != 0;
    return mask == kAllEventKinds;
  }

  void dispatch(const Event& event);  // out of line: the listened-to path

  std::uint64_t enabled_ = 0;  ///< union of retention + subscription masks
  std::size_t max_events_;
  std::uint64_t retain_mask_ = 0;
  std::uint64_t truncated_ = 0;
  std::vector<Event> events_;
  std::vector<Subscription> observers_;

  /// Metrics binding (optional): one counter per known kind, one for raw
  /// kinds beyond the enum, one for truncation.
  std::unique_ptr<obs::Scope> metrics_;
  static constexpr std::size_t kKnownKinds = 8;
  std::uint32_t kind_counter_ids_[kKnownKinds + 1] = {};
  std::uint32_t truncated_counter_id_ = 0;
};

}  // namespace wfd::sim
