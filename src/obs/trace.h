#ifndef CPD_OBS_TRACE_H_
#define CPD_OBS_TRACE_H_

/// \file trace.h
/// Chrome trace-event recording (the "trace_out" side of src/obs): spans
/// accumulate in memory during a run and serialize as trace-event JSON
/// ({"traceEvents":[...]}), loadable in Perfetto / chrome://tracing.
///
/// The trainer owns one recorder per run (cpd_train --trace_out) and emits
/// per-sweep snapshot / sample / merge / augment spans and one m_step span
/// per EM iteration into it. Rows are integer tids named via SetThreadName
/// metadata events — they are *logical* lanes, not OS thread ids, so a
/// trace reads as the protocol, not the scheduler. Timestamps come from
/// obs::NowMicros() (injectable clock).
///
/// Recording is mutexed (trace cadence is per sweep, never per token) and a
/// null recorder pointer is the universal "tracing off" convention: emit
/// sites guard with `if (trace_ != nullptr)`.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace cpd::obs {

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Names a logical row (rendered once as a "thread_name" metadata event).
  void SetThreadName(int tid, const std::string& name);

  /// One complete span ("ph":"X"). `args` must be a JSON object or null.
  void AddSpan(const std::string& name, int tid, int64_t start_us,
               int64_t duration_us, Json args = Json());

  size_t num_events() const;

  /// {"traceEvents":[...]} — metadata events first, then spans in
  /// recording order.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    int tid = 0;
    int64_t ts = 0;
    int64_t dur = 0;
    Json args;
  };

  mutable std::mutex mutex_;
  std::map<int, std::string> thread_names_;
  std::vector<Event> events_;
};

/// RAII span: stamps start on construction, records on destruction. A null
/// recorder makes it a no-op (the single NowMicros call aside).
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, std::string name, int tid);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches one "args" field (shown in the Perfetto span detail pane).
  void AddArg(const std::string& key, Json value);

 private:
  TraceRecorder* recorder_;
  std::string name_;
  int tid_;
  int64_t start_us_;
  Json args_;
};

}  // namespace cpd::obs

#endif  // CPD_OBS_TRACE_H_
