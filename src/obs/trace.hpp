// Tracing layer of chop_obs: RAII spans that record where wall-clock time
// goes inside the partitioner, emitted to a pluggable sink as Chrome
// trace-event JSON (loadable in chrome://tracing or Perfetto) or as a
// JSONL event log.
//
// Design rule: with no sink installed the instrumentation must be free in
// practice — constructing a TraceSpan is one relaxed atomic load and no
// clock read, so hot paths can stay instrumented unconditionally.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

namespace chop::obs {

/// One trace event, in Chrome trace-event vocabulary: phase 'X' is a
/// complete span (ts + dur), phase 'i' an instant marker. Timestamps are
/// microseconds on a process-wide steady clock.
struct TraceEvent {
  std::string name;
  char phase = 'X';
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
  /// Pre-rendered `"key":value` pairs (no surrounding braces), empty when
  /// the event carries no arguments.
  std::string args_json;
};

/// Receives every emitted event. Implementations must be safe to call from
/// multiple threads.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent& e) = 0;
  /// Finalizes any buffered output (e.g. closes the JSON array).
  virtual void flush() {}
};

/// Installs `sink` as the process-wide trace sink (nullptr disables
/// tracing). The caller keeps ownership and must keep the sink alive until
/// it is uninstalled; spans in flight across an uninstall are dropped.
void install_trace_sink(TraceSink* sink);

/// The currently installed sink, or nullptr.
TraceSink* trace_sink();

/// True when a sink is installed (the fast-path check).
inline bool trace_enabled() { return trace_sink() != nullptr; }

/// Microseconds since process start on the steady clock.
std::uint64_t trace_now_us();

/// Small dense id for the calling thread (1, 2, ... in first-use order).
std::uint32_t trace_thread_id();

/// Escapes `s` for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

/// Emits an instant event (phase 'i'); no-op without a sink.
void trace_instant(const char* name, const std::string& args_json = {});

// --- Trace context (per-job distributed tracing) ---------------------------
//
// A TraceContext names the request a span belongs to (trace_id, minted
// once per job at submit) and the span it should parent to (span_id).
// The current context is thread-local; TraceContextScope carries it into
// worker threads, and every TraceSpan opened under an active context
// allocates its own span id, tags its event with
// `"trace":"<hex>","span":N,"parent":N`, and becomes the parent of spans
// nested inside it — so one chopd job renders as a single connected tree
// even though it crosses the client thread, the queue, a worker, and the
// search thread pool.

struct TraceContext {
  std::uint64_t trace_id = 0;  ///< 0 = no active trace.
  std::uint64_t span_id = 0;   ///< Parent span for children; 0 = root.
  bool active() const { return trace_id != 0; }
};

/// Process-unique nonzero trace id (sequential; cheap and deterministic).
std::uint64_t next_trace_id();

/// Renders a trace id the way responses and trace args spell it:
/// 16 lowercase hex digits.
std::string trace_id_hex(std::uint64_t id);

/// RAII: installs `ctx` as the calling thread's current trace context
/// (no-op for an inactive context) and restores the previous one on
/// destruction. Use to carry a job's context into pool/worker threads.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;
  ~TraceContextScope();

 private:
  TraceContext prev_;
  bool installed_ = false;
};

/// Emits a complete ('X') span with caller-supplied timestamps, for
/// durations measured across threads (e.g. queue wait: start stamped at
/// submit, emitted by the worker). Tags the current context like a
/// TraceSpan. No-op without a sink.
void trace_complete(const char* name, std::uint64_t start_us,
                    std::uint64_t end_us, const std::string& args_json = {});

/// RAII span: records a complete ('X') event covering its lifetime. When
/// no sink is installed at construction, every member is a no-op. Under
/// an active TraceContext the span joins the trace tree (see above) and
/// parents any span nested inside its scope on the same thread.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(name), enabled_(trace_enabled()) {
    if (enabled_) {
      start_us_ = trace_now_us();
      enter_context();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { finish(); }

  /// This span's context (its trace id + own span id), for handing to
  /// TraceContextScope on other threads so their spans parent here.
  /// Inactive when tracing is off or no trace is in progress.
  TraceContext context() const;

  /// Attaches a `"key":value` argument to the completed event. Only
  /// string-builds when a sink was installed at span start.
  template <typename T>
    requires std::is_integral_v<T>
  void arg(std::string_view key, T value) {
    arg_integer(key, static_cast<long long>(value));
  }
  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, const char* value) {
    arg(key, std::string_view(value));
  }

  /// Emits the event now instead of at destruction.
  void finish();

 private:
  void arg_integer(std::string_view key, long long value);
  void enter_context();

  const char* name_;
  bool enabled_;
  std::uint64_t start_us_ = 0;
  std::string args_;
  TraceContext parent_;
  std::uint64_t span_id_ = 0;
  bool in_context_ = false;
};

/// Sink writing the Chrome trace-event JSON object format:
/// `{"traceEvents":[{...},{...}]}`. flush() pushes everything written so
/// far to the stream WITHOUT closing the array — the trace-event readers
/// (chrome://tracing, Perfetto) tolerate a missing terminator, which is
/// what lets chopd dump a useful trace on SIGUSR1 and keep appending.
/// close() (or destruction) writes the terminator; events after close()
/// are dropped. The stream must outlive the sink.
class ChromeTraceSink : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& os);
  ~ChromeTraceSink() override;
  void event(const TraceEvent& e) override;
  void flush() override;
  void close();

 private:
  std::mutex mu_;
  std::ostream* os_;
  bool first_ = true;
  bool closed_ = false;
};

/// Sink writing one JSON object per line — greppable, streamable, and
/// trivially concatenated across runs.
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& os) : os_(&os) {}
  void event(const TraceEvent& e) override;
  void flush() override;

 private:
  std::mutex mu_;
  std::ostream* os_;
};

}  // namespace chop::obs
