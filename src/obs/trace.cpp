#include "obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace chop::obs {

namespace {

std::atomic<TraceSink*> g_sink{nullptr};

thread_local TraceContext g_current_context;

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Appends the `"trace":"<hex>","span":N,"parent":N` triple for a span
/// (or just trace+parent for an instant) to pre-rendered args.
void append_context_args(std::string& args, const TraceContext& parent,
                         std::uint64_t span_id) {
  if (!parent.active()) return;
  if (!args.empty()) args += ',';
  args += "\"trace\":\"" + trace_id_hex(parent.trace_id) + "\"";
  if (span_id != 0) args += ",\"span\":" + std::to_string(span_id);
  args += ",\"parent\":" + std::to_string(parent.span_id);
}

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Forces the epoch to be captured at static-initialization time rather
// than at the first span, so timestamps are comparable across sinks.
[[maybe_unused]] const auto g_epoch_anchor = process_epoch();

void append_json_number(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out += buf;
}

/// Renders one event as a Chrome trace-event JSON object.
std::string render(const TraceEvent& e) {
  std::string out = "{\"name\":\"" + json_escape(e.name) + "\",\"ph\":\"";
  out += e.phase;
  out += "\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
         ",\"ts\":" + std::to_string(e.ts_us);
  if (e.phase == 'X') out += ",\"dur\":" + std::to_string(e.dur_us);
  if (e.phase == 'i') out += ",\"s\":\"t\"";  // instant scope: thread
  out += ",\"args\":{" + e.args_json + "}}";
  return out;
}

void emit(TraceSink* sink, const char* name, char phase, std::uint64_t ts,
          std::uint64_t dur, std::string args) {
  TraceEvent e;
  e.name = name;
  e.phase = phase;
  e.ts_us = ts;
  e.dur_us = dur;
  e.tid = trace_thread_id();
  e.args_json = std::move(args);
  sink->event(e);
}

}  // namespace

void install_trace_sink(TraceSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

TraceSink* trace_sink() { return g_sink.load(std::memory_order_acquire); }

std::uint64_t trace_now_us() {
  const auto now = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                            process_epoch())
          .count());
}

std::uint32_t trace_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::string trace_id_hex(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return buf;
}

TraceContextScope::TraceContextScope(TraceContext ctx) {
  if (!ctx.active()) return;
  prev_ = g_current_context;
  g_current_context = ctx;
  installed_ = true;
}

TraceContextScope::~TraceContextScope() {
  if (installed_) g_current_context = prev_;
}

void trace_complete(const char* name, std::uint64_t start_us,
                    std::uint64_t end_us, const std::string& args_json) {
  TraceSink* sink = trace_sink();
  if (!sink) return;
  std::string args = args_json;
  append_context_args(args, g_current_context, next_span_id());
  if (end_us < start_us) end_us = start_us;
  emit(sink, name, 'X', start_us, end_us - start_us, std::move(args));
}

void trace_instant(const char* name, const std::string& args_json) {
  TraceSink* sink = trace_sink();
  if (!sink) return;
  std::string args = args_json;
  append_context_args(args, g_current_context, 0);
  emit(sink, name, 'i', trace_now_us(), 0, args);
}

void TraceSpan::arg_integer(std::string_view key, long long value) {
  if (!enabled_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += json_escape(key);
  args_ += "\":" + std::to_string(value);
}

void TraceSpan::arg(std::string_view key, double value) {
  if (!enabled_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += json_escape(key);
  args_ += "\":";
  append_json_number(args_, value);
}

void TraceSpan::arg(std::string_view key, std::string_view value) {
  if (!enabled_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += json_escape(key);
  args_ += "\":\"" + json_escape(value) + "\"";
}

void TraceSpan::enter_context() {
  parent_ = g_current_context;
  if (!parent_.active()) return;
  span_id_ = next_span_id();
  g_current_context = TraceContext{parent_.trace_id, span_id_};
  in_context_ = true;
}

TraceContext TraceSpan::context() const {
  if (!enabled_ || !parent_.active()) return {};
  return TraceContext{parent_.trace_id, span_id_};
}

void TraceSpan::finish() {
  if (!enabled_) return;
  enabled_ = false;
  if (in_context_) {
    // Spans nest LIFO per thread, so popping back to the captured parent
    // restores the context the enclosing span installed.
    g_current_context = parent_;
    in_context_ = false;
  }
  // Re-read the sink: if it was uninstalled mid-span, drop the event
  // rather than write to a dead sink.
  TraceSink* sink = trace_sink();
  if (!sink) return;
  append_context_args(args_, parent_, span_id_);
  const std::uint64_t end = trace_now_us();
  emit(sink, name_, 'X', start_us_, end - start_us_, std::move(args_));
}

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(&os) {
  *os_ << "{\"traceEvents\":[\n";
}

ChromeTraceSink::~ChromeTraceSink() { close(); }

void ChromeTraceSink::event(const TraceEvent& e) {
  const std::string line = render(e);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  if (!first_) *os_ << ",\n";
  first_ = false;
  *os_ << line;
}

void ChromeTraceSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  // Push what we have without terminating the array: trace viewers
  // accept the unterminated form, and chopd's SIGUSR1 dump relies on
  // being able to keep appending afterwards.
  os_->flush();
}

void ChromeTraceSink::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  *os_ << "\n]}\n";
  os_->flush();
}

void JsonlTraceSink::event(const TraceEvent& e) {
  const std::string line = render(e);
  std::lock_guard<std::mutex> lock(mu_);
  *os_ << line << "\n";
}

void JsonlTraceSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  os_->flush();
}

}  // namespace chop::obs
