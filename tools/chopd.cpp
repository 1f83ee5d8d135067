// chopd — the CHOP partitioning daemon. Hosts a ChopServer (worker pool,
// bounded priority queue, one evaluator per job) behind one of two NDJSON
// transports:
//
//   chopd --pipe                 requests on stdin, responses on stdout;
//                                EOF = graceful drain and exit
//   chopd --socket=<path>        Unix-domain socket; many concurrent
//                                clients; a {"op":"shutdown"} request
//                                drains and exits
//
// Options:
//   --workers=N            job worker threads (default 2; 0 = one per
//                          hardware thread)
//   --search-threads=N     size of the shared search pool enumeration
//                          units run on when a job asks for threads > 1
//                          (default 0 = one per hardware thread); the
//                          pool is shared by all jobs, so a long search's
//                          units interleave with other jobs' instead of
//                          monopolizing workers
//   --queue-cap=N          queued-job bound; beyond it submissions are
//                          rejected with "overload" (default 64)
//   --trace=<file>         Chrome trace-event JSON of the daemon's spans;
//                          one connected tree per job (trace id minted at
//                          submit, echoed in every response)
//   --metrics=<file>       metrics snapshot, rewritten on flush and exit
//   --metrics-jsonl=<file> periodic registry snapshots, one JSON object
//                          per line (see --metrics-interval-ms)
//   --prom=<file>          periodic Prometheus text exposition file
//   --metrics-interval-ms=N  exporter tick interval (default 1000)
//
// Telemetry is durable against ungraceful exits: SIGUSR1 flushes every
// output in place and keeps serving; SIGTERM/SIGINT finalize the files
// before the process dies. Live introspection without files: the
// metrics/healthz/profile protocol verbs.
//
// Exit status: 0 after a clean drain (EOF or shutdown request), 1 on
// usage or socket errors.
#include <iostream>
#include <string>

#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "serve/uds.hpp"

namespace {

struct DaemonOptions {
  bool pipe = false;
  std::string socket_path;
  chop::serve::ServerOptions server;
  chop::serve::TelemetryOptions telemetry;
};

int usage() {
  std::cerr
      << "usage: chopd (--pipe | --socket=<path>) [--workers=N]\n"
         "             [--search-threads=N] [--queue-cap=N]\n"
         "             [--trace=<file>]\n"
         "             [--metrics=<file>] [--metrics-jsonl=<file>]\n"
         "             [--prom=<file>] [--metrics-interval-ms=N]\n";
  return 1;
}

bool parse_args(int argc, char** argv, DaemonOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--pipe") {
        options.pipe = true;
      } else if (arg.rfind("--socket=", 0) == 0) {
        options.socket_path = arg.substr(9);
      } else if (arg.rfind("--workers=", 0) == 0) {
        options.server.workers = std::stoi(arg.substr(10));
      } else if (arg.rfind("--search-threads=", 0) == 0) {
        options.server.search_threads = std::stoi(arg.substr(17));
      } else if (arg.rfind("--queue-cap=", 0) == 0) {
        options.server.queue_capacity =
            static_cast<std::size_t>(std::stoul(arg.substr(12)));
      } else if (arg.rfind("--trace=", 0) == 0) {
        options.telemetry.trace_path = arg.substr(8);
      } else if (arg.rfind("--metrics=", 0) == 0) {
        options.telemetry.metrics_path = arg.substr(10);
      } else if (arg.rfind("--metrics-jsonl=", 0) == 0) {
        options.telemetry.metrics_jsonl_path = arg.substr(16);
      } else if (arg.rfind("--prom=", 0) == 0) {
        options.telemetry.prom_path = arg.substr(7);
      } else if (arg.rfind("--metrics-interval-ms=", 0) == 0) {
        const long ms = std::stol(arg.substr(22));
        if (ms < 10 || ms > 3600000) {
          std::cerr << "--metrics-interval-ms out of range [10,3600000]\n";
          return false;
        }
        options.telemetry.interval = std::chrono::milliseconds(ms);
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value in argument: " << arg << "\n";
      return false;
    }
  }
  if (options.pipe == !options.socket_path.empty()) {
    std::cerr << "exactly one of --pipe or --socket=<path> is required\n";
    return false;
  }
  if (options.server.workers < 0 || options.server.workers > 256) {
    std::cerr << "--workers out of range [0,256] (0 = auto-detect)\n";
    return false;
  }
  if (options.server.search_threads < 0 ||
      options.server.search_threads > 256) {
    std::cerr << "--search-threads out of range [0,256] (0 = auto-detect)\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions options;
  if (!parse_args(argc, argv, options)) return usage();

  options.telemetry.handle_signals = true;
  chop::serve::DaemonTelemetry telemetry(options.telemetry);
  std::string error;
  if (!telemetry.start(&error)) {
    std::cerr << "chopd: error: " << error << "\n";
    return 1;
  }

  chop::serve::ChopServer server(options.server);

  if (options.pipe) {
    const std::size_t handled =
        chop::serve::run_pipe_service(server, std::cin, std::cout);
    std::cerr << "chopd: drained after " << handled << " request(s)\n";
    telemetry.finalize();
    if (!options.telemetry.trace_path.empty()) {
      std::cerr << "chopd: wrote " << options.telemetry.trace_path << "\n";
    }
    if (!options.telemetry.metrics_path.empty()) {
      std::cerr << "chopd: wrote " << options.telemetry.metrics_path << "\n";
    }
    return 0;
  }

#if CHOP_SERVE_HAVE_UDS
  chop::serve::UdsServer uds(server, options.socket_path);
  if (!uds.start(&error)) {
    std::cerr << "chopd: cannot listen on " << options.socket_path << ": "
              << error << "\n";
    return 1;
  }
  std::cerr << "chopd: listening on " << options.socket_path << "\n";
  uds.wait_for_shutdown_request();
  const bool drain = uds.drain();
  server.shutdown(drain);
  uds.stop();
  telemetry.finalize();
  std::cerr << "chopd: " << (drain ? "drained" : "aborted") << " and exiting\n";
  return 0;
#else
  std::cerr << "chopd: --socket is unsupported on this platform; use --pipe\n";
  return 1;
#endif
}
