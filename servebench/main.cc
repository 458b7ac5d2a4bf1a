// servebench: the end-to-end serving benchmark. One run builds a
// workload from --seed, drives the real firehose_serve binary as a
// child process over loopback from this single-threaded load generator
// (one connection), checks every served result against the in-process
// engine, and prints a report whose last line is the result object.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --work_dir DIR
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 alternates untraced and traced sessions and reports the
// per-layer metrics: spans kept in memory around every call this
// program makes into a layer, in-process probes of the layers the
// client cannot see, and the server's own counters from /varz.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "servebench/probes.h"
#include "servebench/server_process.h"
#include "servebench/stats.h"
#include "servebench/trace.h"
#include "servebench/workload.h"
#include "src/core/kernels/dispatch.h"
#include "src/firehose.h"

#ifndef SERVEBENCH_SERVE_BINARY
#error "SERVEBENCH_SERVE_BINARY must name the firehose_serve executable"
#endif
#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using namespace firehose;

/// A run keeps starting sessions until --seconds is spent, but never
/// stops before it has these many, so set-up time is a median and both
/// p90s have at least ten samples above them.
constexpr size_t kMinSessions = 3;
constexpr size_t kMinLatencySamples = 100;
/// Measurement stops starting sessions past this, whatever the samples,
/// so a run always ends inside the 180 s the harness is allowed.
constexpr double kMeasureCapSeconds = 110;
/// The client-side breakdown must attribute all but this share of the
/// traced sessions' wall time to named spans.
constexpr double kMaxUnattributedShare = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      values[arg] = argv[++i];
    } else {
      return false;
    }
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "work_dir"}) {
    if (values.count(key) == 0) return false;
  }
  if (values.size() != 5) return false;
  char* end = nullptr;
  args->workload = values["workload"];
  args->seed = std::strtoull(values["seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  args->seconds = std::strtod(values["seconds"].c_str(), &end);
  if (*end != '\0' || args->seconds <= 0) return false;
  if (values["trace"] != "0" && values["trace"] != "1") return false;
  args->trace = values["trace"] == "1";
  args->work_dir = values["work_dir"];
  return true;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Everything one server session measured. A session is one server
/// process: spawn, set-up, the workload's traffic, shutdown.
struct Session {
  bool completed = false;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  double setup_s = 0;
  double ingest_posts_per_s = 0;
  double cpu_ms = 0;
  double peak_rss_mb = 0;
  uint64_t posts_sent = 0;
  std::vector<double> flush_ms;
  std::vector<double> poll_ms;
  int64_t max_late_ns = 0;  ///< open loop: worst post start after its due time

  // Traced sessions only.
  uint64_t poll_reply_bytes = 0;
  uint64_t varz_received = 0;
  uint64_t varz_ingested = 0;
};

struct SessionInputs {
  const WorkloadSpec& spec;
  const Workload& workload;
  uint64_t seed;
  std::string graph_path;
  std::string dir;  ///< per-run working directory
};

std::optional<CpuTimes> ReadCpuTimes() {
  std::string text;
  if (!ReadFileToString("/proc/stat", &text)) return std::nullopt;
  return ParseProcStatCpuLine(text);
}

/// Debug port announced in firehose_serve's log (only with --debug_port).
int DebugPortFromLog(const std::string& log_path) {
  std::string log;
  if (!ReadFileToString(log_path, &log)) return 0;
  constexpr std::string_view kPrefix = "debug server listening on http://127.0.0.1:";
  const size_t pos = log.find(kPrefix);
  return pos == std::string::npos ? 0
                                  : std::atoi(log.c_str() + pos + kPrefix.size());
}

/// Reads serve.posts_received / serve.posts_ingested from /varz. The
/// dispatcher republishes only when its connection idles for 100 ms, so
/// this waits past that and retries until the snapshot is current.
bool ScrapeVarz(int debug_port, uint64_t posts_sent, Session* s) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    int status = 0;
    std::string body;
    if (!HttpGet(debug_port, "/varz", &status, &body) || status != 200) continue;
    const auto received = ParseVarzCounter(body, "serve.posts_received");
    const auto ingested = ParseVarzCounter(body, "serve.posts_ingested");
    if (received && ingested && *received == posts_sent) {
      s->varz_received = *received;
      s->varz_ingested = *ingested;
      return true;
    }
  }
  return false;
}

Session RunSession(const SessionInputs& in, int index, SpanRecorder& spans) {
  const WorkloadSpec& spec = in.spec;
  const Workload& w = in.workload;
  const bool traced = spans.enabled();
  Session s;
  ScopedSpan root(spans, "session");

  // Counts an attempted client operation and records its failure.
  auto op = [&](const char* name, auto&& call) {
    ScopedSpan span(spans, name);
    ++s.attempted;
    if (call()) return true;
    ++s.failed;
    return false;
  };

  const std::string tag = in.dir + "/session-" + std::to_string(index);
  std::vector<std::string> args = {
      "--graph=" + in.graph_path,
      "--port_file=" + tag + ".port",
      "--shards=" + std::to_string(kShards),
      "--algorithm=cliquebin",
      "--lambda_c=" + std::to_string(kLambdaC),
      "--lambda_t_min=" + std::to_string(kLambdaTMinutes)};
  if (traced) args.push_back("--debug_port=0");

  ServerProcess server;
  net::ServeClient client("servebench");
  const int64_t spawn_ns = NowNs();
  int port = 0;
  {
    ScopedSpan span(spans, "server.spawn");
    if (!server.Spawn(SERVEBENCH_SERVE_BINARY, args, tag + ".log", &s.error) ||
        !server.WaitForPortFile(tag + ".port", 30000, &port, &s.error)) {
      ++s.failed;
      return s;
    }
  }
  if (!op("net.connect", [&] { return client.Connect(port); })) {
    s.error = client.last_error();
    return s;
  }

  // Set-up: every subscription, then the seal, whose shard build the
  // first barrier waits for.
  for (const User& user : w.users) {
    for (AuthorId author : user.subscriptions) {
      if (!op("net.follow", [&] { return client.Follow(user.id, author); })) {
        s.error = client.last_error();
        return s;
      }
    }
  }
  uint64_t ingested = 0;
  if (!op("net.seal", [&] {
        return client.Seal(w.users.size()) && client.Flush(&ingested);
      })) {
    s.error = client.last_error();
    return s;
  }
  s.attempted += 1;  // the Seal and its barrier are two operations
  s.setup_s = Seconds(NowNs() - spawn_ns);

  // Replay. Closed loop: each call goes out when the previous returned,
  // and latency runs from the call. Open loop: operation i is due at
  // i / rate whatever the server does, and latency runs from when due.
  const bool open_loop = spec.posts_per_second > 0;
  const PostStream& stream = w.stream;
  const SimHasher hasher;
  OpenLoopSchedule schedule(NowNs(), open_loop ? spec.posts_per_second : 1.0);
  Rng poll_rng(in.seed ^ 0x9e11ull);
  std::vector<uint32_t> seen(w.users.size(), 0);
  std::vector<PostId> timeline;
  int64_t first_send_ns = 0;
  int64_t last_ack_ns = 0;

  // A polled timeline must equal the reference suffix [since, visible),
  // where visible counts the reference posts sent so far.
  auto check_timeline = [&](UserId user, uint32_t since, PostId last_sent) {
    ScopedSpan span(spans, "check.timeline");
    const std::vector<PostId>& expected = w.expected[user];
    const size_t visible = static_cast<size_t>(
        std::upper_bound(expected.begin(), expected.end(), last_sent) -
        expected.begin());
    const bool match =
        since <= visible && timeline.size() == visible - since &&
        std::equal(timeline.begin(), timeline.end(), expected.begin() + since);
    if (traced) {
      net::NetMessage reply;
      reply.type = net::MsgType::kTimeline;
      reply.user = user;
      reply.since = since;
      reply.post_ids = timeline;
      std::string frame;
      net::AppendMessage(reply, &frame);
      s.poll_reply_bytes += frame.size();
    }
    if (!match) {
      ++s.failed;
      if (s.error.empty()) {
        s.error = "user " + std::to_string(user) + " timeline differs from the reference";
      }
    }
    seen[user] = static_cast<uint32_t>(visible);
  };

  for (size_t i = 0; i < stream.size(); ++i) {
    const Post& post = stream[i];
    const int64_t due = schedule.DueNs(i);
    if (open_loop) {
      if (NowNs() < due) {
        ScopedSpan span(spans, "loadgen.wait");
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
      }
      schedule.RecordStart(i, NowNs());
    }
    uint64_t fingerprint = 0;
    {
      ScopedSpan span(spans, "simhash.fingerprint");
      fingerprint = hasher.Fingerprint(post.text);
    }
    if (i == 0) first_send_ns = NowNs();
    if (!op("net.send_post", [&] { return client.SendPost(post); })) {
      s.error = client.last_error();
      return s;
    }
    if (fingerprint != post.simhash) {
      ++s.failed;
      s.error = "post " + std::to_string(post.id) + " fingerprint differs from the stream";
    }
    ++s.posts_sent;

    if (open_loop && spec.poll_every > 0 && (i + 1) % spec.poll_every == 0) {
      const UserId user = static_cast<UserId>(poll_rng.UniformInt(w.users.size()));
      const uint32_t since = seen[user];
      if (!op("net.poll_wait",
              [&] { return client.Poll(user, since, &timeline); })) {
        s.error = client.last_error();
        return s;
      }
      s.poll_ms.push_back(Millis(NowNs() - due));
      check_timeline(user, since, post.id);
    }
    if ((i + 1) % spec.flush_every == 0 || i + 1 == stream.size()) {
      const int64_t issued = open_loop ? due : NowNs();
      if (!op("net.flush_wait", [&] { return client.Flush(&ingested); })) {
        s.error = client.last_error();
        return s;
      }
      last_ack_ns = NowNs();
      s.flush_ms.push_back(Millis(last_ack_ns - issued));
    }
  }
  s.ingest_posts_per_s = static_cast<double>(s.posts_sent) /
                         std::max(Seconds(last_ack_ns - first_send_ns), 1e-9);
  s.max_late_ns = schedule.max_late_ns();
  if (ingested != w.expected_ingested) {
    ++s.failed;
    s.error = "final FlushAck ingested " + std::to_string(ingested) +
              ", expected shard fan-out " + std::to_string(w.expected_ingested);
  }

  // The replays end with the §6.3 full poll of every user.
  if (!open_loop) {
    const PostId last = stream.empty() ? 0 : stream.back().id;
    for (const User& user : w.users) {
      const int64_t issued = NowNs();
      if (!op("net.poll_wait",
              [&] { return client.Poll(user.id, 0, &timeline); })) {
        s.error = client.last_error();
        return s;
      }
      s.poll_ms.push_back(Millis(NowNs() - issued));
      check_timeline(user.id, 0, last);
    }
  }

  {
    ScopedSpan span(spans, "server.usage");
    if (!server.ReadUsage(&s.cpu_ms, &s.peak_rss_mb)) {
      s.error = "cannot read the server's /proc usage";
      ++s.failed;
      return s;
    }
  }
  if (traced) {
    ScopedSpan span(spans, "server.varz");
    if (!ScrapeVarz(DebugPortFromLog(tag + ".log"), s.posts_sent, &s)) {
      s.error = "no current /varz snapshot from the debug server";
      ++s.failed;
      return s;
    }
  }
  if (!op("net.shutdown", [&] { return client.Shutdown(); })) {
    s.error = client.last_error();
    return s;
  }
  {
    ScopedSpan span(spans, "server.exit");
    if (!server.WaitExit(30000, &s.error)) {
      ++s.failed;
      return s;
    }
  }
  s.completed = true;
  return s;
}

struct PerLayerRow {
  const char* name;
  const char* unit;
  const char* moves;  ///< the end-to-end metric it should move
};

// The per-layer metrics and the end-to-end metric each should move.
constexpr PerLayerRow kPerLayer[] = {
    {"simhash.fingerprint_ns", "ns", "ingest_posts_per_s on burst_replay (client share)"},
    {"net.encode_ns", "ns", "ingest_posts_per_s on burst_replay"},
    {"net.decode_ns", "ns", "ingest_posts_per_s on burst_replay"},
    {"net.send_post_us", "us", "ingest_posts_per_s on burst_replay"},
    {"net.flush_wait_ms", "ms", "flush_ms_* on every workload"},
    {"net.poll_wait_ms", "ms", "poll_ms_* on every workload"},
    {"net.follow_us", "us", "setup_s"},
    {"net.seal_ms", "ms", "setup_s"},
    {"io.bytes_sent_per_post", "bytes", "ingest_posts_per_s on burst_replay"},
    {"io.bytes_recv_per_poll", "bytes", "poll_ms_p50 on read_mix"},
    {"placement.shard_skew", "ratio", "ingest_posts_per_s on burst_replay"},
    {"core.build_ms", "ms", "setup_s on every workload"},
    {"core.decide_ns", "ns", "ingest_posts_per_s, server_cpu_ms_per_kpost on burst_replay"},
    {"core.admit_ratio", "ratio", "peak_rss_mb (deliveries)"},
    {"core.deliveries_per_post", "count", "peak_rss_mb, poll_ms_* (timeline size)"},
    {"dur.append_ns", "ns", "none here (no workload runs a WAL)"},
    {"dur.sync_us", "us", "none here (no workload runs a WAL)"},
    {"dur.fsyncs_per_post", "count", "none here (no workload runs a WAL)"},
    {"serve.shard_fanout", "ratio", "reading aid for burst_replay"},
    {"serve.efficiency_pct", "%", "reading aid for burst_replay"},
    {"obs.trace_overhead_pct", "%", "none (must stay small)"},
    {"loadgen.late_ms_max", "ms", "validity of read_mix"},
    {"trace.unattributed_pct", "%", "none (breakdown remainder)"},
    // Latency tails of the untraced sessions. Reported, not gated: on a
    // shared virtual machine sub-millisecond tails move with the host's
    // steal time by more than any usable regression bound.
    {"flush_ms_p90", "ms", "tail of flush_ms_p50"},
    {"flush_ms_p99", "ms", "tail of flush_ms_p50"},
    {"poll_ms_p90", "ms", "tail of poll_ms_p50"},
    {"poll_ms_p99", "ms", "tail of poll_ms_p50"},
};

template <typename F>
std::vector<double> Collect(const std::vector<Session>& sessions, F&& field) {
  std::vector<double> values;
  for (const Session& s : sessions) {
    if (s.completed) values.push_back(field(s));
  }
  return values;
}

/// Latency samples of each completed session.
std::vector<std::vector<double>> PerSession(
    const std::vector<Session>& sessions, std::vector<double> Session::*samples) {
  std::vector<std::vector<double>> out;
  for (const Session& s : sessions) {
    if (s.completed) out.push_back(s.*samples);
  }
  return out;
}

size_t SampleCount(const std::vector<Session>& sessions,
                   std::vector<double> Session::*samples) {
  size_t count = 0;
  for (const Session& s : sessions) count += (s.*samples).size();
  return count;
}

/// The gated p50/p90 of one latency, plus the pooled p99 that is only
/// reported: it does not repeat within the bounds from run to run.
struct Latency {
  SessionQuantile p50;
  SessionQuantile p90;
  Summary pooled;
};

Latency ReportLatency(const std::vector<std::vector<double>>& sessions) {
  std::vector<double> pooled;
  for (const auto& samples : sessions) {
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  return {QuantileOverSessions(sessions, 0.5), QuantileOverSessions(sessions, 0.9),
          Summarize(std::move(pooled))};
}

std::string LatencyText(const Latency& l) {
  char text[200];
  std::snprintf(text, sizeof(text),
                "p50 %.3f  p90 %.3f ms (n=%zu, %s; %zu beyond pooled p90), "
                "pooled p99 %.3f ms (%zu beyond)",
                l.p50.value, l.p90.value, l.p90.count,
                l.p90.pooled ? "pooled" : "median of per-session quantiles",
                l.pooled.beyond_p90, l.pooled.p99, l.pooled.beyond_p99);
  return text;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload %s --seed N --seconds S "
                 "--trace 0|1 --work_dir DIR\n",
                 WorkloadNames().c_str());
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s' (expected %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  // A server that dies mid-write must fail the call, not this process.
  (void)::signal(SIGPIPE, SIG_IGN);

  const std::string dir = args.work_dir + "/run-" + args.workload + "-" +
                          std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());
  std::error_code fs_error;
  std::filesystem::create_directories(dir, fs_error);
  if (fs_error) {
    std::fprintf(stderr, "error: cannot create %s\n", dir.c_str());
    return 1;
  }

  const Workload workload = MakeWorkload(*spec, args.seed);
  const std::string graph_path = dir + "/author_graph.bin";
  if (!SaveAuthorGraph(workload.graph, graph_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", graph_path.c_str());
    return 1;
  }

  char context[512];
  std::snprintf(
      context, sizeof(context),
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %ld, "
      "\"kernel\": \"%s\", \"build_type\": \"%s\", \"build\": \"%s\", "
      "\"authors\": %u, \"users\": %zu, \"follows\": %llu, \"posts\": %zu}",
      spec->name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      ::sysconf(_SC_NPROCESSORS_ONLN), kernels::GetKernelDispatchReport().active,
      SERVEBENCH_BUILD_TYPE, BuildInfoString().c_str(), spec->authors,
      workload.users.size(), static_cast<unsigned long long>(workload.follows),
      workload.stream.size());
  std::printf("context %s\n", context);
  std::printf("inputs: generated in %.2f s; reference: %llu deliveries, "
              "%llu shard ingests expected\n",
              workload.generate_s,
              static_cast<unsigned long long>(workload.deliveries),
              static_cast<unsigned long long>(workload.expected_ingested));

  LayerProbes probes;
  if (args.trace) probes = ProbeLayers(workload, dir);

  // Sessions. An untraced run keeps going until --seconds is spent; a
  // traced run alternates untraced and traced sessions (untraced first)
  // so the tracing overhead is measured on the same inputs.
  const SessionInputs inputs{*spec, workload, args.seed, graph_path, dir};
  std::vector<Session> plain;
  std::vector<Session> traced;
  SpanRecorder no_spans(false);
  SpanRecorder spans(true);
  const int64_t measure_start = NowNs();
  const std::optional<CpuTimes> cpu_before = ReadCpuTimes();
  double last_session_s = 0;
  bool session_failed = false;
  for (int index = 0;; ++index) {
    const double elapsed = Seconds(NowNs() - measure_start);
    const size_t flushes = SampleCount(plain, &Session::flush_ms);
    const size_t polls = SampleCount(plain, &Session::poll_ms);
    const bool minimum_met =
        args.trace ? !plain.empty() && !traced.empty()
                   : plain.size() >= kMinSessions &&
                         flushes >= kMinLatencySamples &&
                         polls >= kMinLatencySamples;
    if (session_failed || elapsed >= kMeasureCapSeconds) break;
    if (minimum_met && elapsed + last_session_s > args.seconds) break;
    const bool use_trace = args.trace && index % 2 == 1;
    const int64_t start = NowNs();
    Session session = RunSession(inputs, index, use_trace ? spans : no_spans);
    last_session_s = Seconds(NowNs() - start);
    session_failed = !session.completed;
    const Summary f = Summarize(session.flush_ms);
    const Summary p = Summarize(session.poll_ms);
    std::printf("session %d%s: %.1f s; setup %.4f s, %.1f posts/s, flush p50/p90 "
                "%.3f/%.3f ms, poll p50/p90 %.3f/%.3f ms, cpu %.0f ms, rss %.1f MB\n",
                index, use_trace ? " (traced)" : "", last_session_s, session.setup_s,
                session.ingest_posts_per_s, f.p50, f.p90, p.p50, p.p90,
                session.cpu_ms, session.peak_rss_mb);
    if (!session.error.empty()) {
      std::printf("session %d: error: %s\n", index, session.error.c_str());
    }
    (use_trace ? traced : plain).push_back(std::move(session));
  }

  // Host contention during the measurement, for reading the numbers.
  const std::optional<CpuTimes> cpu_after = ReadCpuTimes();
  double steal_pct = -1;
  if (cpu_before && cpu_after && cpu_after->total > cpu_before->total) {
    steal_pct = 100.0 * static_cast<double>(cpu_after->steal - cpu_before->steal) /
                static_cast<double>(cpu_after->total - cpu_before->total);
  }

  RunResult result;
  for (const std::vector<Session>* group : {&plain, &traced}) {
    for (const Session& s : *group) {
      result.attempted += s.attempted;
      result.failed += s.failed;
    }
  }
  result.failed += probes.codec_mismatches + (probes.wal_ok ? 0 : 1);
  result.attempted = std::max<uint64_t>(result.attempted, 1);
  result.failed = std::min(result.failed, result.attempted);
  result.correct = result.failed == 0 && !session_failed;

  const Latency flush = ReportLatency(PerSession(plain, &Session::flush_ms));
  const Latency poll = ReportLatency(PerSession(plain, &Session::poll_ms));
  const double setup_s = Median(Collect(plain, [](const Session& s) { return s.setup_s; }));
  const double rate =
      Median(Collect(plain, [](const Session& s) { return s.ingest_posts_per_s; }));
  const double cpu = Median(Collect(plain, [](const Session& s) {
    return s.cpu_ms / (static_cast<double>(s.posts_sent) / 1000.0);
  }));
  const double rss = Median(Collect(plain, [](const Session& s) { return s.peak_rss_mb; }));
  const double failed_pct = 100.0 * static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted);

  std::printf("\n%s seed %llu: %zu untraced session(s)%s\n", spec->name,
              static_cast<unsigned long long>(args.seed), plain.size(),
              args.trace ? (", " + std::to_string(traced.size()) + " traced").c_str() : "");
  std::printf("  setup_s                 %10.4f s      (median of %zu)\n", setup_s, plain.size());
  std::printf("  ingest_posts_per_s      %10.1f posts/s (median of %zu)\n", rate, plain.size());
  std::printf("  flush_ms                %s\n", LatencyText(flush).c_str());
  std::printf("  poll_ms                 %s\n", LatencyText(poll).c_str());
  std::printf("  server_cpu_ms_per_kpost %10.2f ms     (median of %zu)\n", cpu, plain.size());
  std::printf("  peak_rss_mb             %10.1f MB     (median of %zu)\n", rss, plain.size());
  std::printf("  ops_failed_pct          %10.4f %%      (%llu of %llu operations)\n",
              failed_pct, static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  // How late the open-loop generator ran in the untraced sessions: the
  // latencies above are valid only while this stays small.
  int64_t late_ns = 0;
  for (const Session& s : plain) late_ns = std::max(late_ns, s.max_late_ns);
  if (spec->posts_per_second > 0) {
    std::printf("  generator lateness      %10.3f ms     (worst post)\n", Millis(late_ns));
  }
  std::printf("  host steal              %10.2f %%      (of all CPU time while measuring)\n",
              steal_pct);

  if (!args.trace) {
    result.metrics["setup_s"] = {setup_s, "s"};
    result.metrics["ingest_posts_per_s"] = {rate, "posts/s"};
    result.metrics["flush_ms_p50"] = {flush.p50.value, "ms"};
    result.metrics["poll_ms_p50"] = {poll.p50.value, "ms"};
    result.metrics["server_cpu_ms_per_kpost"] = {cpu, "ms"};
    result.metrics["peak_rss_mb"] = {rss, "MB"};
  } else {
    // Client-side breakdown of the traced sessions.
    const auto by_name = spans.Aggregate();
    const int64_t wall_ns = spans.RootNs();
    int64_t attributed_ns = 0;
    std::printf("\n  client-side breakdown of %zu traced session(s), wall %.1f ms\n",
                traced.size(), Millis(wall_ns));
    std::printf("  %-22s %10s %12s %12s %8s\n", "span", "count", "total ms",
                "self ms", "share");
    for (const auto& [name, st] : by_name) {
      if (name == "session") continue;
      attributed_ns += st.self_ns;
      std::printf("  %-22s %10llu %12.2f %12.2f %7.2f%%\n", name.c_str(),
                  static_cast<unsigned long long>(st.count), Millis(st.total_ns),
                  Millis(st.self_ns),
                  wall_ns > 0 ? 100.0 * static_cast<double>(st.self_ns) /
                                    static_cast<double>(wall_ns)
                              : 0.0);
    }
    const int64_t unattributed_ns = wall_ns - attributed_ns;
    const double unattributed_pct =
        wall_ns > 0 ? 100.0 * static_cast<double>(unattributed_ns) /
                          static_cast<double>(wall_ns)
                    : 100.0;
    const bool reconciles = unattributed_ns >= 0 &&
                            unattributed_pct <= 100.0 * kMaxUnattributedShare;
    std::printf("  %-22s %10s %12s %12.2f %7.2f%%  (%s: limit %.0f%%)\n",
                "unattributed", "", "", Millis(unattributed_ns), unattributed_pct,
                reconciles ? "reconciles" : "DOES NOT RECONCILE",
                100.0 * kMaxUnattributedShare);
    if (!reconciles) {
      ++result.failed;
      result.correct = false;
    }

    auto mean_of = [&](const char* name, double scale) {
      const auto it = by_name.find(name);
      return it == by_name.end() || it->second.count == 0
                 ? 0.0
                 : static_cast<double>(it->second.total_ns) /
                       static_cast<double>(it->second.count) / scale;
    };
    auto p50_of = [&](const char* name, double scale) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : Summarize(it->second.durations_ns).p50 / scale;
    };
    uint64_t polls = 0;
    uint64_t reply_bytes = 0;
    double fanout = 0;
    for (const Session& s : traced) {
      polls += s.poll_ms.size();
      reply_bytes += s.poll_reply_bytes;
      if (s.varz_received > 0) {
        fanout = static_cast<double>(s.varz_ingested) /
                 static_cast<double>(s.varz_received);
      }
    }
    const double traced_rate =
        Median(Collect(traced, [](const Session& s) { return s.ingest_posts_per_s; }));
    uint64_t shard_max = 0;
    uint64_t shard_sum = 0;
    for (uint64_t n : workload.shard_posts) {
      shard_max = std::max(shard_max, n);
      shard_sum += n;
    }
    const double posts = static_cast<double>(std::max<size_t>(workload.stream.size(), 1));

    std::map<std::string, double> v;
    v["simhash.fingerprint_ns"] = mean_of("simhash.fingerprint", 1);
    v["net.encode_ns"] = probes.encode_ns;
    v["net.decode_ns"] = probes.decode_ns;
    v["net.send_post_us"] = mean_of("net.send_post", 1e3);
    v["net.flush_wait_ms"] = p50_of("net.flush_wait", 1e6);
    v["net.poll_wait_ms"] = p50_of("net.poll_wait", 1e6);
    v["net.follow_us"] = mean_of("net.follow", 1e3);
    v["net.seal_ms"] = mean_of("net.seal", 1e6);
    v["io.bytes_sent_per_post"] = probes.bytes_per_post;
    v["io.bytes_recv_per_poll"] =
        polls == 0 ? 0 : static_cast<double>(reply_bytes) / static_cast<double>(polls);
    v["placement.shard_skew"] =
        shard_sum == 0 ? 0
                       : static_cast<double>(shard_max) /
                             (static_cast<double>(shard_sum) / workload.shard_posts.size());
    v["core.build_ms"] = workload.build_ms;
    v["core.decide_ns"] = workload.decide_ns;
    v["core.admit_ratio"] = workload.admit_ratio;
    v["core.deliveries_per_post"] = static_cast<double>(workload.deliveries) / posts;
    v["dur.append_ns"] = probes.append_ns;
    v["dur.sync_us"] = probes.sync_us_p50;
    v["dur.fsyncs_per_post"] = probes.fsyncs_per_post;
    v["serve.shard_fanout"] = fanout;
    v["serve.efficiency_pct"] =
        workload.decide_ns > 0 ? 100.0 * traced_rate / (1e9 / workload.decide_ns) : 0;
    v["obs.trace_overhead_pct"] = traced_rate > 0 ? 100.0 * (rate / traced_rate - 1.0) : 0;
    v["loadgen.late_ms_max"] = Millis(late_ns);
    v["trace.unattributed_pct"] = unattributed_pct;
    v["flush_ms_p90"] = flush.p90.value;
    v["flush_ms_p99"] = flush.pooled.p99;
    v["poll_ms_p90"] = poll.p90.value;
    v["poll_ms_p99"] = poll.pooled.p99;

    std::printf("\n  %-26s %14s  %-6s %s\n", "per-layer metric", "value", "unit",
                "should move");
    for (const PerLayerRow& row : kPerLayer) {
      std::printf("  %-26s %14.4f  %-6s %s\n", row.name, v[row.name], row.unit,
                  row.moves);
      result.metrics[row.name] = {v[row.name], row.unit};
    }
    const std::string spans_path = args.work_dir + "/" + spec->name + "-seed" +
                                   std::to_string(args.seed) + "-spans.tsv";
    if (spans.Write(spans_path)) std::printf("  spans written to %s\n", spans_path.c_str());
  }

  const std::string line = FormatResultLine(result);
  RunResult reparsed;
  if (!ParseResultLine(line, &reparsed)) {
    std::fprintf(stderr, "error: result line does not parse back: %s\n", line.c_str());
    return 1;
  }
  const std::string result_path = args.work_dir + "/" + spec->name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  if (std::FILE* file = std::fopen(result_path.c_str(), "wb")) {
    std::fprintf(file, "{\"context\": %s,\n \"steal_pct\": %.3f,\n \"result\": %s}\n",
                 context, steal_pct, line.c_str());
    std::fclose(file);
  }
  std::filesystem::remove_all(dir, fs_error);
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
