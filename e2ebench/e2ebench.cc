// End-to-end benchmark over the reactor: starts an in-process Engine and
// net::ReactorServer on loopback, drives one named workload through the
// wire in both dialects, checks every answer, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
// See README.md next to this file for what each workload stresses and how
// to read the output.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "onex/core/query_processor.h"
#include "onex/distance/kernels.h"
#include "onex/engine/engine.h"
#include "onex/json/json.h"
#include "onex/net/client.h"
#include "onex/net/frame.h"
#include "onex/net/protocol.h"
#include "onex/net/reactor.h"
#include "onex/net/socket.h"
#include "workload.h"

#ifndef ONEX_E2E_BUILD_TYPE
#define ONEX_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using onex::json::Value;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t NsSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Strips wall-clock fields so two executions of one command compare equal
/// (the same scrub the serving-path bench applies).
void ScrubVolatile(Value* v) {
  if (v->is_object()) {
    v->mutable_object().erase("elapsed_ms");
    v->mutable_object().erase("build_seconds");
    v->mutable_object().erase("uptime_s");
    for (auto& entry : v->mutable_object()) ScrubVolatile(&entry.second);
  } else if (v->is_array()) {
    for (auto& entry : v->mutable_array()) ScrubVolatile(&entry);
  }
}

std::string Scrubbed(Value v) {
  ScrubVolatile(&v);
  return v.Dump();
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Bytes this process has passed to write()/pwrite() (socket sends go
/// through send() and are not counted), from /proc/self/io.
std::uint64_t ProcWchar() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

// ---------------------------------------------------------------------------
// Wire connection with a bounded in-flight window.
//
// OnexClient::SendMany only hands back a whole batch, so it cannot time one
// request; the timed loops use the same net primitives it is built from
// (Socket, LineReader, FrameReader, EncodeFrame) and stamp every reply.
// ---------------------------------------------------------------------------
class WireConn {
 public:
  WireConn(std::uint16_t port, bool binary) : binary_(binary) {
    onex::Result<onex::net::Socket> s = onex::net::ConnectTcp("127.0.0.1", port);
    if (!s.ok()) Fatal("connect: " + s.status().ToString());
    socket_ = std::make_unique<onex::net::Socket>(std::move(*s));
    lines_ = std::make_unique<onex::net::LineReader>(socket_.get(), 1u << 30);
    if (binary_) {
      Check(socket_->SendAll("BIN\n"), "BIN");
      onex::Result<std::string> ack = lines_->ReadLine();
      if (!ack.ok() || ack->find("\"ok\":true") == std::string::npos) {
        Fatal("binary upgrade failed");
      }
      frames_ = std::make_unique<onex::net::FrameReader>(
          socket_.get(), onex::net::ResponseFrameLimits());
    }
  }

  /// Sends one command; returns its request id.
  std::uint64_t Send(const std::string& line) {
    const std::uint64_t id = next_id_++;
    if (binary_) {
      onex::net::Frame frame;
      frame.type = onex::net::FrameType::kRequest;
      frame.request_id = id;
      frame.text = line;
      const std::string wire = onex::net::EncodeFrame(frame);
      bytes_sent_ += wire.size();
      Check(socket_->SendAll(wire), "send");
    } else {
      bytes_sent_ += line.size() + 1;
      Check(socket_->SendAll(line + "\n"), "send");
    }
    return id;
  }

  /// Blocks for the next reply: its request id and JSON body text. Text
  /// replies are positional; binary ones carry the echoed id.
  std::pair<std::uint64_t, std::string> Receive() {
    if (binary_) {
      onex::Result<onex::net::Frame> frame = frames_->ReadFrame();
      if (!frame.ok()) Fatal("receive: " + frame.status().ToString());
      return {frame->request_id, std::move(frame->text)};
    }
    onex::Result<std::string> line = lines_->ReadLine();
    if (!line.ok()) Fatal("receive: " + line.status().ToString());
    return {next_text_reply_++, std::move(*line)};
  }

  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  static void Check(const onex::Status& s, const char* what) {
    if (!s.ok()) Fatal(std::string(what) + ": " + s.ToString());
  }

  bool binary_;
  std::unique_ptr<onex::net::Socket> socket_;
  std::unique_ptr<onex::net::LineReader> lines_;
  std::unique_ptr<onex::net::FrameReader> frames_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_text_reply_ = 1;
  std::uint64_t bytes_sent_ = 0;
};

// ---------------------------------------------------------------------------
// In-process layer calls (the traced run) and their spans.
// ---------------------------------------------------------------------------

/// One layer call of one request. `parent` names the span that logically
/// contains this one; the in-process calls are replayed one at a time, so
/// a child's interval is a separate call of the same work, not nested.
struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// What the traced run learns about one sampled request.
struct LayerRecord {
  Verb verb = Verb::kMatch;
  std::string line;
  double roundtrip_ms = -1.0;  ///< -1: not sent over the wire.
  double parse_us = 0.0;
  double execute_ms = -1.0;
  double format_ms = -1.0;
  double engine_ms = -1.0;   ///< The Engine call ExecuteCommand makes.
  double acquire_ms = -1.0;  ///< DatasetRegistry::GetPrepared.
  double core_ms = -1.0;     ///< QueryProcessor on the snapshot's base.
  double dtw_ns_per_cell = -1.0;
  double lb_ns_per_point = -1.0;
  std::size_t reply_bytes = 0;  ///< Scrubbed, formatted reply size.
  std::size_t new_members = 0;  ///< EXTEND only.
  onex::QueryStats stats;
};

/// Tracer-side recorder: one per thread, merged at the end.
struct SpanLog {
  Clock::time_point origin;
  std::vector<Span> spans;
  void Add(std::uint64_t request, const char* name, const char* parent,
           Clock::time_point a, Clock::time_point b) {
    spans.push_back({request, name, parent, NsSince(origin, a),
                     NsSince(origin, b)});
  }
};

void Accumulate(onex::QueryStats* into, const onex::QueryStats& s) {
  into->groups_total += s.groups_total;
  into->groups_pruned_lb += s.groups_pruned_lb;
  into->rep_dtw_evaluations += s.rep_dtw_evaluations;
  into->member_dtw_evaluations += s.member_dtw_evaluations;
  into->members_pruned_lb += s.members_pruned_lb;
  into->pruned_kim += s.pruned_kim;
  into->pruned_keogh += s.pruned_keogh;
  into->dtw_evals += s.dtw_evals;
}

bool SameCounts(const onex::QueryStats& a, const onex::QueryStats& b) {
  return a.groups_total == b.groups_total &&
         a.groups_pruned_lb == b.groups_pruned_lb &&
         a.rep_dtw_evaluations == b.rep_dtw_evaluations &&
         a.member_dtw_evaluations == b.member_dtw_evaluations &&
         a.members_pruned_lb == b.members_pruned_lb &&
         a.pruned_kim == b.pruned_kim && a.pruned_keogh == b.pruned_keogh &&
         a.dtw_evals == b.dtw_evals;
}

std::vector<onex::QuerySpec> ParseRefs(const std::string& q) {
  std::vector<onex::QuerySpec> specs;
  std::stringstream all(q);
  std::string ref;
  while (std::getline(all, ref, ';')) {
    onex::QuerySpec spec;
    unsigned long long s = 0, st = 0, len = 0;
    if (std::sscanf(ref.c_str(), "%llu:%llu:%llu", &s, &st, &len) != 3) {
      Fatal("bad query ref " + ref);
    }
    spec.series = s;
    spec.start = st;
    spec.length = len;
    specs.push_back(spec);
  }
  return specs;
}

std::size_t OptSize(const onex::net::Command& cmd, const char* key,
                    std::size_t fallback) {
  const auto it = cmd.options.find(key);
  return it == cmd.options.end()
             ? fallback
             : static_cast<std::size_t>(std::stoull(it->second));
}

/// Times the distance kernels on (query, centroid) pairs of the query's
/// own length class: full DTW with no cutoff, and LB_Keogh of the centroid
/// against the query's envelope.
void TimeDistance(const onex::OnexBase& base, const std::vector<double>& q,
                  LayerRecord* rec) {
  onex::Result<const onex::LengthClass*> cls = base.FindLengthClass(q.size());
  if (!cls.ok() || (*cls)->store == nullptr) return;
  const onex::GroupStore& store = *(*cls)->store;
  const std::size_t pairs = std::min<std::size_t>(4, store.num_groups());
  if (pairs == 0) return;
  const onex::DistanceKernel& k = onex::ActiveKernel();
  onex::DtwWorkspace ws;
  const std::size_t n = q.size();
  std::vector<double> lo(n), up(n);
  k.keogh_envelope(q.data(), n, onex::kNoWindow, lo.data(), up.data());
  constexpr int kReps = 8;
  const double inf = std::numeric_limits<double>::infinity();
  volatile double sink = 0.0;
  auto t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t g = 0; g < pairs; ++g) {
      const std::span<const double> c = store.centroid(g);
      sink = sink + k.dtw_ea_sq(q.data(), n, c.data(), c.size(), inf,
                                onex::kNoWindow, &ws);
    }
  }
  auto t1 = Clock::now();
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t g = 0; g < pairs; ++g) {
      const std::span<const double> c = store.centroid(g);
      sink = sink + k.lb_keogh_sq(lo.data(), up.data(), c.data(), n, inf);
    }
  }
  auto t2 = Clock::now();
  const double calls = static_cast<double>(kReps * pairs);
  rec->dtw_ns_per_cell = MsBetween(t0, t1) * 1e6 / (calls * n * n);
  rec->lb_ns_per_point = MsBetween(t1, t2) * 1e6 / (calls * n);
}

/// The in-process half of a traced read: parse, execute, format, then the
/// Engine call ExecuteCommand makes, the snapshot acquire, the core query
/// on the snapshot's base and the distance kernels — each called on its own
/// and timed. With `log` null only the deterministic outputs (stats, reply
/// bytes) matter: that is the replay the determinism self-check runs.
void TraceRead(onex::Engine* engine, std::uint64_t id, LayerRecord* rec,
               SpanLog* log) {
  auto span = [&](const char* name, const char* parent, Clock::time_point a,
                  Clock::time_point b) {
    if (log != nullptr) log->Add(id, name, parent, a, b);
  };
  auto t0 = Clock::now();
  onex::Result<onex::net::Command> cmd = onex::net::ParseCommandLine(rec->line);
  auto t1 = Clock::now();
  if (!cmd.ok()) Fatal("parse: " + cmd.status().ToString());
  span("net.parse", "net.roundtrip", t0, t1);
  rec->parse_us = MsBetween(t0, t1) * 1e3;

  onex::net::Session session;
  t0 = Clock::now();
  Value reply = onex::net::ExecuteCommand(engine, &session, *cmd);
  t1 = Clock::now();
  span("net.execute", "net.roundtrip", t0, t1);
  rec->execute_ms = MsBetween(t0, t1);
  if (!reply["ok"].as_bool()) Fatal("in-process " + rec->line + " failed");

  t0 = Clock::now();
  const std::string formatted = onex::net::FormatResponse(reply);
  t1 = Clock::now();
  span("json.format", "net.roundtrip", t0, t1);
  rec->format_ms = MsBetween(t0, t1);
  rec->reply_bytes = onex::net::FormatResponse([&] {
                       Value v = reply;
                       ScrubVolatile(&v);
                       return v;
                     }()).size();

  const std::string& name = cmd->args.at(0);
  onex::QueryOptions opts;  // the protocol's defaults: no window, top group 1
  if (rec->verb == Verb::kCatalog) {
    t0 = Clock::now();
    auto entries = engine->Catalog(name, OptSize(*cmd, "points", 24));
    t1 = Clock::now();
    if (!entries.ok()) Fatal("catalog failed");
    span("engine.query", "net.execute", t0, t1);
    rec->engine_ms = MsBetween(t0, t1);
    return;
  }
  const std::vector<onex::QuerySpec> specs = ParseRefs(cmd->options.at("q"));
  const std::size_t k =
      rec->verb == Verb::kMatch
          ? 1
          : OptSize(*cmd, "k", rec->verb == Verb::kBatch ? 1 : 3);
  t0 = Clock::now();
  bool ok = false;
  if (rec->verb == Verb::kMatch) {
    ok = engine->SimilaritySearch(name, specs[0], opts).ok();
  } else if (rec->verb == Verb::kKnn) {
    ok = engine->Knn(name, specs[0], k, opts).ok();
  } else {
    ok = engine->KnnBatch(name, specs, k, opts).ok();
  }
  t1 = Clock::now();
  if (!ok) Fatal("engine call failed for " + rec->line);
  span("engine.query", "net.execute", t0, t1);
  rec->engine_ms = MsBetween(t0, t1);

  t0 = Clock::now();
  auto snap = engine->registry().GetPrepared(name);
  t1 = Clock::now();
  if (!snap.ok()) Fatal("snapshot acquire failed");
  span("engine.snapshot_acquire", "engine.query", t0, t1);
  rec->acquire_ms = MsBetween(t0, t1);

  // MATCH runs as a k=1 KnnQuery inside the engine (SimilaritySearch is
  // Knn with k=1), so the core call mirrors that.
  onex::QueryProcessor qp((*snap)->base.get());
  std::vector<std::vector<double>> qvals;
  for (const onex::QuerySpec& spec : specs) {
    auto v = engine->ResolveQuery(**snap, spec);
    if (!v.ok()) Fatal("resolve failed");
    qvals.push_back(std::move(*v));
  }
  double core_ms = 0.0;
  rec->stats = onex::QueryStats{};
  Clock::time_point c0 = Clock::now(), c1 = c0;
  for (const std::vector<double>& q : qvals) {
    onex::QueryStats st;
    const auto a = Clock::now();
    auto r = qp.KnnQuery(q, k, opts, &st);
    c1 = Clock::now();
    if (!r.ok()) Fatal("core query failed");
    core_ms += MsBetween(a, c1);
    Accumulate(&rec->stats, st);
  }
  span("core.query", "engine.query", c0, c1);
  rec->core_ms = core_ms;

  t0 = Clock::now();
  TimeDistance(*(*snap)->base, qvals[0], rec);
  t1 = Clock::now();
  span("distance.dtw", "core.query", t0, t1);
}

/// The in-process half of a traced EXTEND: the write is applied once, in
/// process, instead of over the wire (replaying a mutation would apply it
/// twice).
void TraceExtend(onex::Engine* engine, std::uint64_t id, LayerRecord* rec,
                 SpanLog* log) {
  auto t0 = Clock::now();
  onex::Result<onex::net::Command> cmd = onex::net::ParseCommandLine(rec->line);
  auto t1 = Clock::now();
  if (!cmd.ok()) Fatal("parse: " + cmd.status().ToString());
  log->Add(id, "net.parse", "", t0, t1);
  rec->parse_us = MsBetween(t0, t1) * 1e3;
  std::vector<double> points;
  std::stringstream all(cmd->options.at("points"));
  std::string tok;
  while (std::getline(all, tok, ',')) points.push_back(std::stod(tok));
  t0 = Clock::now();
  auto summary = engine->ExtendSeries(cmd->args.at(0),
                                      OptSize(*cmd, "series", 0), points);
  t1 = Clock::now();
  if (!summary.ok()) Fatal("in-process extend failed");
  log->Add(id, "engine.extend", "", t0, t1);
  rec->engine_ms = MsBetween(t0, t1);
  rec->new_members = summary->new_members;
}

// ---------------------------------------------------------------------------
// Set-up: GEN + PREPARE (+ PERSIST, first checkpoints, drift and budget for
// the durable workload) over the wire, until the first timed request.
// ---------------------------------------------------------------------------
struct Server {
  std::unique_ptr<onex::Engine> engine;
  std::unique_ptr<onex::net::ReactorServer> server;
  std::string data_dir;
  double setup_s = 0.0;
  std::vector<double> build_s;  ///< Per dataset, from the PREPARE replies.
  std::size_t budget_bytes = 0;
  std::uint64_t user_bytes = 0;  ///< Raw points loaded, in bytes.

  void Stop() {
    if (server != nullptr) server->Stop();
    server.reset();
    engine.reset();
  }
};

Value CallOk(onex::net::OnexClient* client, const std::string& line) {
  onex::Result<Value> r = client->Call(line);
  if (!r.ok()) Fatal(line + ": " + r.status().ToString());
  if (!(*r)["ok"].as_bool()) Fatal(line + ": " + r->Dump());
  return std::move(*r);
}

Server StartServer(const Plan& plan, const std::string& data_dir) {
  Server s;
  s.engine = std::make_unique<onex::Engine>();
  s.server = std::make_unique<onex::net::ReactorServer>(s.engine.get());
  if (onex::Status st = s.server->Start(0); !st.ok()) {
    Fatal("server start: " + st.ToString());
  }
  s.data_dir = data_dir;
  const auto t0 = Clock::now();
  auto client = onex::net::OnexClient::Connect("127.0.0.1", s.server->port());
  if (!client.ok()) Fatal("connect: " + client.status().ToString());
  for (const std::string& line : GenLines(plan)) CallOk(&*client, line);
  for (const std::string& line : PrepareLines(plan)) {
    s.build_s.push_back(CallOk(&*client, line)["build_seconds"].as_number());
  }
  if (plan.durable) {
    CallOk(&*client, "PERSIST dir=" + data_dir +
                         " every=" + std::to_string(plan.checkpoint_every) +
                         " fsync=0");
    for (const DatasetRecipe& r : plan.datasets) {
      CallOk(&*client, "CHECKPOINT " + r.name);
    }
    for (std::size_t d = 0; d < plan.fed_datasets; ++d) {
      CallOk(&*client, "TIER " + plan.datasets[d].name + " pin=1");
    }
    char drift[64];
    std::snprintf(drift, sizeof(drift), "DRIFT %s threshold=%g",
                  plan.datasets[0].name.c_str(), plan.drift_threshold);
    CallOk(&*client, drift);
    const std::size_t total = static_cast<std::size_t>(
        CallOk(&*client, "DATASETS")["prepared_bytes"].as_number());
    s.budget_bytes = static_cast<std::size_t>(plan.budget_share *
                                              static_cast<double>(total));
    CallOk(&*client, "BUDGET bytes=" + std::to_string(s.budget_bytes));
  }
  s.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  s.user_bytes = plan.datasets.size() * plan.series_per_dataset *
                 plan.series_length * sizeof(double);
  return s;
}

/// The same set-up lines, executed in process against a fresh engine — the
/// twin the determinism self-check replays the traced sample on.
std::unique_ptr<onex::Engine> InProcessTwin(const Plan& plan) {
  auto engine = std::make_unique<onex::Engine>();
  onex::net::Session session;
  std::vector<std::string> lines = GenLines(plan);
  for (const std::string& l : PrepareLines(plan)) lines.push_back(l);
  for (const std::string& line : lines) {
    auto cmd = onex::net::ParseCommandLine(line);
    if (!cmd.ok() ||
        !onex::net::ExecuteCommand(engine.get(), &session, *cmd)["ok"]
             .as_bool()) {
      Fatal("twin set-up failed at " + line);
    }
  }
  return engine;
}

// ---------------------------------------------------------------------------
// Load generators.
// ---------------------------------------------------------------------------

/// What one generator thread measured.
struct LoadStats {
  std::vector<double> lat_ms[kVerbCount];
  /// When each lat_ms sample completed, in seconds since the measured
  /// window opened.
  std::vector<double> done_s[kVerbCount];
  std::size_t attempted = 0;  ///< Measured-window requests sent.
  std::size_t failed = 0;     ///< ... answered ok:false.
  std::vector<std::uint64_t> line_hashes;
  /// Sampled (line, scrubbed body) pairs for the correctness gate.
  std::vector<std::pair<std::string, std::string>> sampled;
  std::vector<LayerRecord> traced;
  SpanLog log;
  std::uint64_t bytes_sent = 0;
  // Open-loop writer only.
  std::vector<double> lateness_ms;
  std::size_t backlog_end = 0;
  std::size_t backlog_mid = 0;
  std::size_t extends_sent = 0;
  std::uint64_t user_bytes = 0;
};

struct Phase {
  Clock::time_point start;       ///< Load starts.
  Clock::time_point measure;     ///< Measured window opens (after warm-up).
  Clock::time_point end;         ///< No request is sent after this.
  std::size_t fixed_requests = 0;  ///< Traced: stop after this many.
  bool traced = false;
  std::atomic<bool>* stop = nullptr;  ///< Traced: set when readers finish.
};

/// Upper bound on the sampled replies each connection keeps for the gate.
constexpr std::size_t kMaxSampledReplies = 48;

/// A reader connection: a closed loop keeping `depth` requests in flight.
/// Timed runs stop sending at `phase.end`; traced runs send exactly
/// `phase.fixed_requests` and, for each sampled reply, call every layer in
/// process as well.
void RunReader(const Plan& plan, std::uint64_t seed, std::size_t conn,
               std::uint16_t port, onex::Engine* engine, const Phase& phase,
               LoadStats* out) {
  WireConn wire(port, plan.reader_binary[conn]);
  ReadStream stream(plan, seed, conn);
  struct InFlight {
    Request req;
    Clock::time_point sent;
    bool measured;
    std::uint64_t index;
  };
  std::unordered_map<std::uint64_t, InFlight> inflight;
  std::uint64_t index = 0;
  out->log.origin = phase.start;
  auto can_send = [&] {
    if (phase.traced) return index < phase.fixed_requests;
    return Clock::now() < phase.end;
  };
  while (true) {
    while (inflight.size() < plan.depth && can_send()) {
      InFlight f{stream.Next(), Clock::now(), false, index++};
      f.measured = phase.traced || f.sent >= phase.measure;
      if (f.measured) {
        ++out->attempted;
        out->line_hashes.push_back(Fnv1a(f.req.line));
      }
      const std::uint64_t id = wire.Send(f.req.line);
      inflight.emplace(id, std::move(f));
    }
    if (inflight.empty()) break;
    auto [id, body] = wire.Receive();
    const Clock::time_point done = Clock::now();
    auto it = inflight.find(id);
    if (it == inflight.end()) Fatal("reply for unknown request id");
    InFlight f = std::move(it->second);
    inflight.erase(it);
    onex::Result<Value> parsed = onex::json::Parse(body);
    const bool ok = parsed.ok() && (*parsed)["ok"].as_bool();
    if (!f.measured) continue;
    if (!ok) {
      ++out->failed;
      continue;
    }
    out->lat_ms[static_cast<std::size_t>(f.req.verb)].push_back(
        MsBetween(f.sent, done));
    out->done_s[static_cast<std::size_t>(f.req.verb)].push_back(
        MsBetween(phase.measure, done) / 1e3);
    if (f.req.sampled && out->sampled.size() < kMaxSampledReplies) {
      out->sampled.emplace_back(f.req.line, Scrubbed(std::move(*parsed)));
    }
    if (phase.traced && f.req.sampled) {
      const std::uint64_t rid = (static_cast<std::uint64_t>(conn) << 32) |
                                f.index;
      out->log.Add(rid, "net.roundtrip", "", f.sent, done);
      LayerRecord rec;
      rec.verb = f.req.verb;
      rec.line = f.req.line;
      rec.roundtrip_ms = MsBetween(f.sent, done);
      TraceRead(engine, rid, &rec, &out->log);
      out->traced.push_back(std::move(rec));
    }
  }
  out->bytes_sent = wire.bytes_sent();
}

/// The live_feed writer: an open loop of EXTENDs due on a fixed clock, sent
/// by this thread over one text connection, while a drain thread reads the
/// replies (text replies are positional, so reply i answers EXTEND i).
/// Latency runs from each EXTEND's due time, so a stall also charges the
/// requests queued behind it.
void RunWriter(const Plan& plan, std::uint16_t port,
               onex::Engine* engine, ExtendStream* stream, const Phase& phase,
               LoadStats* out) {
  WireConn wire(port, /*binary=*/false);
  const double period_s = 1.0 / plan.extend_rate;
  auto due_at = [&](std::size_t i) {
    return phase.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(period_s * i));
  };
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> received{0};
  std::atomic<bool> sending_done{false};
  std::mutex wire_index_mutex;
  std::vector<std::size_t> wire_due_index;  // wire order -> due index
  std::vector<std::uint64_t> wire_user_bytes;
  out->log.origin = phase.start;

  std::thread drain([&] {
    std::size_t n = 0;
    while (true) {
      if (n >= sent.load()) {
        if (sending_done.load() && n >= sent.load()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      const std::string body = wire.Receive().second;
      const Clock::time_point done = Clock::now();
      std::size_t due_index = 0;
      std::uint64_t ubytes = 0;
      {
        std::lock_guard<std::mutex> lock(wire_index_mutex);
        due_index = wire_due_index[n];
        ubytes = wire_user_bytes[n];
      }
      received.store(++n);
      const Clock::time_point due = due_at(due_index);
      if (due < phase.measure) continue;
      ++out->attempted;
      onex::Result<Value> parsed = onex::json::Parse(body);
      if (!parsed.ok() || !(*parsed)["ok"].as_bool()) {
        ++out->failed;
        continue;
      }
      out->user_bytes += ubytes;
      out->lat_ms[static_cast<std::size_t>(Verb::kExtend)].push_back(
          MsBetween(due, done));
      out->done_s[static_cast<std::size_t>(Verb::kExtend)].push_back(
          MsBetween(phase.measure, done) / 1e3);
    }
  });

  const Clock::time_point mid = phase.measure + (phase.end - phase.measure) / 2;
  bool mid_taken = false;
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point due = due_at(i);
    if (phase.traced ? phase.stop->load() : due >= phase.end) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    if (!mid_taken && now >= mid) {
      out->backlog_mid = sent.load() - received.load();
      mid_taken = true;
    }
    Request req = stream->Next();
    const std::uint64_t ubytes = plan.extend_points * sizeof(double);
    if (due >= phase.measure) out->lateness_ms.push_back(MsBetween(due, now));
    ++out->extends_sent;
    if (phase.traced && req.sampled) {
      LayerRecord rec;
      rec.verb = Verb::kExtend;
      rec.line = req.line;
      TraceExtend(engine, (std::uint64_t{1} << 40) | i, &rec, &out->log);
      out->traced.push_back(std::move(rec));
      if (due >= phase.measure) out->user_bytes += ubytes;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(wire_index_mutex);
      wire_due_index.push_back(i);
      wire_user_bytes.push_back(ubytes);
    }
    wire.Send(req.line);
    sent.fetch_add(1);
  }
  out->backlog_end = sent.load() - received.load();
  sending_done.store(true);
  drain.join();
  out->bytes_sent = wire.bytes_sent();
}

// ---------------------------------------------------------------------------
// Engine-side observation for the traced run.
// ---------------------------------------------------------------------------
struct EngineCounters {
  std::uint64_t checkpoints = 0;
  std::uint64_t wal_seq = 0;
  std::uint64_t regroups = 0;
  std::size_t groups = 0;
  std::size_t subsequences = 0;
};

EngineCounters ReadCounters(onex::Engine* engine) {
  EngineCounters c;
  for (const onex::DatasetSlotInfo& row : engine->registry().Describe()) {
    c.checkpoints += row.checkpoints;
    c.wal_seq += row.wal_seq;
    auto m = engine->registry().Maintenance(row.name);
    if (m.ok()) c.regroups += m->regroups_completed;
    auto snap = engine->Get(row.name);
    if (snap.ok() && (*snap)->prepared()) {
      c.groups += (*snap)->base->stats().num_groups;
      c.subsequences += (*snap)->base->stats().num_subsequences;
    }
  }
  return c;
}

/// Polls Describe() and counts tier transitions: evicted -> resident is a
/// rebuild, resident -> mapped a downgrade.
class TierWatch {
 public:
  explicit TierWatch(onex::Engine* engine) : engine_(engine) { Poll(); }
  void Poll() {
    for (const onex::DatasetSlotInfo& row : engine_->registry().Describe()) {
      std::string& prev = tiers_[row.name];
      if (prev == "evicted" && row.tier == "resident") ++rebuilds;
      if (prev == "resident" && row.tier == "mapped") ++downgrades;
      prev = row.tier;
    }
    resident_bytes.push_back(
        static_cast<double>(engine_->registry().prepared_bytes()));
    mapped_bytes.push_back(
        static_cast<double>(engine_->registry().mapped_bytes()));
  }
  std::uint64_t rebuilds = 0;
  std::uint64_t downgrades = 0;
  std::vector<double> resident_bytes;
  std::vector<double> mapped_bytes;

 private:
  onex::Engine* engine_;
  std::map<std::string, std::string> tiers_;
};

// ---------------------------------------------------------------------------
// Correctness gate.
// ---------------------------------------------------------------------------

/// In-process execution of `line` against `engine`, scrubbed.
std::string InProcess(onex::Engine* engine, const std::string& line) {
  auto cmd = onex::net::ParseCommandLine(line);
  if (!cmd.ok()) Fatal("parse " + line);
  onex::net::Session session;
  return Scrubbed(onex::net::ExecuteCommand(engine, &session, *cmd));
}

struct Gate {
  bool ok = true;
  std::size_t compared = 0;
  std::vector<std::string> errors;
  void Fail(const std::string& what) {
    ok = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Each line over a fresh text and a fresh binary connection, against the
/// in-process answer on the same (now quiescent) engine state; with
/// `timed` non-empty the reply the timed run received must match too.
void CheckDialects(onex::Engine* engine, std::uint16_t port,
                   const std::vector<std::pair<std::string, std::string>>& lines,
                   bool compare_timed, Gate* gate) {
  auto text = onex::net::OnexClient::Connect("127.0.0.1", port);
  auto bin = onex::net::OnexClient::Connect("127.0.0.1", port);
  if (!text.ok() || !bin.ok() || !bin->UpgradeBinary().ok()) {
    gate->Fail("verification connections failed");
    return;
  }
  for (const auto& [line, timed_body] : lines) {
    const std::string local = InProcess(engine, line);
    auto t = text->Call(line);
    auto b = bin->Call(line);
    if (!t.ok() || !b.ok()) {
      gate->Fail("transport error replaying " + line);
      continue;
    }
    const std::string tb = Scrubbed(std::move(*t));
    const std::string bb = Scrubbed(std::move(*b));
    ++gate->compared;
    if (tb != local) gate->Fail("text reply != in-process for " + line);
    if (bb != local) gate->Fail("binary reply != in-process for " + line);
    if (compare_timed && timed_body != local) {
      gate->Fail("timed reply != in-process for " + line);
    }
  }
}

// ---------------------------------------------------------------------------
// Provenance.
// ---------------------------------------------------------------------------
Value Provenance(const std::string& source_id, std::uint64_t seed,
                 const Plan& plan) {
  Value v = Value::MakeObject();
  v.Set("source", source_id);
  v.Set("hardware_threads",
        static_cast<std::size_t>(std::thread::hardware_concurrency()));
  v.Set("kernel_table", std::string(onex::ActiveKernel().name));
  v.Set("simd_dispatch", onex::SimdDispatchAvailable());
  v.Set("build_type", std::string(ONEX_E2E_BUILD_TYPE));
  v.Set("seed", static_cast<std::size_t>(seed));
  v.Set("workload", plan.workload);
  v.Set("flush_policy", plan.durable ? std::string("fsync=0 (WAL and "
                                                   "checkpoints flushed, "
                                                   "not fsynced)")
                                     : std::string("n/a (not durable)"));
  if (plan.durable) v.Set("extend_rate_per_s", plan.extend_rate);
  return v;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
  std::string work_dir = ".bench_build/e2ebench";
};

Value Metric(double value, const char* unit) {
  Value m = Value::MakeObject();
  m.Set("value", value);
  m.Set("unit", std::string(unit));
  return m;
}

/// Measured-window percentiles of one verb across every reader.
std::vector<double> Pool(const std::vector<LoadStats>& all, Verb v) {
  std::vector<double> out;
  for (const LoadStats& s : all) {
    const auto& l = s.lat_ms[static_cast<std::size_t>(v)];
    out.insert(out.end(), l.begin(), l.end());
  }
  return out;
}

/// The measured window is cut into equal slices; throughput and p50s are
/// the median over slices, so a burst of outside load during a few seconds
/// moves them less than it moves a whole-window figure. A slice holds at
/// least kMinSliceSamples samples, so a rare verb gets fewer slices.
constexpr std::size_t kMaxSlices = 10;
constexpr std::size_t kMinSliceSamples = 200;

/// Per-slice values of one verb (or of every read verb when `verb` is
/// null): the p50 latency, or with `rate` set the completions per second.
std::vector<double> SliceValues(const std::vector<const LoadStats*>& all,
                                const Verb* verb, double window_s,
                                bool rate) {
  auto wanted = [&](std::size_t v) {
    return verb != nullptr ? v == static_cast<std::size_t>(*verb)
                           : static_cast<Verb>(v) != Verb::kExtend;
  };
  std::size_t samples = 0;
  for (const LoadStats* s : all) {
    for (std::size_t v = 0; v < kVerbCount; ++v) {
      if (wanted(v)) samples += s->done_s[v].size();
    }
  }
  const std::size_t n = std::clamp<std::size_t>(samples / kMinSliceSamples,
                                                1, kMaxSlices);
  std::vector<std::vector<double>> slices(n);
  for (const LoadStats* s : all) {
    for (std::size_t v = 0; v < kVerbCount; ++v) {
      if (!wanted(v)) continue;
      for (std::size_t i = 0; i < s->done_s[v].size(); ++i) {
        const double t = s->done_s[v][i];
        if (t < 0 || t >= window_s) continue;
        slices[static_cast<std::size_t>(t / window_s * n)].push_back(
            s->lat_ms[v][i]);
      }
    }
  }
  std::vector<double> out;
  for (const std::vector<double>& slice : slices) {
    out.push_back(rate ? static_cast<double>(slice.size()) / (window_s / n)
                       : Median(slice));
  }
  return out;
}

struct RunOutput {
  Value metrics = Value::MakeObject();
  Value report = Value::MakeObject();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
};

/// Runs the load for one phase: readers (and the writer, for live_feed).
std::vector<LoadStats> RunLoad(const Plan& plan, std::uint64_t seed,
                               Server* srv, ExtendStream* extends,
                               Phase* phase, LoadStats* writer_out) {
  const std::size_t readers = plan.reader_binary.size();
  std::vector<LoadStats> stats(readers);
  std::atomic<bool> stop{false};
  phase->stop = &stop;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      RunReader(plan, seed, c, srv->server->port(), srv->engine.get(), *phase,
                &stats[c]);
    });
  }
  std::thread writer;
  if (plan.durable) {
    writer = std::thread([&] {
      RunWriter(plan, srv->server->port(), srv->engine.get(), extends,
                *phase, writer_out);
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  if (writer.joinable()) writer.join();
  return stats;
}

/// live_feed's end-of-run checks: lift the budget, rebuild and checkpoint
/// every slot, measure the data dir, then restart from it and demand
/// identical answers.
void FinishDurable(const Plan& plan, std::uint64_t seed, Server* srv,
                   std::uint64_t user_bytes, Gate* gate, Value* report) {
  auto client = onex::net::OnexClient::Connect("127.0.0.1", srv->server->port());
  if (!client.ok()) Fatal("connect");
  CallOk(&*client, "BUDGET bytes=0");
  // Background regroups and checkpoints change the live base; wait them out.
  for (int spins = 0; spins < 2000; ++spins) {
    bool busy = false;
    for (const auto& row : srv->engine->registry().Describe()) {
      busy = busy || row.regrouping;
    }
    if (!busy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::vector<std::string> probes;
  ReadStream probe_stream(plan, SubSeed(seed, 300), 0);
  for (const DatasetRecipe& r : plan.datasets) {
    const Window& w = plan.pools[&r - plan.datasets.data()][0];
    probes.push_back("MATCH " + r.name + " q=" + Ref(w));
    probes.push_back("KNN " + r.name + " q=" + Ref(w) + " k=5");
    CallOk(&*client, probes.back());  // rebuilds an evicted slot
  }
  for (const DatasetRecipe& r : plan.datasets) {
    CallOk(&*client, "CHECKPOINT " + r.name);
  }
  client->Close();
  const std::uint64_t stored = DirBytes(srv->data_dir);
  report->Set("stored_bytes_per_user_byte",
              static_cast<double>(stored) / static_cast<double>(user_bytes));
  report->Set("stored_bytes", static_cast<std::size_t>(stored));
  report->Set("user_bytes", static_cast<std::size_t>(user_bytes));

  std::vector<std::pair<std::string, std::string>> sample;
  for (int i = 0; i < 24; ++i) sample.emplace_back(probe_stream.Next().line, "");
  CheckDialects(srv->engine.get(), srv->server->port(), sample, false, gate);

  std::vector<std::string> before;
  for (const std::string& p : probes) before.push_back(InProcess(srv->engine.get(), p));
  srv->Stop();
  onex::Engine recovered;
  onex::DurabilityOptions dopt;
  dopt.dir = srv->data_dir;
  dopt.fsync = false;
  if (onex::Status st = recovered.EnableDurability(dopt); !st.ok()) {
    gate->Fail("recover: " + st.ToString());
    return;
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ++gate->compared;
    if (InProcess(&recovered, probes[i]) != before[i]) {
      gate->Fail("answer changed across restart+Recover: " + probes[i]);
    }
  }
}

/// The writer's random walk continues each series from its last raw value,
/// stepping by a twentieth of the dataset's range.
std::unique_ptr<ExtendStream> MakeExtendStream(const Plan& plan,
                                               std::uint64_t seed,
                                               onex::Engine* engine) {
  std::vector<std::vector<double>> last;
  std::vector<double> step;
  for (const DatasetRecipe& r : plan.datasets) {
    auto snap = engine->Get(r.name);
    if (!snap.ok()) Fatal("get " + r.name);
    const onex::Dataset& raw = *(*snap)->raw;
    std::vector<double> tails;
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    for (std::size_t s = 0; s < raw.size(); ++s) {
      const auto& vals = raw[s].values();
      tails.push_back(vals.back());
      for (double x : vals) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
    }
    last.push_back(std::move(tails));
    step.push_back((hi - lo) * 0.05);
  }
  return std::make_unique<ExtendStream>(plan, seed, std::move(last),
                                        std::move(step));
}

RunOutput RunOnce(const Options& opt, const Plan& plan) {
  RunOutput out;
  Gate gate;
  const std::string data_root = opt.work_dir + "/data";
  std::filesystem::create_directories(data_root);
  auto data_dir = [&](int i) {
    return data_root + "/" + plan.workload + "-" + std::to_string(getpid()) +
           "-" + std::to_string(i);
  };

  std::vector<double> setup_times;
  Server srv = StartServer(plan, data_dir(0));
  setup_times.push_back(srv.setup_s);

  std::unique_ptr<ExtendStream> extends;
  if (plan.durable) extends = MakeExtendStream(plan, opt.seed, srv.engine.get());

  const double warmup_s = std::min(1.0, 0.2 * opt.seconds);
  auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };

  // Untraced phase: the timed run, or the traced run's baseline.
  Phase timed;
  timed.start = Clock::now();
  timed.measure = timed.start + seconds(warmup_s);
  const double measured_s = opt.trace ? std::max(1.0, opt.seconds / 2) : opt.seconds;
  timed.end = timed.measure + seconds(measured_s);
  LoadStats writer;
  std::vector<LoadStats> readers =
      RunLoad(plan, opt.seed, &srv, extends.get(), &timed, &writer);
  const double window_s = measured_s;

  for (const LoadStats& s : readers) {
    out.attempted += s.attempted;
    out.failed += s.failed;
  }
  out.attempted += writer.attempted;
  out.failed += writer.failed;

  std::vector<double> by_verb[kVerbCount];
  std::size_t reads_done = 0;  // for the report
  for (std::size_t v = 0; v < kVerbCount; ++v) {
    by_verb[v] = Pool(readers, static_cast<Verb>(v));
    if (static_cast<Verb>(v) != Verb::kExtend) reads_done += by_verb[v].size();
  }
  by_verb[static_cast<std::size_t>(Verb::kExtend)] =
      writer.lat_ms[static_cast<std::size_t>(Verb::kExtend)];

  // Repeated-query share: requests whose command line was already sent.
  std::vector<std::uint64_t> hashes;
  for (const LoadStats& s : readers) {
    hashes.insert(hashes.end(), s.line_hashes.begin(), s.line_hashes.end());
  }
  std::unordered_set<std::uint64_t> distinct(hashes.begin(), hashes.end());
  const double repeated_share =
      hashes.empty() ? 0.0
                     : 1.0 - static_cast<double>(distinct.size()) /
                                 static_cast<double>(hashes.size());

  // Gated: the metrics every workload has and that repeat across runs on
  // this class of host. Tails (p99 moved 10-20% between runs) and the
  // verbs only some workloads send (CATALOG, EXTEND) are reported beside
  // them, ungated.
  Value e2e = Value::MakeObject();
  Value extra = Value::MakeObject();
  Value samples = Value::MakeObject();
  std::vector<const LoadStats*> all_stats = {&writer};
  for (const LoadStats& s : readers) all_stats.push_back(&s);
  const std::vector<double> rate_slices =
      SliceValues(all_stats, nullptr, window_s, true);
  e2e.Set("throughput_rps", Metric(Median(rate_slices), "req/s"));
  for (std::size_t v = 0; v < kVerbCount; ++v) {
    if (by_verb[v].empty()) continue;
    const Verb verb = static_cast<Verb>(v);
    const std::string n = VerbName(verb);
    Value& dest =
        verb == Verb::kCatalog || verb == Verb::kExtend ? extra : e2e;
    dest.Set(n + "_p50_ms",
             Metric(Median(SliceValues(all_stats, &verb, window_s, false)),
                    "ms"));
    extra.Set(n + "_p99_ms", Metric(Percentile(by_verb[v], 0.99), "ms"));
    samples.Set(n, by_verb[v].size());
  }
  e2e.Set("peak_rss_mb", Metric(PeakRssMb(), "MB"));

  Value& rep = out.report;
  rep.Set("repeated_query_share", repeated_share);
  Value per_conn = Value::MakeArray();
  for (std::size_t c = 0; c < readers.size(); ++c) {
    std::vector<double> all;
    for (const auto& l : readers[c].lat_ms) all.insert(all.end(), l.begin(), l.end());
    Value row = Value::MakeObject();
    row.Set("dialect", std::string(plan.reader_binary[c] ? "binary" : "text"));
    row.Set("completed", all.size());
    row.Set("p50_ms", Percentile(all, 0.5));
    row.Set("p99_ms", Percentile(all, 0.99));
    per_conn.Append(std::move(row));
  }
  rep.Set("per_connection", per_conn);
  rep.Set("percentile_samples", samples);
  rep.Set("reads_completed", reads_done);
  rep.Set("throughput_slices", Value::NumberArray(rate_slices));
  rep.Set("measured_seconds", window_s);
  rep.Set("warmup_seconds", warmup_s);
  if (plan.durable) {
    Value ol = Value::MakeObject();
    ol.Set("extends_sent", writer.extends_sent);
    ol.Set("lateness_p99_ms", Percentile(writer.lateness_ms, 0.99));
    ol.Set("lateness_samples", writer.lateness_ms.size());
    ol.Set("backlog_mid", writer.backlog_mid);
    ol.Set("backlog_end", writer.backlog_end);
    // A backlog that grew means the writer outran the engine: the extend
    // latencies then measure the queue, not the write path.
    const bool steady = writer.backlog_end <= writer.backlog_mid + 2 &&
                        writer.backlog_end <= 4;
    ol.Set("steady", steady);
    rep.Set("open_loop", ol);
    const EngineCounters c = ReadCounters(srv.engine.get());
    Value ec = Value::MakeObject();
    ec.Set("budget_bytes", srv.budget_bytes);
    ec.Set("checkpoints", static_cast<std::size_t>(c.checkpoints));
    ec.Set("wal_seq", static_cast<std::size_t>(c.wal_seq));
    ec.Set("regroups", static_cast<std::size_t>(c.regroups));
    Value tiers = Value::MakeObject();
    for (const auto& row : srv.engine->registry().Describe()) {
      tiers.Set(row.tier, tiers[row.tier].as_number() + 1);
    }
    ec.Set("tiers", tiers);
    rep.Set("engine_after_run", ec);
  }

  // Correctness, part 1: the timed replies themselves, and (on the static
  // workloads) the sampled ones against in-process execution.
  if (out.failed > 0) {
    gate.Fail(std::to_string(out.failed) + " timed replies were not ok:true");
  }

  if (opt.trace) {
    // Traced phase: a fixed request sample per connection, with every layer
    // called in process for the sampled ones.
    const auto counters0 = ReadCounters(srv.engine.get());
    const auto m0 = srv.server->metrics().ToJson();
    const std::uint64_t wchar0 = ProcWchar();
    TierWatch watch(srv.engine.get());
    Phase traced;
    traced.traced = true;
    traced.start = Clock::now();
    traced.measure = traced.start;
    traced.end = traced.start + seconds(3600);
    traced.fixed_requests = ReadStream::kSampleEvery * 64;
    LoadStats twriter;
    std::atomic<bool> watching{true};
    std::thread watcher([&] {
      while (watching.load()) {
        watch.Poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    std::vector<LoadStats> treaders =
        RunLoad(plan, opt.seed, &srv, extends.get(), &traced, &twriter);
    watching.store(false);
    watcher.join();
    watch.Poll();
    const std::uint64_t wchar1 = ProcWchar();
    const auto m1 = srv.server->metrics().ToJson();
    const auto counters1 = ReadCounters(srv.engine.get());

    std::vector<LayerRecord> recs;
    std::vector<Span> spans;
    std::vector<LoadStats*> traced_stats = {&twriter};
    for (LoadStats& r : treaders) traced_stats.push_back(&r);
    for (LoadStats* s : traced_stats) {
      for (LayerRecord& r : s->traced) recs.push_back(std::move(r));
      spans.insert(spans.end(), s->log.spans.begin(), s->log.spans.end());
    }

    // Deterministic counts: on a static engine the traced sample's core
    // counts and reply bytes must repeat exactly on a second engine built
    // from the same seed.
    if (!plan.durable) {
      std::unique_ptr<onex::Engine> twin = InProcessTwin(plan);
      std::size_t mismatches = 0;
      for (const LayerRecord& r : recs) {
        LayerRecord again;
        again.verb = r.verb;
        again.line = r.line;
        TraceRead(twin.get(), 0, &again, nullptr);
        if (!SameCounts(r.stats, again.stats) ||
            r.reply_bytes != again.reply_bytes) {
          ++mismatches;
        }
      }
      rep.Set("deterministic_counts_checked", recs.size());
      // These workloads send no EXTEND; the extend path is timed on the
      // twin instead (in memory, not durable), so engine.extend_ms means
      // the same call on every workload.
      std::unique_ptr<ExtendStream> twin_extends =
          MakeExtendStream(plan, opt.seed, twin.get());
      SpanLog twin_log;
      twin_log.origin = traced.start;
      for (std::size_t i = 0; i < 64; ++i) {
        LayerRecord rec;
        rec.verb = Verb::kExtend;
        rec.line = twin_extends->Next().line;
        TraceExtend(twin.get(), (std::uint64_t{1} << 40) | i, &rec, &twin_log);
        recs.push_back(std::move(rec));
      }
      spans.insert(spans.end(), twin_log.spans.begin(), twin_log.spans.end());
      if (mismatches > 0) {
        gate.Fail(std::to_string(mismatches) +
                  " traced requests gave different counts on a twin engine");
      }
    }

    std::vector<double> parse_us, proto_self, net_self, fmt, share, engine_q,
        engine_self, acquire, core_q, dtw, lb, reply_bytes, extend_ms;
    onex::QueryStats total;
    std::uint64_t new_members = 0;
    for (const LayerRecord& r : recs) {
      parse_us.push_back(r.parse_us);
      if (r.verb == Verb::kExtend) {
        extend_ms.push_back(r.engine_ms);
        new_members += r.new_members;
        continue;
      }
      proto_self.push_back(r.execute_ms - r.engine_ms);
      net_self.push_back(r.roundtrip_ms - (r.parse_us / 1e3 + r.execute_ms +
                                           r.format_ms));
      fmt.push_back(r.format_ms);
      share.push_back(r.format_ms / (r.execute_ms + r.format_ms));
      reply_bytes.push_back(static_cast<double>(r.reply_bytes));
      if (r.verb == Verb::kCatalog) continue;
      engine_q.push_back(r.engine_ms);
      acquire.push_back(r.acquire_ms);
      core_q.push_back(r.core_ms);
      if (r.verb != Verb::kBatch) engine_self.push_back(r.engine_ms - r.core_ms);
      if (r.dtw_ns_per_cell > 0) dtw.push_back(r.dtw_ns_per_cell);
      if (r.lb_ns_per_point > 0) lb.push_back(r.lb_ns_per_point);
      Accumulate(&total, r.stats);
    }
    std::uint64_t reply_bytes_total = 0;
    for (double b : reply_bytes) reply_bytes_total += static_cast<std::uint64_t>(b);

    auto delta = [&](const char* key) {
      return m1[key].as_number() - m0[key].as_number();
    };
    std::uint64_t socket_bytes = 0;
    for (const LoadStats& s : treaders) socket_bytes += s.bytes_sent;
    socket_bytes += twriter.bytes_sent;
    const double user_bytes = static_cast<double>(twriter.user_bytes);
    // Socket sends go through send(), which wchar does not count, so the
    // wchar delta is file (WAL + checkpoint) writes plus the reactor's
    // 8-byte eventfd wakes.
    const double file_bytes = static_cast<double>(wchar1 - wchar0);

    std::vector<double> traced_match, untraced_match;
    for (const LoadStats& s : treaders) {
      const auto& l = s.lat_ms[static_cast<std::size_t>(Verb::kMatch)];
      traced_match.insert(traced_match.end(), l.begin(), l.end());
    }
    untraced_match = by_verb[static_cast<std::size_t>(Verb::kMatch)];

    const double pruned = static_cast<double>(total.pruned_kim + total.pruned_keogh);
    Value m = Value::MakeObject();
    m.Set("net.parse_us", Metric(Median(parse_us), "us"));
    m.Set("net.protocol_self_ms", Metric(Median(proto_self), "ms"));
    m.Set("net.self_ms", Metric(Median(net_self), "ms"));
    m.Set("net.bytes_out_per_req",
          Metric(delta("bytes_out") / std::max(1.0, delta("requests")), "bytes"));
    m.Set("net.deadline_expired", Metric(delta("deadline_expired"), "count"));
    m.Set("net.slow_reader_disconnects",
          Metric(delta("slow_reader_disconnects"), "count"));
    m.Set("json.format_ms", Metric(Median(fmt), "ms"));
    m.Set("json.reply_bytes", Metric(static_cast<double>(reply_bytes_total), "bytes"));
    m.Set("json.format_share", Metric(Median(share), "ratio"));
    m.Set("engine.query_ms", Metric(Median(engine_q), "ms"));
    m.Set("engine.self_ms", Metric(Median(engine_self), "ms"));
    m.Set("engine.snapshot_acquire_ms", Metric(Median(acquire), "ms"));
    m.Set("engine.extend_ms", Metric(Median(extend_ms), "ms"));
    m.Set("engine.extend_new_members",
          Metric(static_cast<double>(new_members), "count"));
    m.Set("engine.rebuilds", Metric(static_cast<double>(watch.rebuilds), "count"));
    m.Set("engine.downgrades",
          Metric(static_cast<double>(watch.downgrades), "count"));
    m.Set("engine.resident_bytes", Metric(Median(watch.resident_bytes), "bytes"));
    m.Set("engine.mapped_bytes", Metric(Median(watch.mapped_bytes), "bytes"));
    m.Set("engine.checkpoints",
          Metric(static_cast<double>(counters1.checkpoints - counters0.checkpoints),
                 "count"));
    m.Set("engine.wal_records",
          Metric(static_cast<double>(counters1.wal_seq - counters0.wal_seq),
                 "count"));
    m.Set("engine.regroups",
          Metric(static_cast<double>(counters1.regroups - counters0.regroups),
                 "count"));
    m.Set("engine.wal_bytes_per_user_byte",
          Metric(user_bytes > 0 ? file_bytes / user_bytes : 0.0, "ratio"));
    m.Set("core.query_ms", Metric(Median(core_q), "ms"));
    m.Set("core.groups_total", Metric(static_cast<double>(total.groups_total), "count"));
    m.Set("core.groups_pruned_lb",
          Metric(static_cast<double>(total.groups_pruned_lb), "count"));
    m.Set("core.rep_dtw_evals",
          Metric(static_cast<double>(total.rep_dtw_evaluations), "count"));
    m.Set("core.member_dtw_evals",
          Metric(static_cast<double>(total.member_dtw_evaluations), "count"));
    m.Set("core.pruned_kim", Metric(static_cast<double>(total.pruned_kim), "count"));
    m.Set("core.pruned_keogh",
          Metric(static_cast<double>(total.pruned_keogh), "count"));
    m.Set("core.prune_ratio",
          Metric(pruned / std::max(1.0, pruned + static_cast<double>(total.dtw_evals)),
                 "ratio"));
    m.Set("core.groups", Metric(static_cast<double>(counters1.groups), "count"));
    m.Set("core.compaction_ratio",
          Metric(static_cast<double>(counters1.groups) /
                     std::max<double>(1.0, static_cast<double>(counters1.subsequences)),
                 "ratio"));
    m.Set("core.build_s", Metric(Median(srv.build_s), "s"));
    m.Set("distance.dtw_ns_per_cell", Metric(Median(dtw), "ns"));
    m.Set("distance.lb_keogh_ns_per_point", Metric(Median(lb), "ns"));
    const double untraced_p50 = Median(untraced_match);
    m.Set("trace.overhead_ratio",
          Metric(untraced_p50 > 0 ? Median(traced_match) / untraced_p50 : 0.0,
                 "ratio"));
    out.metrics = std::move(m);

    Value tr = Value::MakeObject();
    tr.Set("traced_requests", recs.size());
    tr.Set("traced_match_p50_ms", Median(traced_match));
    tr.Set("untraced_match_p50_ms", untraced_p50);
    tr.Set("file_bytes_written", file_bytes);
    tr.Set("user_bytes_extended", user_bytes);
    tr.Set("socket_bytes_sent_by_clients", static_cast<double>(socket_bytes));
    rep.Set("trace", tr);

    // Spans stay in memory until now.
    std::filesystem::create_directories(opt.work_dir + "/traces");
    const std::string path = opt.work_dir + "/traces/" + plan.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    std::ofstream f(path);
    f << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << (i ? ",\n" : "\n") << "{\"request\":" << s.request << ",\"name\":\""
        << s.name << "\",\"parent\":\"" << s.parent
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}";
    }
    f << "\n]\n";
    rep.Set("trace_file", path);
    for (const LoadStats& s : treaders) {
      out.attempted += s.attempted;
      out.failed += s.failed;
    }
  } else {
    out.metrics = std::move(e2e);
  }

  // Correctness, part 2.
  if (!plan.durable) {
    std::vector<std::pair<std::string, std::string>> sampled;
    for (const LoadStats& s : readers) {
      sampled.insert(sampled.end(), s.sampled.begin(), s.sampled.end());
    }
    CheckDialects(srv.engine.get(), srv.server->port(), sampled, true, &gate);
    srv.Stop();
  } else {
    Value durable = Value::MakeObject();
    FinishDurable(plan, opt.seed, &srv,
                  srv.user_bytes + writer.user_bytes, &gate, &durable);
    rep.Set("durable", durable);
    extra.Set("stored_bytes_per_user_byte",
              Metric(durable["stored_bytes_per_user_byte"].as_number(),
                     "ratio"));
  }
  if (!opt.trace) rep.Set("ungated_metrics", extra);
  std::filesystem::remove_all(srv.data_dir);

  // More set-ups, each torn down at once, after the run so they do not
  // touch the run's peak RSS: at least 5, and at least 2 s of them, so a
  // set-up of a few milliseconds still gets a steady median.
  if (!opt.trace) {
    const auto t0 = Clock::now();
    while (setup_times.size() < 100 &&
           (setup_times.size() < 5 || MsBetween(t0, Clock::now()) < 2000)) {
      Server extra_srv = StartServer(plan, data_dir(setup_times.size()));
      setup_times.push_back(extra_srv.setup_s);
      extra_srv.Stop();
      std::filesystem::remove_all(extra_srv.data_dir);
    }
    out.metrics.Set("setup_s", Metric(Median(setup_times), "s"));
    rep.Set("setup_s_runs", Value::NumberArray(setup_times));
  }
  rep.Set("correctness_compared", gate.compared);
  Value errs = Value::MakeArray();
  for (const std::string& e : gate.errors) errs.Append(Value(e));
  rep.Set("correctness_errors", errs);
  out.correct = gate.ok;
  return out;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--source") {
      opt.source_id = val;
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      Fatal("unknown argument " + key);
    }
  }
  const Plan plan = MakePlan(opt.workload, opt.seed);
  if (plan.datasets.empty()) Fatal("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0)) Fatal("--seconds must be positive");

  RunOutput run = RunOnce(opt, plan);
  Value report = Provenance(opt.source_id, opt.seed, plan);
  for (auto& [k, v] : run.report.mutable_object()) report.Set(k, v);
  report.Set("traced", opt.trace);
  report.Set("metrics", run.metrics);
  report.Set("correct", run.correct);
  std::printf("report %s\n", report.Dump().c_str());

  Value last = Value::MakeObject();
  last.Set("correct", run.correct);
  last.Set("attempted", std::max<std::size_t>(run.attempted, 1));
  last.Set("failed", run.failed);
  last.Set("metrics", run.metrics);
  std::printf("%s\n", last.Dump().c_str());
  std::fflush(stdout);
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
