// perfbench: runs ONE pass of one benchmark workload against the hbft
// library (or, for serve-echo, against a spawned `hbft_cli serve`) and prints
// the pass as one JSON object on stdout. perfbench/run.py repeats passes for
// the measured interval, checks that deterministic values repeat, takes
// medians and prints the contract line. README.md lists the workloads, the
// metrics and the layer map.
//
//   perfbench <cpu-pair|failover-drills|fleet-storm|serve-echo> --seed=N
//             [--trace] [--spans=FILE] [--cli=PATH] [--tiny]
//             [--corrupt=checksum|drop-response]
//
// Nothing inside src/ is instrumented. With --trace the pass records spans
// around its own calls into each layer's public functions (name, start, end,
// parent, and a trace id shared by one drill or one request), keeps them in
// memory, and writes them as Chrome trace-event JSON at the end. A span's
// self time is its duration minus the time its child spans cover; self times
// summed by layer (the name's prefix up to the first '.') add back to the
// pass's root span.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "fleet/fleet.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "serve/sockets.hpp"
#include "serve/wire.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Host speed reference. A shared host's CPU speed drifts by tens of percent
// over tens of seconds, and the drift moves every timing of a run alike.
// Each pass therefore also times a fixed kernel of the benchmark's own: a
// dispatch loop over a 1 MiB table, the shape of an interpreter's hot loop.
// run.py divides each pass's host times by that kernel's time in the same
// pass (README.md, "How host times are aggregated"). No code from src/ runs
// in it, so no change to the program can move it.
// ---------------------------------------------------------------------------

constexpr uint32_t kReferenceTableWords = 1u << 18;
constexpr uint32_t kReferenceSteps = 1000000;
constexpr int kReferenceSamples = 8;
volatile uint32_t g_reference_sink = 0;

double ReferenceMs() {
  static std::vector<uint32_t> table(kReferenceTableWords);
  for (uint32_t i = 0; i < kReferenceTableWords; ++i) {
    table[i] = i * 2654435761u;  // The same inputs for every sample.
  }
  const int64_t t0 = NowNs();
  uint32_t x = 1;
  uint32_t acc = 0;
  for (uint32_t i = 0; i < kReferenceSteps; ++i) {
    x = x * 1664525u + 1013904223u;
    const uint32_t v = table[(x >> 8) & (kReferenceTableWords - 1)];
    switch (v & 3) {
      case 0:
        acc += v;
        break;
      case 1:
        acc ^= v >> 3;
        break;
      case 2:
        acc = acc * 33 + v;
        break;
      default:
        table[x & (kReferenceTableWords - 1)] = acc;
    }
  }
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  g_reference_sink = g_reference_sink ^ acc;
  return ms;
}

// ---------------------------------------------------------------------------
// JSON output. Numbers keep all their digits (%.17g).
// ---------------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

using Values = std::map<std::string, double>;

std::string ValuesJson(const Values& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    out += (out.size() > 1 ? ", " : "") + Quote(key) + ": " + Num(value);
  }
  return out + "}";
}

std::string ListJson(const std::vector<double>& list) {
  std::string out = "[";
  for (size_t i = 0; i < list.size(); ++i) {
    out += (i ? ", " : "") + Num(list[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t trace = 0;   // Shared by every span of one drill or one request.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct Tracer {
  bool enabled = false;
  uint64_t next_id = 1;
  std::vector<SpanRecord> spans;
  std::vector<std::pair<uint64_t, uint64_t>> open;  // (id, trace) of open spans.
};

Tracer g_tracer;

// Times one call. Its duration is always measured (the metrics need it);
// the span is recorded only when tracing, so the traced-minus-untraced
// difference is the cost of recording.
class Span {
 public:
  static constexpr uint64_t kInheritTrace = ~0ULL;

  explicit Span(const char* name, uint64_t trace = kInheritTrace) : start_ns_(NowNs()) {
    if (g_tracer.enabled) {
      record_.name = name;
      record_.id = g_tracer.next_id++;
      record_.parent = g_tracer.open.empty() ? 0 : g_tracer.open.back().first;
      record_.trace = trace != kInheritTrace
                          ? trace
                          : (g_tracer.open.empty() ? 0 : g_tracer.open.back().second);
      record_.start_ns = start_ns_;
      g_tracer.open.emplace_back(record_.id, record_.trace);
    }
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  // For a span whose trace id is known only once its work has started.
  void set_trace(uint64_t trace) { record_.trace = trace; }
  Span& operator=(const Span&) = delete;

  // Milliseconds since construction; closes the span on the first call.
  double End() {
    if (!ended_) {
      ended_ = true;
      end_ns_ = NowNs();
      if (record_.id != 0) {
        record_.end_ns = end_ns_;
        g_tracer.open.pop_back();
        g_tracer.spans.push_back(record_);
      }
    }
    return static_cast<double>(end_ns_ - start_ns_) / 1e6;
  }

 private:
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
  bool ended_ = false;
  SpanRecord record_;
};

// Self time per layer, and the root spans' total duration.
Values SelfMsByLayer(const std::vector<SpanRecord>& spans, double* root_ms) {
  std::map<uint64_t, double> child_ms;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  Values self;
  *root_ms = 0.0;
  for (const SpanRecord& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    self[s.name.substr(0, s.name.find('.'))] += ms - child_ms[s.id];
    if (s.parent == 0) {
      *root_ms += ms;
    }
  }
  return self;
}

bool WriteChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) {
    base = std::min(base, s.start_ns);
  }
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "  {\"name\": " << Quote(s.name) << ", \"cat\": "
        << Quote(s.name.substr(0, s.name.find('.'))) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.trace << ", \"ts\": " << Num(static_cast<double>(s.start_ns - base) / 1e3)
        << ", \"dur\": " << Num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent
        << ", \"trace\": " << s.trace << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// Child processes hand their spans back as text lines.
std::string SpansToLines(const std::vector<SpanRecord>& spans) {
  std::string out;
  for (const SpanRecord& s : spans) {
    out += "span " + s.name + " " + std::to_string(s.id) + " " + std::to_string(s.parent) + " " +
           std::to_string(s.trace) + " " + std::to_string(s.start_ns) + " " +
           std::to_string(s.end_ns) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process resources.
// ---------------------------------------------------------------------------

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
};

CpuTimes CpuOf(const rusage& ru) {
  return CpuTimes{static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6,
                  static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6};
}

CpuTimes Usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return CpuOf(ru);
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// Reads every fd in `fds` to EOF, into the matching `outs`, or until
// `deadline_ns`; false on timeout. Reading them together means a child that
// fills one pipe can never block on it while the other is being drained.
bool ReadAll(std::vector<int> fds, int64_t deadline_ns, const std::vector<std::string*>& outs) {
  char buf[65536];
  size_t open_fds = fds.size();
  while (open_fds > 0) {
    const int64_t left_ms = (deadline_ns - NowNs()) / 1000000;
    if (left_ms <= 0) {
      return false;
    }
    std::vector<pollfd> polls;
    for (int fd : fds) {
      polls.push_back(pollfd{fd, POLLIN, 0});  // fd -1 is ignored by poll.
    }
    int rc = poll(polls.data(), polls.size(), static_cast<int>(std::min<int64_t>(left_ms, 1000)));
    if (rc < 0 && errno != EINTR) {
      return false;
    }
    for (size_t i = 0; rc > 0 && i < polls.size(); ++i) {
      if (fds[i] < 0 || polls[i].revents == 0) {
        continue;
      }
      ssize_t n = read(fds[i], buf, sizeof(buf));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        fds[i] = -1;
        --open_fds;
      } else {
        outs[i]->append(buf, static_cast<size_t>(n));
      }
    }
  }
  return true;
}

// A forked child running `fn(emit)`; what it passes to `emit` comes back
// over a pipe. The child never returns into the caller's code.
using Emit = std::function<void(const std::string&)>;

struct ChildResult {
  bool exited = false;   // Normal exit (any code).
  int exit_code = 0;
  int signal = 0;        // Terminating signal, 0 if none.
  bool timed_out = false;
  double peak_rss_mb = 0.0;
  double cpu_s = 0.0;
  std::string report;
  std::string stderr_text;
};

template <typename Fn>
ChildResult RunInChild(int64_t timeout_ns, Fn fn) {
  ChildResult result;
  int out_pipe[2];
  int err_pipe[2];
  if (pipe(out_pipe) != 0 || pipe(err_pipe) != 0) {
    result.stderr_text = "pipe failed";
    return result;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid == 0) {
    close(out_pipe[0]);
    close(err_pipe[0]);
    dup2(err_pipe[1], STDERR_FILENO);
    // A check failure aborts the child; it must not leave a core file.
    rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    // Lines are written as they are produced, so a child that aborts part
    // way still reports what it got to.
    const int fd = out_pipe[1];
    fn([fd](const std::string& text) {
      size_t off = 0;
      while (off < text.size()) {
        ssize_t n = write(fd, text.data() + off, text.size() - off);
        if (n <= 0) {
          break;
        }
        off += static_cast<size_t>(n);
      }
    });
    std::fflush(stderr);
    _exit(0);
  }
  close(out_pipe[1]);
  close(err_pipe[1]);
  if (pid < 0) {
    close(out_pipe[0]);
    close(err_pipe[0]);
    result.stderr_text = "fork failed";
    return result;
  }
  result.timed_out = !ReadAll({out_pipe[0], err_pipe[0]}, NowNs() + timeout_ns,
                              {&result.report, &result.stderr_text});
  if (result.timed_out) {
    kill(pid, SIGKILL);
  }
  close(out_pipe[0]);
  close(err_pipe[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  result.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  result.cpu_s = CpuOf(ru).total();
  if (WIFEXITED(status)) {
    result.exited = true;
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.signal = WTERMSIG(status);
  }
  return result;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::string FirstLine(const std::string& text) {
  size_t start = text.find("[HBFT CHECK FAILED]");
  if (start == std::string::npos) {
    start = 0;
  }
  std::string line = text.substr(start, text.find('\n', start) - start);
  return line.size() > 200 ? line.substr(0, 200) : line;
}

// ---------------------------------------------------------------------------
// One pass's output.
// ---------------------------------------------------------------------------

struct Unit {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

class UnitTimer {
 public:
  UnitTimer() : wall0_(NowNs()), cpu0_(ProcessCpuMs()) {}
  Unit Stop() const {
    return Unit{static_cast<double>(NowNs() - wall0_) / 1e6, ProcessCpuMs() - cpu0_};
  }

 private:
  int64_t wall0_;
  double cpu0_;
};

std::string UnitsJson(const std::vector<Unit>& units) {
  std::string out = "[";
  for (size_t i = 0; i < units.size(); ++i) {
    out += (i ? ", [" : "[") + Num(units[i].wall_ms) + ", " + Num(units[i].cpu_ms) + "]";
  }
  return out + "]";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
  std::string cli_path;
  std::string corrupt;  // "", "checksum" or "drop-response".
};

struct Pass {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // JSON objects.
  std::vector<std::string> errors;    // Checks of the benchmark itself.
  Values e2e;       // setup_s and peak_rss_mb (wall_s and cpu_s come from units).
  Values report;    // Workload-specific end-to-end values for the report.
  Values det;       // Deterministic values that must repeat for one seed.
  Values counters;  // Per-layer deterministic counters (also must repeat).
  Values layer;     // Per-layer host measurements.
  // Timed units: the work every pass of a seed repeats with identical
  // inputs (the cpu-pair run, each passing drill, the fleet run, the serve
  // session). run.py takes each unit's interquartile mean over passes, then
  // the mean over units.
  std::vector<Unit> units;
  std::vector<double> drill_ms;
  std::vector<double> req_ms;

  void Fail(const std::string& id, const std::string& reason, const std::string& repro = "") {
    ++failed;
    failures.push_back("{\"id\": " + Quote(id) + ", \"reason\": " + Quote(reason) +
                       (repro.empty() ? "" : ", \"repro\": " + Quote(repro)) + "}");
  }
};

// Every per-layer counter the scenario-based workloads read from the public
// result structs, summed over all replicas and channels of one run.
void AddScenarioCounters(World& world, const ScenarioResult& r, Values* c) {
  for (size_t i = 0; i < world.replica_count(); ++i) {
    const Machine& m = world.replica(i)->hypervisor().machine();
    (*c)["machine.instret"] += static_cast<double>(m.cpu().instret);
    (*c)["machine.idle_skipped"] += static_cast<double>(m.idle_skipped_instructions());
    const TranslationCache::Stats& tc = m.tcache_stats();
    (*c)["tcache.hits"] += static_cast<double>(tc.hits);
    (*c)["tcache.lookups"] += static_cast<double>(tc.hits + tc.misses + tc.stale);
  }
  for (const ScenarioResult::NodeReport& node : r.nodes) {
    // Hypervisor::Stats::epochs_completed is never incremented; the
    // replica's own epoch count is the same boundary count.
    (*c)["hypervisor.epochs"] += static_cast<double>(node.stats.epochs);
    (*c)["hypervisor.traps_reflected"] += static_cast<double>(node.hv_stats.traps_reflected);
    (*c)["hypervisor.privileged_simulated"] +=
        static_cast<double>(node.hv_stats.privileged_simulated);
    (*c)["hypervisor.interrupts_delivered"] +=
        static_cast<double>(node.hv_stats.interrupts_delivered);
    (*c)["core.messages_sent"] += static_cast<double>(node.stats.messages_sent);
    (*c)["core.acks"] += static_cast<double>(node.stats.acks_received);
    (*c)["core.env_values"] += static_cast<double>(node.stats.env_values);
    (*c)["core.io_issued"] += static_cast<double>(node.stats.io_issued);
    (*c)["core.uncertain_synthesised"] += static_cast<double>(node.stats.uncertain_synthesised);
    (*c)["core.promotions"] += node.promoted ? 1.0 : 0.0;
  }
  (*c)["net.wire_bytes"] += static_cast<double>(r.TotalWireBytes());
  (*c)["net.delivered_bytes"] += static_cast<double>(r.TotalDeliveredBytes());
  (*c)["net.retransmits"] += static_cast<double>(r.TotalRetransmits());
  for (const ScenarioResult::ChannelReport& ch : r.channels) {
    (*c)["net.rx_discards"] +=
        static_cast<double>(ch.counters.rx_duplicates + ch.counters.rx_gaps);
  }
  for (const ResyncReport& resync : r.resyncs) {
    (*c)["resync.count"] += 1.0;
    (*c)["resync.bytes"] += static_cast<double>(resync.bytes);
    (*c)["resync.page_chunks"] += static_cast<double>(resync.page_chunks);
    (*c)["resync.zero_run_chunks"] += static_cast<double>(resync.zero_run_chunks);
    (*c)["resync.delta_pages"] += static_cast<double>(resync.delta_pages);
  }
}

// ns per instruction of Machine::Run on a bare machine over a fixed
// straight-line kernel (the fig6 shape), with the default engine.
void ProbeMachine(Pass* out) {
  const uint32_t kOuter = 20000;
  char source[1024];
  std::snprintf(source, sizeof(source), R"(
    li r1, %u
    li r2, 0x9E3779B9
    li r3, 0x2000
outer:
    add r2, r2, r1
    li r4, 16
copy:
    slli r5, r4, 2
    add r6, r3, r5
    sw r2, 0(r6)
    lw r7, 0(r6)
    add r2, r2, r7
    addi r4, r4, -1
    bnez r4, copy
    call leaf
    xor r2, r2, r9
    addi r1, r1, -1
    bnez r1, outer
    sw r2, 0x1F00(zero)
    halt
leaf:
    slli r9, r2, 3
    xor r9, r9, r2
    srli r10, r9, 5
    add r9, r9, r10
    ret
)",
                kOuter);
  auto assembled = Assemble(source);
  if (!assembled.ok()) {
    out->errors.push_back("machine probe kernel failed to assemble");
    return;
  }
  MachineConfig config;
  config.trap_mode = TrapMode::kDirect;
  Machine machine(config);
  machine.LoadImage(assembled.value());
  machine.cpu().pc = 0;
  Span span("machine.run");
  MachineExit exit = machine.Run(UINT64_MAX);
  const double ms = span.End();
  if (exit.kind != ExitKind::kHalt || machine.cpu().instret == 0) {
    out->errors.push_back("machine probe kernel did not halt");
    return;
  }
  out->layer["machine.ns_per_instr"] = ms * 1e6 / static_cast<double>(machine.cpu().instret);
  out->det["machine_probe.checksum"] = machine.memory().Read32(0x1F00);
}

// Machine::CaptureState / RestoreState with memory, and a round-trip check.
void ProbeSnapshot(const Machine& machine, Pass* out) {
  Snapshot snap;
  SnapshotWriter writer(&snap);
  Span capture("snapshot.capture");
  machine.CaptureState(writer, true);
  out->layer["snapshot.capture_ms"] = capture.End();
  out->counters["snapshot.bytes"] = static_cast<double>(snap.size());
  Machine restored(machine.config());
  SnapshotReader reader(snap);
  Span restore("snapshot.restore");
  const bool ok = restored.RestoreState(reader, true);
  out->layer["snapshot.restore_ms"] = restore.End();
  Snapshot again;
  SnapshotWriter again_writer(&again);
  restored.CaptureState(again_writer, true);
  if (!ok || again.bytes != snap.bytes) {
    out->errors.push_back("snapshot capture/restore round trip changed the state");
  }
}

// ---------------------------------------------------------------------------
// cpu-pair: the paper's CPU-bound workload on one primary and one backup.
// ---------------------------------------------------------------------------

void CpuPair(const Options& opt, Pass* out) {
  WorkloadSpec spec = WorkloadSpec::PaperCpu();
  if (opt.tiny) {
    spec.iterations = 2000;
  }
  const Scenario rep = Scenario::Replicated(spec).Seed(opt.seed);
  ScenarioResult ft;
  uint64_t primary_instret = 0;
  out->attempted = 1;
  {
    Span build("sim.build_world");
    std::unique_ptr<World> world = rep.BuildWorld();
    out->layer["sim.build_world_ms"] = build.End();
    out->e2e["setup_s"] = out->layer["sim.build_world_ms"] / 1e3;
    Span run("sim.run");
    UnitTimer timer;
    world->Run(&ft);
    out->units.push_back(timer.Stop());
    out->layer["sim.run_ms"] = run.End();
    Span collect("sim.collect");
    rep.CollectResult(*world, &ft);
    out->layer["sim.collect_ms"] = collect.End();
    AddScenarioCounters(*world, ft, &out->counters);
    primary_instret = world->replica(0)->hypervisor().machine().cpu().instret;
    if (opt.trace) {
      ProbeSnapshot(world->replica(0)->hypervisor().machine(), out);
    }
  }
  Span twin("sim.bare_twin");
  const ScenarioResult bare = rep.AsBare().Run();
  out->layer["sim.bare_twin_ms"] = twin.End();
  Span check("sim.env_check");
  const ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  out->layer["sim.env_check_ms"] = check.End();

  const uint32_t expected = bare.guest_checksum ^ (opt.corrupt == "checksum" ? 1u : 0u);
  if (!ft.completed || ft.exited_flag != 1 || !bare.completed) {
    out->Fail("cpu-pair", "replicated run did not complete cleanly");
  } else if (ft.guest_checksum != expected) {
    out->Fail("cpu-pair", "guest checksum differs from the bare twin");
  } else if (!env.ok) {
    out->Fail("cpu-pair", "env-consistency: " + env.detail);
  } else {
    out->det["np"] = NormalizedPerformance(ft, bare);
  }
  out->det["guest_checksum"] = ft.guest_checksum;
  out->det["completion_ps"] = static_cast<double>(ft.completion_time.picos());
  out->counters["sim.primary_instret"] = static_cast<double>(primary_instret);
  out->e2e["peak_rss_mb"] = PeakRssMb(RUSAGE_SELF);
}

// ---------------------------------------------------------------------------
// failover-drills: a seeded campaign of short replicated drills, each run in
// its own child process and checked against its bare twin.
// ---------------------------------------------------------------------------

struct DrillSpec {
  size_t index = 0;
  const char* guest = "txnlog";
  int ops = 16;
  int backups = 1;
  const char* variant = "old";
  int epoch = 4096;
  bool lossy = false;
  uint64_t seed = 1;
  double kill_frac = 0.5;  // Kill time as a fraction of the bare run.
  bool rejoin = false;

  std::vector<std::string> Args() const {
    std::vector<std::string> args = {
        std::string("--workload=") + guest,  "--iterations=" + std::to_string(ops),
        "--backups=" + std::to_string(backups), std::string("--variant=") + variant,
        "--epoch-length=" + std::to_string(epoch), "--seed=" + std::to_string(seed)};
    if (lossy) {
      args.insert(args.end(), {"--loss=0.05", "--dup=0.01", "--reorder=0.01"});
    }
    return args;
  }
};

// The campaign is a full factorial over the discrete knobs (guest, backups,
// variant, epoch, link), so every pass covers every cell, including the
// net-echo x lossy x failover cells where the known defects live. The seed
// draws the continuous knobs by stratified sampling within each block of
// four cells that share guest, backups and link (the knobs that set a
// drill's cost): one operation count from each quarter of 16-64, one kill
// time from each quarter of the bare run, and exactly two of the four
// drills repair and kill again, assigned to cells by a seeded shuffle.
// Every seed thus gives a different campaign of the same overall shape,
// which keeps host time per drill comparable across seeds. The campaign
// holds two replicates of the factorial, each with its own draws, so that
// the draws of one seed average out over more drills.
constexpr int kCampaignReplicates = 2;

std::vector<DrillSpec> DrillCampaign(uint64_t seed, bool tiny) {
  static const char* kGuests[] = {"txnlog", "net-echo", "diskwrite"};
  static const char* kVariants[] = {"old", "new"};
  DeterministicRng rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  auto shuffled = [&rng] {
    std::vector<uint64_t> order = {0, 1, 2, 3};
    for (uint64_t i = 3; i > 0; --i) {
      std::swap(order[i], order[rng.NextBelow(i + 1)]);
    }
    return order;
  };
  std::vector<DrillSpec> drills;
  auto add_block = [&](const char* guest, int backups, bool lossy) {
    const std::vector<uint64_t> ops = shuffled();
    const std::vector<uint64_t> kill = shuffled();
    const std::vector<uint64_t> rejoin = shuffled();
    size_t cell = 0;
    for (const char* variant : kVariants) {
      for (int epoch : {1024, 4096}) {
        DrillSpec d;
        d.index = drills.size();
        d.guest = guest;
        d.backups = backups;
        d.variant = variant;
        d.epoch = epoch;
        d.lossy = lossy;
        d.ops = 16 + static_cast<int>(ops[cell] * 12 + rng.NextBelow(13));
        d.seed = rng.NextBelow(1ULL << 31);
        d.kill_frac = (static_cast<double>(kill[cell]) + rng.NextDouble()) / 4.0;
        d.rejoin = rejoin[cell] < 2;
        drills.push_back(d);
        ++cell;
      }
    }
  };
  for (int replicate = 0; replicate < (tiny ? 1 : kCampaignReplicates); ++replicate) {
    for (const char* guest : kGuests) {
      for (int backups : {1, 2}) {
        for (bool lossy : {false, true}) {
          add_block(guest, backups, lossy);
        }
      }
    }
  }
  if (tiny) {
    // One ideal and one lossy drill per guest, at the smallest size.
    std::vector<DrillSpec> small;
    for (const DrillSpec& d : drills) {
      if (d.backups == 1 && std::strcmp(d.variant, "new") == 0 && d.epoch == 1024) {
        small.push_back(d);
        small.back().ops = 16;
        small.back().index = small.size() - 1;
      }
    }
    return small;
  }
  return drills;
}

std::string DrillRepro(const std::vector<std::string>& args) {
  std::string line = "hbft_cli run --mode=both";
  for (const std::string& a : args) {
    line += " " + a;
  }
  return line;
}

bool ParseDrillFlags(const std::vector<std::string>& args, cli::ScenarioFlags* out) {
  std::vector<std::string> storage = args;
  std::vector<char*> argv;
  for (std::string& s : storage) {
    argv.push_back(s.data());
  }
  cli::FlagSet flags;
  return flags.Parse(static_cast<int>(argv.size()), argv.data(), 0) &&
         cli::ParseScenarioFlags(flags, out) && flags.Finish();
}

// Runs in the child. Report lines: "key value", "fail reason", "repro line",
// "counter name value" and "span ..." (see SpansToLines).
void RunDrill(const DrillSpec& d, const Options& opt, const Emit& emit) {
  std::vector<std::string> args = d.Args();
  cli::ScenarioFlags base;
  if (!ParseDrillFlags(args, &base)) {
    emit("fail drill flags rejected\n");
    return;
  }
  const UnitTimer drill_timer;  // The drill's work, without fork and exit.
  Span twin("sim.bare_twin");
  const ScenarioResult bare = base.Bare().Run();
  emit("sim.bare_twin_ms " + Num(twin.End()) + "\n");
  if (!bare.completed || bare.exited_flag != 1) {
    emit("fail bare reference did not complete\n");
    return;
  }
  const double bare_ms = bare.completion_time.seconds() * 1e3;
  const double kill_ms = std::max(0.1, std::round(d.kill_frac * bare_ms * 10.0) / 10.0);
  char kill[64];
  std::snprintf(kill, sizeof(kill), "--fail=time-ms=%.1f", kill_ms);
  args.push_back(kill);
  if (d.rejoin) {
    args.insert(args.end(), {"--fail=rejoin-after-ms=20", "--fail=after-resync-ms=10"});
  }
  cli::ScenarioFlags flags;
  if (!ParseDrillFlags(args, &flags)) {
    emit("fail drill flags rejected\n");
    return;
  }
  // Sent before the replicated run, which may abort on a check failure.
  emit("repro " + DrillRepro(args) + "\n" + SpansToLines(g_tracer.spans));
  g_tracer.spans.clear();
  // The simulated-time bound: a drill that runs this far past its bare twin
  // has wedged.
  const SimTime bound = SimTime::MicrosF((5.0 * bare_ms + 5000.0) * 1e3);
  Scenario scenario = flags.Replicated();
  scenario.MaxTime(bound);

  std::ostringstream rep;
  ScenarioResult ft;
  Values counters;
  {
    Span build("sim.build_world");
    std::unique_ptr<World> world = scenario.BuildWorld();
    rep << "sim.build_world_ms " << Num(build.End()) << "\n";
    Span run("sim.run");
    world->Run(&ft);
    rep << "sim.run_ms " << Num(run.End()) << "\n";
    Span collect("sim.collect");
    scenario.CollectResult(*world, &ft);
    rep << "sim.collect_ms " << Num(collect.End()) << "\n";
    AddScenarioCounters(*world, ft, &counters);
  }
  Span check("sim.env_check");
  const ConsistencyResult env = CheckEnvConsistency(bare.env_trace, ft.env_trace, ft.issuer_chain());
  rep << "sim.env_check_ms " << Num(check.End()) << "\n";
  const Unit drill = drill_timer.Stop();
  rep << "unit " << Num(drill.wall_ms) << " " << Num(drill.cpu_ms) << "\n";
  for (const auto& [key, value] : counters) {
    rep << "counter " << key << " " << Num(value) << "\n";
  }
  rep << "det.completion_ps " << ft.completion_time.picos() << "\n";
  rep << "det.bare_completion_ps " << bare.completion_time.picos() << "\n";

  const uint32_t expected = bare.guest_checksum ^ (opt.corrupt == "checksum" ? 1u : 0u);
  if (ft.timed_out || (!ft.completed && ft.completion_time >= bound)) {
    rep << "fail ran past the simulated-time bound (5 x bare + 5 s)\n";
  } else if (!ft.completed || ft.exited_flag != 1) {
    rep << "fail did not complete (deadlocked=" << ft.deadlocked
        << ", service_lost=" << ft.service_lost << ")\n";
  } else if (ft.guest_checksum != expected) {
    rep << "fail guest checksum differs from the bare twin\n";
  } else if (!env.ok) {
    rep << "fail env-consistency: " << env.detail.substr(0, 160) << "\n";
  }
  emit(rep.str() + SpansToLines(g_tracer.spans));
}

void FailoverDrills(const Options& opt, Pass* out) {
  const std::vector<DrillSpec> drills = DrillCampaign(opt.seed, opt.tiny);
  double setup_ms = 0.0;
  double campaign_ms = 0.0;
  std::vector<double> drill_rss_mb;
  for (const DrillSpec& d : drills) {
    const std::string id = "drill-" + std::to_string(d.index);
    ++out->attempted;
    Span span("bench.drill", d.index + 1);
    ChildResult child = RunInChild(60LL * 1000000000LL, [&](const Emit& emit) {
      // Child span ids live in their own range so they never collide.
      g_tracer.spans.clear();
      g_tracer.next_id = (d.index + 1) << 32;
      RunDrill(d, opt, emit);
    });
    const double ms = span.End();
    out->drill_ms.push_back(ms);
    Unit unit;
    drill_rss_mb.push_back(child.peak_rss_mb);
    campaign_ms += ms;

    std::string fail_reason;
    std::string repro = DrillRepro(d.Args());
    std::istringstream lines(child.report);
    std::string line;
    while (std::getline(lines, line)) {
      std::istringstream in(line);
      std::string key;
      in >> key;
      if (key == "fail") {
        fail_reason = line.substr(5);
      } else if (key == "repro") {
        repro = line.substr(6);
      } else if (key == "unit") {
        in >> unit.wall_ms >> unit.cpu_ms;
      } else if (key == "counter") {
        std::string name;
        double value = 0.0;
        in >> name >> value;
        out->counters[name] += value;
      } else if (key == "span") {
        SpanRecord s;
        in >> s.name >> s.id >> s.parent >> s.trace >> s.start_ns >> s.end_ns;
        g_tracer.spans.push_back(s);
      } else if (key.rfind("det.", 0) == 0) {
        double value = 0.0;
        in >> value;
        out->det[id + key.substr(3)] = value;
      } else if (!key.empty()) {
        double value = 0.0;
        in >> value;
        out->layer[key] += value;
        if (key == "sim.build_world_ms") {
          setup_ms += value;
        }
      }
    }
    if (child.timed_out) {
      fail_reason = "host timeout (60 s)";
    } else if (child.signal != 0) {
      fail_reason = "killed by signal " + std::to_string(child.signal) + ": " +
                    FirstLine(child.stderr_text);
    } else if (!child.exited || child.exit_code != 0) {
      fail_reason = "child exited abnormally";
    }
    // wall_s and cpu_s average the passing drills: a failed drill's cost
    // depends on how it fails (a wedge simulates up to its bound, an abort
    // stops early), which would make them move with the seed.
    if (fail_reason.empty()) {
      out->units.push_back(unit);
    }
    out->det[id + ".ok"] = fail_reason.empty() ? 1.0 : 0.0;
    if (!fail_reason.empty()) {
      out->Fail(id, fail_reason, repro);
    }
  }
  // Each drill is its own process; the median drill's peak RSS (the largest
  // drill is one rare cell of the campaign and moves with the seed).
  out->e2e["setup_s"] = setup_ms / 1e3;
  out->e2e["peak_rss_mb"] = Median(drill_rss_mb);
  out->report["drills_per_s"] =
      static_cast<double>(out->attempted - out->failed) / (campaign_ms / 1e3);
}

// ---------------------------------------------------------------------------
// fleet-storm: 64 chains x (1+1) replicas on 8 hosts, a 1-host storm.
// ---------------------------------------------------------------------------

FleetConfig StormConfig(uint64_t seed, bool tiny) {
  FleetConfig config;
  config.chains = tiny ? 4 : 64;
  config.hosts = tiny ? 2 : 8;
  config.backups = 1;
  config.placement = PlacementPolicy::kAntiAffinity;
  config.seed = seed;
  config.verify = true;
  config.threads = 2;
  for (size_t h : StormHosts(config.hosts, 1)) {
    config.host_failures.push_back(HostFailure{h, SimTime::Millis(120)});
  }
  return config;
}

// The scenario Fleet::BuildChains builds for chain `c`.
Scenario FleetChainScenario(const FleetConfig& config, size_t c) {
  Scenario scenario = Scenario::Replicated(
      WorkloadSpec::NetEcho(static_cast<uint32_t>(config.traffic.requests_per_chain)));
  scenario.Backups(config.backups)
      .Device(DeviceId::kNic)
      .Seed(config.seed + 1000003ULL * c)
      .MaxTime(config.max_time);
  for (uint64_t i = 0; i < config.traffic.requests_per_chain; ++i) {
    scenario.InjectPacket(EncodeRequest(static_cast<uint32_t>(c), static_cast<uint32_t>(i),
                                        config.traffic.payload_bytes),
                          RequestArrival(config.traffic, i));
  }
  return scenario;
}

void FleetStorm(const Options& opt, Pass* out) {
  const FleetConfig config = StormConfig(opt.seed, opt.tiny);
  // Set-up: every chain's BuildWorld, all kept alive as the fleet keeps
  // them, in a child so the timed fleet run starts from a fresh heap.
  ChildResult setup = RunInChild(120LL * 1000000000LL, [&](const Emit& emit) {
    g_tracer.spans.clear();
    g_tracer.next_id = 1ULL << 40;
    std::vector<std::unique_ptr<World>> worlds;
    double total_ms = 0.0;
    for (size_t c = 0; c < config.chains; ++c) {
      const Scenario scenario = FleetChainScenario(config, c);
      Span build("sim.build_world", c + 1);
      worlds.push_back(scenario.BuildWorld());
      total_ms += build.End();
    }
    emit("build_ms " + Num(total_ms) + "\n" + SpansToLines(g_tracer.spans));
  });
  double build_ms = 0.0;
  std::istringstream lines(setup.report);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "build_ms") {
      in >> build_ms;
    } else if (key == "span") {
      SpanRecord s;
      in >> s.name >> s.id >> s.parent >> s.trace >> s.start_ns >> s.end_ns;
      g_tracer.spans.push_back(s);
    }
  }
  if (setup.timed_out || !setup.exited || build_ms <= 0.0) {
    out->errors.push_back("fleet chain builds failed: " + FirstLine(setup.stderr_text));
  }
  out->e2e["setup_s"] = build_ms / 1e3;
  out->layer["fleet.chain_build_ms"] = build_ms;
  out->layer["sim.build_world_ms"] = build_ms;

  const CpuTimes c0 = Usage(RUSAGE_SELF);
  Fleet fleet(config);
  Span run("fleet.run");
  const FleetResult result = fleet.Run();
  const double run_ms = run.End();
  const CpuTimes c1 = Usage(RUSAGE_SELF);
  out->units.push_back(Unit{run_ms, (c1.total() - c0.total()) * 1e3});
  out->e2e["peak_rss_mb"] = PeakRssMb(RUSAGE_SELF);
  out->layer["fleet.run_ms"] = run_ms;
  out->layer["proc.sys_frac"] = (c1.sys_s - c0.sys_s) / std::max(1e-9, c1.total() - c0.total());
  out->layer["fleet.rss_per_replica_mb"] =
      out->e2e["peak_rss_mb"] / static_cast<double>(config.chains * (config.backups + 1));

  for (const FleetChainReport& chain : result.chains) {
    ++out->attempted;
    if (!chain.completed || chain.service_lost || !chain.env_consistent) {
      out->Fail("chain-" + std::to_string(chain.chain),
                chain.service_lost ? "service lost"
                                   : (!chain.completed ? "did not complete" : "env-consistency"));
    }
  }
  if (result.chains_lost != 0 || !result.all_env_consistent ||
      result.chains_completed != result.chains.size()) {
    out->det["healthy"] = 0.0;
  } else {
    out->det["healthy"] = 1.0;
  }
  out->det["fingerprint_hi"] = static_cast<double>(result.fingerprint >> 32);
  out->det["fingerprint_lo"] = static_cast<double>(result.fingerprint & 0xFFFFFFFFULL);
  out->det["availability"] = result.availability;
  out->det["slo_attainment"] = result.slo_attainment;
  out->counters["fleet.failovers"] = static_cast<double>(result.failovers);
  out->counters["fleet.repairs"] = static_cast<double>(result.repairs);
  out->counters["fleet.requests_served"] = static_cast<double>(result.requests_served);
}

// ---------------------------------------------------------------------------
// serve-echo: `hbft_cli serve --role=single` behind a real TCP listener, one
// client connection sending 48-byte requests open-loop at 20 req/s.
// ---------------------------------------------------------------------------

constexpr double kServeRate = 20.0;       // Requests per second.
constexpr size_t kServePayload = 48;      // Bytes per request.

uint16_t FreePort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return 0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

// Sum of every `"key": number` occurrence in the server's JSON report.
double JsonSum(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  double total = 0.0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    total += std::strtod(text.c_str() + pos + needle.size(), nullptr);
  }
  return total;
}

void ServeEcho(const Options& opt, Pass* out) {
  const size_t requests = opt.tiny ? 8 : 60;
  const uint16_t port = FreePort();
  int out_pipe[2];
  if (port == 0 || pipe(out_pipe) != 0) {
    out->Fail("serve", "no free port or pipe");
    return;
  }
  const std::vector<std::string> argv_s = {
      opt.cli_path, "serve", "--role=single", "--port=" + std::to_string(port), "--variant=new",
      "--seed=" + std::to_string(opt.seed), "--max-requests=" + std::to_string(requests),
      "--json"};
  Span spawn("serve.spawn");
  std::fflush(stdout);
  pid_t pid = fork();
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDERR_FILENO);
    }
    std::vector<char*> argv;
    for (const std::string& s : argv_s) {
      argv.push_back(const_cast<char*>(s.c_str()));
    }
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  if (pid < 0) {
    close(out_pipe[0]);
    out->Fail("serve", "fork failed");
    return;
  }
  // Set-up ends when the listener accepts.
  int fd = -1;
  const int64_t connect_deadline = NowNs() + 20LL * 1000000000LL;
  while (fd < 0 && NowNs() < connect_deadline) {
    std::string error;
    fd = serve::TcpConnect("127.0.0.1", port, 100, &error);
    if (fd < 0) {
      usleep(1000);
    }
  }
  out->e2e["setup_s"] = spawn.End() / 1e3;

  DeterministicRng rng(opt.seed ^ 0x5EB0E5EB0E5ULL);
  std::vector<std::vector<uint8_t>> payloads(requests);
  for (auto& p : payloads) {
    p.resize(kServePayload);
    for (uint8_t& b : p) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
  }
  std::vector<double> latency_ms(requests, -1.0);
  double lag_max_ms = 0.0;
  size_t answered = 0;
  bool dropped_one = false;
  const int64_t interval_ns = static_cast<int64_t>(1e9 / kServeRate);
  const int64_t t0 = NowNs() + 20000000LL;
  const int64_t last_due = t0 + interval_ns * static_cast<int64_t>(requests - 1);
  const int64_t give_up = last_due + 5LL * 1000000000LL;
  Span session("serve.session");
  if (fd >= 0) {
    serve::FrameStream stream(fd, serve::kMaxClientFrameBytes);
    size_t next = 0;
    bool alive = true;
    while (alive && answered < requests && NowNs() < give_up) {
      const int64_t now = NowNs();
      const int64_t due = t0 + interval_ns * static_cast<int64_t>(next);
      if (next < requests && now >= due) {
        Span encode("serve.encode", next + 1);
        serve::ClientFrame frame;
        frame.type = serve::kFrameRequest;
        frame.client_id = 1;
        frame.seq = next + 1;
        frame.payload = payloads[next];
        stream.QueueFrame(frame.Serialize());
        encode.End();
        Span send("serve.send", next + 1);
        alive = stream.Flush();
        send.End();
        lag_max_ms = std::max(lag_max_ms, static_cast<double>(NowNs() - due) / 1e6);
        ++next;
        continue;
      }
      const int64_t wake = next < requests ? due : give_up;
      timespec ts{};
      const int64_t wait_ns = std::max<int64_t>(0, wake - now);
      ts.tv_sec = wait_ns / 1000000000LL;
      ts.tv_nsec = wait_ns % 1000000000LL;
      pollfd p{stream.fd(), static_cast<short>(POLLIN | (stream.HasPendingWrites() ? POLLOUT : 0)),
               0};
      int rc = 0;
      {
        // Waiting with requests outstanding is waiting on the server;
        // otherwise it is the open-loop pacing.
        Span wait(next > answered ? "serve.wait" : "bench.pace");
        rc = ppoll(&p, 1, &ts, nullptr);
      }
      if (rc <= 0) {
        continue;
      }
      if (p.revents & POLLOUT) {
        alive = stream.Flush();
      }
      if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
        Span recv("serve.recv");
        alive = stream.ReadAvailable() && alive;
        recv.End();
        while (auto body = stream.NextFrame()) {
          const int64_t at = NowNs();
          Span decode("serve.decode");
          std::optional<serve::ClientFrame> frame = serve::ClientFrame::Deserialize(*body);
          const uint64_t seq = frame ? frame->seq : 0;
          decode.set_trace(seq);
          if (opt.corrupt == "drop-response" && !dropped_one) {
            dropped_one = true;  // Self-test: behave as if this response never arrived.
            continue;
          }
          if (!frame || frame->type != serve::kFrameResponse || seq == 0 || seq > requests ||
              latency_ms[seq - 1] >= 0.0) {
            continue;
          }
          if (frame->payload != payloads[seq - 1]) {
            out->Fail("request-" + std::to_string(seq), "response payload differs from request");
            latency_ms[seq - 1] = 1e9;
          } else {
            latency_ms[seq - 1] =
                static_cast<double>(at - (t0 + interval_ns * static_cast<int64_t>(seq - 1))) /
                1e6;
          }
          ++answered;
        }
      }
    }
  }
  session.End();
  const double session_s = static_cast<double>(NowNs() - t0) / 1e9;

  Span shutdown("serve.shutdown");
  std::string server_json;
  const bool read_ok = ReadAll({out_pipe[0]}, NowNs() + 15LL * 1000000000LL, {&server_json});
  if (!read_ok) {
    kill(pid, SIGKILL);
  }
  close(out_pipe[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  shutdown.End();
  const CpuTimes server_cpu = CpuOf(ru);

  out->attempted = requests;
  for (size_t i = 0; i < requests; ++i) {
    if (latency_ms[i] < 0.0) {
      out->Fail("request-" + std::to_string(i + 1),
                fd < 0 ? "listener never accepted" : "no response");
    } else if (latency_ms[i] < 1e9) {
      out->req_ms.push_back(latency_ms[i]);
    }
  }
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out->errors.push_back("server did not exit cleanly");
  }
  const double responses = JsonSum(server_json, "responses");
  const double runtime_s = JsonSum(server_json, "runtime_s");
  out->units.push_back(Unit{session_s * 1e3, server_cpu.total() * 1e3});
  out->e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  out->report["server_cpu_ms_per_req"] = server_cpu.total() * 1e3 / std::max(1.0, responses);
  out->layer["serve.cpu_ms_per_sim_s"] = server_cpu.total() * 1e3 / std::max(1e-9, runtime_s);
  out->layer["loadgen.lag_max_ms"] = lag_max_ms;
  out->layer["proc.sys_frac"] = server_cpu.sys_s / std::max(1e-9, server_cpu.total());
  // The server paces simulated time by the wall clock, so its epoch and
  // message counts are host measurements, not deterministic counters.
  out->layer["serve.epochs"] = JsonSum(server_json, "epochs");
  out->layer["serve.messages_sent"] = JsonSum(server_json, "messages_sent");
  out->layer["net.wire_bytes"] = JsonSum(server_json, "bytes_on_wire");
  out->layer["net.delivered_bytes"] = JsonSum(server_json, "bytes_delivered");
  out->layer["net.retransmits"] = JsonSum(server_json, "retransmits");
  out->layer["net.rx_discards"] = JsonSum(server_json, "rx_discards");
  out->counters["serve.responses"] = responses;
}

// ---------------------------------------------------------------------------

std::string HostJson() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return std::string("{\"cpus\": ") + std::to_string(cpus) +
         ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"optimized\": " + (optimized ? "true" : "false") + ", \"engine\": " +
         Quote(DefaultInterpMode() == InterpMode::kCached ? "cached" : "slow") + "}";
}

int PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench <cpu-pair|failover-drills|fleet-storm|serve-echo> --seed=N "
               "[--trace] [--spans=FILE] [--cli=PATH] [--tiny] "
               "[--corrupt=checksum|drop-response]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return PrintUsage();
  }
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix) : nullptr;
    };
    if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (const char* v = value("--spans=")) {
      opt.spans_path = v;
    } else if (const char* v = value("--cli=")) {
      opt.cli_path = v;
    } else if (const char* v = value("--corrupt=")) {
      opt.corrupt = v;
    } else {
      return PrintUsage();
    }
  }
  if (std::getenv("HBFT_INTERP") != nullptr) {
    std::fprintf(stderr, "perfbench: unset HBFT_INTERP so the default engine is measured\n");
    return 2;
  }
  g_tracer.enabled = opt.trace;

  Pass pass;
  const int64_t t0 = NowNs();
  {
    Span root("bench.pass", 0);
    if (opt.workload == "cpu-pair") {
      CpuPair(opt, &pass);
    } else if (opt.workload == "failover-drills") {
      FailoverDrills(opt, &pass);
    } else if (opt.workload == "fleet-storm") {
      FleetStorm(opt, &pass);
    } else if (opt.workload == "serve-echo") {
      if (opt.cli_path.empty()) {
        return PrintUsage();
      }
      ServeEcho(opt, &pass);
    } else {
      return PrintUsage();
    }
    if (opt.trace) {
      ProbeMachine(&pass);
    }
  }
  const double pass_ms = static_cast<double>(NowNs() - t0) / 1e6;
  // After the workload and outside the root span. Samples taken right after
  // the process started ran slow on the host the benchmark was tuned on.
  std::vector<double> reference_ms;
  for (int i = 0; i < kReferenceSamples; ++i) {
    reference_ms.push_back(ReferenceMs());
  }

  std::string self_json = "{}";
  double root_ms = 0.0;
  if (opt.trace) {
    self_json = ValuesJson(SelfMsByLayer(g_tracer.spans, &root_ms));
    if (!opt.spans_path.empty() && !WriteChromeTrace(opt.spans_path, g_tracer.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_path.c_str());
      return 1;
    }
  }
  std::string failures = "[";
  for (size_t i = 0; i < pass.failures.size(); ++i) {
    failures += (i ? ", " : "") + pass.failures[i];
  }
  failures += "]";
  std::string errors = "[";
  for (size_t i = 0; i < pass.errors.size(); ++i) {
    errors += (i ? ", " : "") + Quote(pass.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"host\": %s,\n"
      " \"attempted\": %llu, \"failed\": %llu, \"failures\": %s, \"errors\": %s,\n"
      " \"e2e\": %s,\n \"report\": %s,\n \"det\": %s,\n \"counters\": %s,\n \"layer\": %s,\n"
      " \"units\": %s,\n \"reference_ms\": %s,\n \"drill_ms\": %s,\n \"req_ms\": %s,\n"
      " \"self_ms\": %s, \"root_ms\": %s, \"pass_ms\": %s, \"spans\": %zu}\n",
      Quote(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? "true" : "false", HostJson().c_str(),
      static_cast<unsigned long long>(pass.attempted),
      static_cast<unsigned long long>(pass.failed), failures.c_str(), errors.c_str(),
      ValuesJson(pass.e2e).c_str(), ValuesJson(pass.report).c_str(),
      ValuesJson(pass.det).c_str(), ValuesJson(pass.counters).c_str(),
      ValuesJson(pass.layer).c_str(), UnitsJson(pass.units).c_str(),
      ListJson(reference_ms).c_str(), ListJson(pass.drill_ms).c_str(),
      ListJson(pass.req_ms).c_str(), self_json.c_str(), Num(root_ms).c_str(),
      Num(pass_ms).c_str(), g_tracer.spans.size());
  return 0;
}

}  // namespace
}  // namespace hbft

int main(int argc, char** argv) { return hbft::Main(argc, argv); }
