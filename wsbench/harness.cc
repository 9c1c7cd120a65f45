// Benchmark harness: runs one named workload of the paper through the public
// verifier API and prints its metrics as one JSON line.
//
//   wsbench_harness --workload loan_policy --seed 1 --seconds 20
//       --trace 0 --root <checkout> --work <scratch dir>
//
// Untraced mode (--trace 0) times setup (spec read + ParseComposition +
// Property::Parse + Verifier construction, repeated) and then repeated
// Verifier::Verify calls for about --seconds, each checked against the
// workload's hand-written expectation. Traced mode (--trace 1) records the
// harness's own spans around its calls into each layer, times the same
// untraced calls as a baseline, and runs one Verify with phase timing and
// worker ledgers on, reading the program's counters, phase tree and ledgers
// afterwards. See wsbench/README.md for every metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/ledger.h"
#include "common/run_control.h"
#include "ltl/grounding.h"
#include "ltl/property.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "spec/library.h"
#include "spec/parser.h"
#include "verifier/checkpoint.h"
#include "verifier/verifier.h"

namespace {

using namespace wsv;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- Workloads -------------------------------------------------------------

/// What a correct Verify call on the workload returns, whatever the seed and
/// the job count.
struct Expectation {
  bool holds = true;
  StopReason stop_reason = StopReason::kComplete;
  std::string unit;
  std::vector<verifier::IndexInterval> covered;
  size_t witness_database = 0;   // checked when !holds
  size_t witness_valuation = 0;  // checked when !holds
};

struct Workload {
  std::string name;
  std::string spec_file;  // relative to the checkout root
  std::string property;
  /// Pin the Example 2.2 loan database (with or without
  /// CreditAgency.accounts) instead of enumerating databases.
  bool pinned_loan_db = false;
  bool with_accounts = true;
  size_t fresh_domain_size = 1;
  size_t max_databases = static_cast<size_t>(-1);
  size_t jobs = 1;
  Expectation expect;
};

/// The Example 3.2 bank policy in the B form the paper displays; violated
/// under the queue semantics (the decision is consumed before the letter).
constexpr char kDisplayedPolicy[] =
    "forall id, name, loan: "
    "G[((exists ssn: CreditAgency.rating(ssn, \"excellent\") and "
    "Officer.customer(id, ssn, name)) "
    "or Manager.decision(id, \"approved\")) "
    "B (not Officer.letter(id, name, loan, \"approved\"))]";

std::vector<Workload> Workloads() {
  std::vector<Workload> w(3);
  w[0].name = "loan_policy";
  w[0].spec_file = "specs/loan.wsv";
  w[0].property = spec::library::LoanPropertyPolicy();
  w[0].pinned_loan_db = true;
  w[0].jobs = 4;
  w[0].expect = {true, StopReason::kComplete, "valuation", {{0, 2744}}, 0, 0};

  w[1].name = "loan_displayed_policy";
  w[1].spec_file = "specs/loan.wsv";
  w[1].property = kDisplayedPolicy;
  w[1].pinned_loan_db = true;
  w[1].with_accounts = false;
  w[1].jobs = 1;
  w[1].expect = {false, StopReason::kComplete, "valuation", {{0, 1279}},
                 0, 1279};

  w[2].name = "shop_sweep";
  w[2].spec_file = "specs/shop.wsv";
  w[2].property = "forall p: G(Shop.ship(p) -> Shop.inStock(p))";
  w[2].fresh_domain_size = 3;
  w[2].max_databases = 500;
  w[2].jobs = 4;
  w[2].expect = {true, StopReason::kBudget, "database", {{0, 500}}, 0, 0};
  return w;
}

// --- Seeded inputs ---------------------------------------------------------

struct SplitMix64 {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::string Name(size_t length) {
    static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    std::string out;
    for (size_t i = 0; i < length; ++i) out += kAlphabet[Next() % 36];
    return out;
  }
};

/// The generated inputs of one run: the spec file the program reads, the
/// property text and the pinned databases.
struct Inputs {
  std::string spec_path;
  std::string property;
  std::optional<std::vector<verifier::NamedDatabase>> databases;
};

/// The Example 2.2 database with every constant consistently renamed to a
/// seed-derived spelling. Interning order, and with it the valuation order,
/// follows peer and relation order, so the witness index does not move.
std::vector<verifier::NamedDatabase> LoanDatabase(SplitMix64& rng,
                                                  bool with_accounts) {
  std::map<std::string, std::string> rename;
  std::set<std::string> used;
  for (const char* c : {"c1", "l1", "s1", "ann", "good", "a1", "b1"}) {
    std::string name;
    do name = "k" + rng.Name(7);
    while (!used.insert(name).second);
    rename[c] = name;
  }
  auto row = [&](std::initializer_list<const char*> values) {
    std::vector<std::string> out;
    for (const char* v : values) out.push_back(rename.at(v));
    return out;
  };
  std::vector<verifier::NamedDatabase> dbs(4);
  dbs[0]["wants"] = {row({"c1", "l1"})};
  dbs[1]["customer"] = {row({"c1", "s1", "ann"})};
  dbs[2]["client"] = {row({"c1", "s1", "ann"})};
  dbs[3]["creditRecord"] = {row({"s1", "good"})};
  if (with_accounts) dbs[3]["accounts"] = {row({"s1", "a1", "b1"})};
  return dbs;
}

/// Appends one seed-derived suffix to the peer and every relation name of
/// the shop spec (and of the property), keeping `prev_` input references and
/// the relative order of all names.
std::string RenameShop(std::string text, const std::string& suffix) {
  for (const char* name :
       {"Shop", "product", "inStock", "view", "addToCart", "checkout",
        "viewed", "cart", "ordered", "ship", "confirm"}) {
    std::regex word(std::string("\\b(prev_)?") + name + "\\b");
    text = std::regex_replace(text, word, std::string("$1") + name + suffix);
  }
  return text;
}

std::optional<Inputs> MakeInputs(const Workload& w, uint64_t seed,
                                 const std::string& root,
                                 const std::string& work) {
  SplitMix64 rng{seed};
  Inputs in;
  in.property = w.property;
  in.spec_path = root + "/" + w.spec_file;
  if (w.pinned_loan_db) {
    in.databases = LoanDatabase(rng, w.with_accounts);
    return in;
  }
  std::optional<std::string> text = ReadFile(in.spec_path);
  if (!text) return std::nullopt;
  std::string suffix = "_" + rng.Name(5);
  in.spec_path = work + "/" + w.name + "-" + std::to_string(seed) + ".wsv";
  std::ofstream out(in.spec_path, std::ios::binary | std::ios::trunc);
  out << RenameShop(*text, suffix);
  if (!out) return std::nullopt;
  in.property = RenameShop(w.property, suffix);
  return in;
}

// --- Spans -----------------------------------------------------------------

/// The harness's own spans, kept in memory and written out at exit.
class Spans {
 public:
  size_t Begin(const char* name, size_t parent) {
    spans_.push_back({name, parent, Clock::now(), {}});
    return spans_.size() - 1;
  }
  double End(size_t id) {
    spans_[id].end = Clock::now();
    return Seconds(spans_[id].start, spans_[id].end);
  }
  static constexpr size_t kRoot = static_cast<size_t>(-1);

  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_[0].start;
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":"
          << (s.parent == kRoot ? std::string("null")
                                : std::to_string(s.parent))
          << ",\"start_s\":" << Seconds(t0, s.start)
          << ",\"end_s\":" << Seconds(t0, s.end) << "}";
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    size_t parent;
    Clock::time_point start, end;
  };
  std::vector<Span> spans_;
};

// --- Setup and verification ------------------------------------------------

struct Loaded {
  std::unique_ptr<spec::Composition> comp;
  std::optional<ltl::Property> property;
  std::unique_ptr<verifier::Verifier> verifier;
};

verifier::VerifierOptions Options(const Workload& w, const Inputs& in,
                                  size_t jobs) {
  verifier::VerifierOptions options;
  options.fixed_databases = in.databases;
  options.fresh_domain_size = w.fresh_domain_size;
  options.max_databases = w.max_databases;
  options.jobs = jobs;
  return options;
}

struct SetupTimes {
  double total_s = 0, spec_s = 0, ltl_s = 0;
};

/// Reads and parses the spec, parses the property and constructs the
/// verifier: the work a user pays before the first Verify.
std::optional<Loaded> Setup(const Workload& w, const Inputs& in, size_t jobs,
                            Spans& spans, SetupTimes* times) {
  Loaded out;
  size_t setup = spans.Begin("setup", Spans::kRoot);
  size_t span = spans.Begin("spec.parse", setup);
  std::optional<std::string> text = ReadFile(in.spec_path);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", in.spec_path.c_str());
    return std::nullopt;
  }
  Result<spec::Composition> comp = spec::ParseComposition(*text);
  times->spec_s = spans.End(span);
  if (!comp.ok()) {
    std::fprintf(stderr, "spec: %s\n", comp.status().ToString().c_str());
    return std::nullopt;
  }
  out.comp = std::make_unique<spec::Composition>(std::move(*comp));
  span = spans.Begin("ltl.parse", setup);
  Result<ltl::Property> property = ltl::Property::Parse(in.property);
  times->ltl_s = spans.End(span);
  if (!property.ok()) {
    std::fprintf(stderr, "property: %s\n",
                 property.status().ToString().c_str());
    return std::nullopt;
  }
  out.property = std::move(*property);
  span = spans.Begin("verifier.construct", setup);
  out.verifier = std::make_unique<verifier::Verifier>(out.comp.get(),
                                                      Options(w, in, jobs));
  spans.End(span);
  times->total_s = spans.End(setup);
  return out;
}

/// Empty when `r` meets the expectation, else what differs.
std::string Mismatch(const Result<verifier::VerificationResult>& r,
                     const Expectation& e) {
  if (!r.ok()) return "error status: " + r.status().ToString();
  std::ostringstream why;
  if (r->holds != e.holds) why << " verdict holds=" << r->holds << ";";
  if (r->coverage.stop_reason != e.stop_reason) {
    why << " stop reason " << StopReasonName(r->coverage.stop_reason) << ";";
  }
  if (r->coverage.unit != e.unit) why << " unit " << r->coverage.unit << ";";
  if (r->coverage.covered != e.covered) {
    why << " coverage";
    for (const auto& [lo, hi] : r->coverage.covered) {
      why << " [" << lo << "," << hi << ")";
    }
    why << ";";
  }
  if (r->counterexample.has_value() == e.holds) {
    why << " counterexample presence;";
  } else if (r->counterexample.has_value()) {
    if (r->counterexample->database_index != e.witness_database ||
        r->counterexample->valuation_index != e.witness_valuation) {
      why << " witness " << r->counterexample->database_index << "/"
          << r->counterexample->valuation_index << ";";
    }
  }
  return why.str();
}

struct Call {
  double wall_s = 0, cpu_s = 0;
  bool failed = false;
};

Call TimedVerify(Loaded& loaded, const Expectation& expect) {
  double cpu0 = CpuSeconds();
  Clock::time_point t0 = Clock::now();
  Result<verifier::VerificationResult> r =
      loaded.verifier->Verify(*loaded.property);
  Call call{Seconds(t0, Clock::now()), CpuSeconds() - cpu0, false};
  std::string why = Mismatch(r, expect);
  if (!why.empty()) {
    call.failed = true;
    std::fprintf(stderr, "verify mismatch:%s\n", why.c_str());
  }
  return call;
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0;
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  std::printf("%s}}\n", line.c_str());
}

std::string CpuInfo(const char* key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(' '));
        return value;
      }
    }
  }
  return "unknown";
}

// --- Traced run ------------------------------------------------------------

/// Sums self time by phase name over the whole tree, so phases a worker
/// thread roots outside "total" (e.g. a root-level "leaf_eval") count too.
std::map<std::string, double> PhaseSelfSeconds() {
  std::map<std::string, double> out;
  for (const obs::PhaseTreeEntry& e : obs::PhaseTreeSnapshot()) {
    size_t slash = e.path.rfind('/');
    std::string name =
        slash == std::string::npos ? e.path : e.path.substr(slash + 1);
    out[name] += static_cast<double>(e.self_ns) * 1e-9;
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Args {
  std::string workload, root = ".", work = ".", commit = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool once = false;
  size_t jobs = 0;  // 0 = the workload's own setting
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--once") {
      a.once = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--root") {
      a.root = value;
    } else if (flag == "--work") {
      a.work = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") return std::nullopt;
    } else if (flag == "--jobs") {
      a.jobs = std::strtoull(value.c_str(), &end, 10);
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return std::nullopt;
  }
  if (a.workload.empty() || !(a.seconds >= 0)) return std::nullopt;
  return a;
}

int Run(const Args& args) {
  std::optional<Workload> found;
  for (Workload& w : Workloads()) {
    if (w.name == args.workload) found = std::move(w);
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  size_t jobs = std::min(args.jobs != 0 ? args.jobs : w.jobs, hw);
  std::optional<Inputs> in = MakeInputs(w, args.seed, args.root, args.work);
  if (!in) {
    std::fprintf(stderr, "cannot generate inputs for %s\n", w.name.c_str());
    return 1;
  }

  std::printf("host: nproc=%zu cpu_model=\"%s\" cpu_mhz=%s build_type=%s "
              "commit=%s\n",
              hw, CpuInfo("model name").c_str(), CpuInfo("cpu MHz").c_str(),
              WSBENCH_BUILD_TYPE, args.commit.c_str());
  std::printf("workload: %s seed=%llu jobs=%zu trace=%d seconds=%g\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              jobs, args.trace ? 1 : 0, args.seconds);

  // Setup, repeated: one batch before the first Verify and one after each
  // timed call, so the median samples the whole run, not only its start.
  // The first setup's verifier is the one every Verify call uses.
  Spans spans;
  std::vector<double> setup_s, spec_s, ltl_s;
  std::optional<Loaded> loaded;
  const size_t setup_batch = args.once ? 1 : 50;
  auto run_setups = [&] {
    for (size_t i = 0; i < setup_batch; ++i) {
      SetupTimes t;
      std::optional<Loaded> l = Setup(w, *in, jobs, spans, &t);
      if (!l) return false;
      if (!loaded) loaded = std::move(l);
      setup_s.push_back(t.total_s);
      spec_s.push_back(t.spec_s);
      ltl_s.push_back(t.ltl_s);
    }
    return true;
  };
  if (!run_setups()) return 1;

  // One untimed warm-up call, then timed, untraced Verify calls for about
  // --seconds (at least three; --once makes the single call the timed one).
  // The warm-up lets the heap and page tables reach their steady size, which
  // on a virtualized host otherwise adds a variable first-touch cost to one
  // call. Counters are always on; phase timing and ledgers off.
  obs::Registry::Global().set_timing_enabled(false);
  LedgerRegistry::Global().set_enabled(false);
  std::vector<double> wall, cpu;
  size_t attempted = 0, failed = 0;
  if (!args.once) {
    size_t span = spans.Begin("verify.warmup", Spans::kRoot);
    failed += TimedVerify(*loaded, w.expect).failed ? 1 : 0;
    ++attempted;
    spans.End(span);
  }
  size_t min_calls = args.once ? 1 : 3;
  Clock::time_point verify_start = Clock::now();
  size_t verify_span = spans.Begin("verify.untraced", Spans::kRoot);
  while (wall.size() < min_calls ||
         Seconds(verify_start, Clock::now()) + wall.back() <= args.seconds) {
    Call call = TimedVerify(*loaded, w.expect);
    wall.push_back(call.wall_s);
    cpu.push_back(call.cpu_s);
    ++attempted;
    failed += call.failed ? 1 : 0;
    if (args.once) break;
    if (!run_setups()) return 1;
  }
  spans.End(verify_span);

  std::vector<Metric> metrics;
  std::printf("verify calls: %zu (median of each timing below); wall s:",
              wall.size());
  for (double s : wall) std::printf(" %.4f", s);
  std::printf("\n");
  if (!args.trace) {
    metrics = {{"verdict_s", "s", Median(wall)},
               {"cpu_s", "s", Median(cpu)},
               {"peak_rss_mb", "MB", PeakRssMb()},
               {"setup_s", "s", Median(setup_s)}};
  } else {
    // automata: the harness grounds and builds the negated property's
    // automaton itself, as Verify does.
    std::vector<double> build_s;
    size_t states = 0, transitions = 0;
    Clock::time_point automata_start = Clock::now();
    while (build_s.size() < 5 ||
           (Seconds(automata_start, Clock::now()) < 0.2 &&
            build_s.size() < 200)) {
      size_t span = spans.Begin("automata.build", Spans::kRoot);
      Result<ltl::GroundLtl> ground = ltl::GroundToPropositional(
          loaded->property->formula(), /*negate=*/true,
          /*allow_free_leaves=*/true);
      if (!ground.ok()) return 1;
      Result<automata::BuchiAutomaton> automaton = ground->BuildAutomaton();
      build_s.push_back(spans.End(span));
      if (!automaton.ok()) return 1;
      states = automaton->num_states();
      transitions = 0;
      for (size_t s = 0; s < states; ++s) {
        transitions += automaton->transitions_from(s).size();
      }
    }

    // db_enum: a count-only Verify walks the database enumeration alone.
    double walk_s = 0;
    if (!w.pinned_loan_db) {
      verifier::VerifierOptions options = Options(w, *in, jobs);
      options.count_only = true;
      verifier::Verifier counter(loaded->comp.get(), options);
      size_t span = spans.Begin("db_enum.walk", Spans::kRoot);
      Result<verifier::VerificationResult> r =
          counter.Verify(*loaded->property);
      walk_s = spans.End(span);
      ++attempted;
      if (!r.ok() || r->enumeration_count == 0) {
        std::fprintf(stderr, "count-only walk failed\n");
        ++failed;
      }
    }

    // One Verify with phase timing and worker ledgers on.
    obs::Registry::Global().Reset();
    LedgerRegistry::Global().Reset();
    obs::PhaseTreeReset();
    obs::Registry::Global().set_timing_enabled(true);
    LedgerRegistry::Global().set_enabled(true);
    size_t span = spans.Begin("verify.traced", Spans::kRoot);
    Call traced;
    {
      obs::PhaseTimer total("total");
      traced = TimedVerify(*loaded, w.expect);
    }
    spans.End(span);
    std::vector<WorkerLedgerSnapshot> ledgers =
        LedgerRegistry::Global().Snapshot();
    obs::Registry::Global().set_timing_enabled(false);
    LedgerRegistry::Global().set_enabled(false);
    ++attempted;
    failed += traced.failed ? 1 : 0;

    std::map<std::string, double> c;
    for (const auto& [name, value] : obs::Registry::Global().CounterValues()) {
      c[name] = static_cast<double>(value);
    }
    double lock_wait_ns = 0;
    for (const auto& [name, value] : c) {
      if (name.rfind("lock.", 0) == 0 && name.size() > 8 &&
          name.compare(name.size() - 8, 8, ".wait_ns") == 0) {
        lock_wait_ns += value;
      }
    }
    double utilization = 0, idle_ns = 0;
    for (const WorkerLedgerSnapshot& l : ledgers) {
      utilization += Ratio(l.exec_ns, l.wall_ns);
      idle_ns += static_cast<double>(l.idle_ns);
    }
    utilization = Ratio(utilization, ledgers.size());
    std::map<std::string, double> self = PhaseSelfSeconds();

    metrics = {
        {"spec.parse_s", "s", Median(spec_s)},
        {"ltl.parse_s", "s", Median(ltl_s)},
        {"automata.build_s", "s", Median(build_s)},
        {"automata.states", "count", static_cast<double>(states)},
        {"automata.transitions", "count", static_cast<double>(transitions)},
        {"db_enum.walk_s", "s", walk_s},
        {"db_enum.candidates", "count", c["dbenum.candidates"]},
        {"db_enum.yield_ratio", "ratio",
         Ratio(c["dbenum.yielded"], c["dbenum.candidates"])},
        {"graph.expand_s", "thread_s", self["graph_expand"]},
        {"graph.snapshots", "count", c["graph.snapshots"]},
        {"graph.transitions", "count", c["graph.transitions"]},
        {"graph.intern_hit_ratio", "ratio",
         Ratio(c["graph.intern_hits"], c["graph.encode"])},
        {"graph.arena_bytes", "bytes", c["graph.arena_bytes"]},
        {"fo.leaf_eval_s", "thread_s", self["leaf_eval"]},
        {"fo.leaf_evals", "count", c["leafcache.leaf_evals"]},
        {"fo.leafcache_hit_ratio", "ratio",
         Ratio(c["leafcache.hits"], c["leafcache.hits"] + c["leafcache.misses"])},
        {"prefilter.s", "thread_s", self["prefilter"]},
        {"prefilter.discharge_ratio", "ratio",
         Ratio(c["engine.prefiltered"], c["engine.valuations_checked"])},
        {"prefilter.memo_hit_ratio", "ratio",
         Ratio(c["engine.prefilter_memo_hits"],
               c["engine.prefilter_memo_hits"] +
                   c["engine.prefilter_memo_misses"])},
        {"ndfs.s", "thread_s", self["ndfs"]},
        {"ndfs.product_states", "count", c["ndfs.product_states"]},
        {"ndfs.inner_searches", "count", c["ndfs.inner_searches"]},
        {"engine.searches", "count", c["engine.searches"]},
        {"fanout.s", "thread_s", self["valuation_fanout"]},
        {"fanout.merge_s", "thread_s", self["merge"]},
        {"engine.valuations_checked", "count", c["engine.valuations_checked"]},
        {"pool.utilization", "ratio", utilization},
        {"pool.idle_s", "thread_s", idle_ns * 1e-9},
        {"lock.wait_s", "thread_s", lock_wait_ns * 1e-9},
        {"trace.verdict_s", "s", traced.wall_s},
        {"trace.overhead_s", "s", traced.wall_s - Median(wall)},
    };
    std::printf("time kinds: unit s = wall time of a harness span; unit "
                "thread_s = phase self time or ledger time summed over all "
                "threads (equal to wall time at jobs=1)\n");
    std::string largest;
    double largest_s = -1;
    for (const Metric& m : metrics) {
      if (m.unit == "thread_s" && m.name.rfind("pool.", 0) != 0 &&
          m.name.rfind("lock.", 0) != 0 && m.value > largest_s) {
        largest = m.name;
        largest_s = m.value;
      }
    }
    std::printf("largest layer time: %s = %s thread_s\n", largest.c_str(),
                Number(largest_s).c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s = %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string spans_path = args.work + "/spans-" + w.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (!spans.Write(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
  }
  std::printf("failed_ratio = %s ratio (%zu of %zu calls)\n",
              Number(Ratio(failed, attempted)).c_str(), failed, attempted);
  PrintResult(failed == 0, attempted, failed, metrics);
  std::fflush(stdout);
  return failed == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: wsbench_harness --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--jobs N] [--once] "
                 "[--root DIR] [--work DIR] [--commit SHA]\n");
    return 2;
  }
  return Run(*args);
}
