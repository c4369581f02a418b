#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <set>

#include "storage/database.h"
#include "storage/io.h"
#include "workload/generators.h"

namespace graphlog::e2e {

namespace {

// Nominal op rates per thread per second of --seconds. At --seconds 20
// they give 4 x 10,000 lookup queries, 200 closure queries, and 2 x 1,500
// ingest batches against 2 x 500 reads.
constexpr double kLookupQueriesPerClient = 500;
constexpr double kClosureQueries = 10;
constexpr double kIngestBatchesPerWriter = 75;
constexpr double kIngestReadsPerReader = 25;
// Pacer slack, as a share of each side's plan.
constexpr double kPaceSlack = 0.01;

constexpr int kLookupClients = 4;
constexpr int kLookupCities = 200;
constexpr int kLookupHotPairs = 32;
constexpr int kReopenEvery = 50;
constexpr int kClosureModules = 32;
constexpr int kClosureLibraries = 3;
constexpr int kIngestNodes = 2000;
constexpr int kIngestEdges = 6000;
constexpr int kIngestWriters = 2;
constexpr int kIngestReaders = 2;
constexpr int kFactsPerBatch = 8;
constexpr size_t kGateQueries = 20;

uint64_t Mix(uint64_t seed, uint64_t tag) {
  // splitmix64 finalizer: decorrelates the per-thread streams of a seed.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

size_t Count(double rate, double seconds, double scale) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(rate * seconds * scale)));
}

std::string City(int i) { return "city" + std::to_string(i); }

std::string RtScaleQuery(int from, int to) {
  return "query rt-scale {\n"
         "  edge \"" + City(from) + "\" -> C : al0+;\n"
         "  edge C -> \"" + City(to) + "\" : al0+;\n"
         "  distinguished C -> C : rt-scale;\n"
         "}\n";
}

std::string ModuleAuditQuery(int library) {
  return "query module-calls {\n"
         "  edge M1 -> M2 : -(in-module) (calls-local)* calls-extn in-module;\n"
         "  distinguished M1 -> M2 : module-calls;\n"
         "}\n"
         "query uses-async {\n"
         "  edge M -> F : -(in-module) (calls-local | calls-extn)+;\n"
         "  edge F -> \"lib" + std::to_string(library) + "\" : in-library;\n"
         "  distinguished M -> M : uses-async;\n"
         "}\n"
         "query self-used {\n"
         "  edge M -> M : module-calls+;\n"
         "  edge M -> M : uses-async;\n"
         "  distinguished M -> M : self-used;\n"
         "}\n";
}

std::string ReachQuery(int node) {
  const std::string n = "\"n" + std::to_string(node) + "\"";
  return "query reach {\n  edge " + n + " -> Y : edge+;\n  distinguished " +
         n + " -> Y : reach;\n}\n";
}

/// Draws up to kGateQueries distinct texts from the union of the
/// readers' streams, in a seeded order.
std::vector<std::string> SampleGateQueries(const std::vector<ThreadPlan>& plans,
                                           uint64_t seed) {
  std::set<std::string> distinct;
  for (const ThreadPlan& p : plans) {
    for (const Op& op : p.ops) {
      if (op.kind == Op::kQuery) distinct.insert(op.text);
    }
  }
  std::vector<std::string> all(distinct.begin(), distinct.end());
  std::mt19937_64 rng(Mix(seed, 0x6a7e));
  std::shuffle(all.begin(), all.end(), rng);
  if (all.size() > kGateQueries) all.resize(kGateQueries);
  return all;
}

Status WriteFacts(const storage::Database& db, const std::string& path,
                  Workload* w) {
  w->facts_path = path;
  w->seed_facts = db.TotalTuples();
  return storage::SaveFactsFile(path, db);
}

}  // namespace

net::WireQuery Workload::Query(const std::string& text) const {
  net::WireQuery q;
  q.text = text;
  q.num_threads = num_threads;
  q.specialize_bound_closures = specialize_bound_closures;
  return q;
}

size_t Workload::Planned(Op::Kind kind) const {
  size_t n = 0;
  for (const ThreadPlan& p : threads) {
    for (const Op& op : p.ops) n += op.kind == kind;
  }
  return n;
}

Pacer::Pacer(const Workload& w) {
  planned_[Op::kQuery] = w.Planned(Op::kQuery);
  planned_[Op::kCommit] = w.Planned(Op::kCommit);
  const size_t smaller = std::min(planned_[0], planned_[1]);
  slack_ = std::max(kPaceSlack, smaller == 0 ? 0.0 : 1.0 / smaller);
}

double Pacer::Share(size_t n, Op::Kind kind) const {
  return planned_[kind] == 0 ? 1.0 : static_cast<double>(n) / planned_[kind];
}

void Pacer::Start(Op::Kind kind) {
  const Op::Kind other = kind == Op::kQuery ? Op::kCommit : Op::kQuery;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return Share(started_[kind] + 1, kind) <=
           Share(done_[other], other) + slack_;
  });
  ++started_[kind];
}

void Pacer::Done(Op::Kind kind) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_[kind];
  }
  cv_.notify_all();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lookup", "closure",
                                                 "ingest"};
  return names;
}

std::string EdgeLine(const EdgeFact& f) {
  return "edge(" + f.first + ", " + f.second + ").\n";
}

Op IngestBatch(uint64_t seed, uint32_t writer, uint32_t batch) {
  std::mt19937_64 rng(Mix(seed, (uint64_t{writer} << 32) | batch));
  std::uniform_int_distribution<int> node(0, kIngestNodes - 1);
  Op op;
  op.kind = Op::kCommit;
  op.batch = batch;
  for (int i = 0; i < kFactsPerBatch; ++i) {
    // A fresh node points at an existing one: `edge` grows, but what the
    // readers' seed nodes reach does not, so read cost tracks the write
    // path (refresh, index builds over the grown relation) rather than
    // how far the writers happened to get. Fresh names are bare
    // identifiers, so EdgeLine matches the server's rendering.
    op.facts.emplace_back("x" + std::to_string(writer) + "_" +
                              std::to_string(batch) + "_" + std::to_string(i),
                          "n" + std::to_string(node(rng)));
  }
  return op;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              double seconds, double scale,
                              const std::string& workdir) {
  Workload w;
  w.name = name;
  w.seed = seed;
  storage::Database db;
  if (name == "lookup") {
    workload::FlightsOptions fo;
    fo.num_cities = kLookupCities;
    fo.num_flights = 2400;
    fo.num_airlines = 3;
    fo.seed = seed;
    GRAPHLOG_RETURN_NOT_OK(workload::Flights(fo, &db));
    w.specialize_bound_closures = true;
    w.reconnect_on_reopen = true;
    w.distinguished = {"rt-scale"};

    std::uniform_int_distribution<int> city(0, kLookupCities - 1);
    auto draw_pair = [&](std::mt19937_64& rng) {
      const int a = city(rng);
      int b = city(rng);
      while (b == a) b = city(rng);
      return std::make_pair(a, b);
    };
    std::mt19937_64 rng(Mix(seed, 1));
    std::vector<std::pair<int, int>> hot;
    for (int i = 0; i < kLookupHotPairs; ++i) hot.push_back(draw_pair(rng));
    const size_t per_client = Count(kLookupQueriesPerClient, seconds, scale);
    for (int c = 0; c < kLookupClients; ++c) {
      std::mt19937_64 crng(Mix(seed, 100 + c));
      std::bernoulli_distribution is_hot(0.8);
      std::uniform_int_distribution<int> hot_pick(0, kLookupHotPairs - 1);
      ThreadPlan plan;
      for (size_t i = 0; i < per_client; ++i) {
        const std::pair<int, int> p =
            is_hot(crng) ? hot[hot_pick(crng)] : draw_pair(crng);
        Op op;
        op.text = RtScaleQuery(p.first, p.second);
        op.reopen = i > 0 && i % kReopenEvery == 0;
        plan.ops.push_back(std::move(op));
      }
      w.threads.push_back(std::move(plan));
    }
    for (int i = 0; i < 20; ++i) {
      const auto& p = hot[i % kLookupHotPairs];
      w.warmup.push_back(RtScaleQuery(p.first, p.second));
    }
  } else if (name == "closure") {
    workload::ModulesOptions mo;
    mo.num_modules = kClosureModules;
    mo.num_libraries = kClosureLibraries;
    mo.seed = seed;
    GRAPHLOG_RETURN_NOT_OK(workload::Modules(mo, &db));
    w.num_threads = 4;
    w.distinguished = {"module-calls", "uses-async", "self-used"};
    std::mt19937_64 rng(Mix(seed, 2));
    std::uniform_int_distribution<int> lib(0, kClosureLibraries - 1);
    ThreadPlan plan;
    const size_t n = Count(kClosureQueries, seconds, scale);
    for (size_t i = 0; i < n; ++i) {
      Op op;
      op.text = ModuleAuditQuery(lib(rng));
      op.reopen = i > 0;
      plan.ops.push_back(std::move(op));
    }
    w.threads.push_back(std::move(plan));
    w.warmup.push_back(ModuleAuditQuery(0));
  } else if (name == "ingest") {
    GRAPHLOG_RETURN_NOT_OK(
        workload::RandomDigraph(kIngestNodes, kIngestEdges, seed, &db));
    w.specialize_bound_closures = true;
    w.refresh_before_query = true;
    w.durable = true;
    w.distinguished = {"reach"};
    w.crash_seed = Mix(seed, 3);
    const size_t batches = Count(kIngestBatchesPerWriter, seconds, scale);
    for (uint32_t wr = 0; wr < kIngestWriters; ++wr) {
      ThreadPlan plan;
      plan.role = ThreadPlan::kWriter;
      plan.writer_index = wr;
      for (uint32_t b = 0; b < batches; ++b) {
        plan.ops.push_back(IngestBatch(seed, wr, b));
      }
      w.threads.push_back(std::move(plan));
    }
    const size_t reads = Count(kIngestReadsPerReader, seconds, scale);
    for (int r = 0; r < kIngestReaders; ++r) {
      std::mt19937_64 rng(Mix(seed, 200 + r));
      std::uniform_int_distribution<int> node(0, kIngestNodes - 1);
      ThreadPlan plan;
      for (size_t i = 0; i < reads; ++i) {
        Op op;
        op.text = ReachQuery(node(rng));
        op.reopen = i > 0 && i % kReopenEvery == 0;
        plan.ops.push_back(std::move(op));
      }
      w.threads.push_back(std::move(plan));
    }
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (want lookup, closure or ingest)");
  }
  GRAPHLOG_RETURN_NOT_OK(WriteFacts(db, workdir + "/" + name + ".facts", &w));
  if (!w.durable) w.gate_queries = SampleGateQueries(w.threads, seed);
  return w;
}

}  // namespace graphlog::e2e
