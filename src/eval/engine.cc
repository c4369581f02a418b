#include "eval/engine.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "columnar/csr_cache.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "eval/compiled_rule.h"
#include "eval/provenance.h"
#include "exec/thread_pool.h"
#include "gov/fault_injection.h"
#include "gov/governor.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/tuple.h"
#include "tc/columnar_tc.h"

namespace graphlog::eval {

using datalog::AggKind;
using datalog::Program;
using datalog::Rule;
using datalog::Stratification;
using storage::Database;
using storage::Relation;
using storage::Tuple;
using storage::TupleHash;

namespace {

/// Accumulator for one aggregate column of one group.
struct AggAccum {
  int64_t count = 0;
  double dsum = 0.0;
  int64_t isum = 0;
  bool any_double = false;
  bool has_minmax = false;
  Value min, max;

  void Add(const Value& v) {
    ++count;
    if (v.is_numeric()) {
      if (v.is_double()) {
        any_double = true;
        dsum += v.AsDouble();
      } else {
        isum += v.AsInt();
      }
    }
    if (!has_minmax) {
      min = max = v;
      has_minmax = true;
    } else {
      if (datalog::EvalCmp(datalog::CmpOp::kLt, v, min)) min = v;
      if (datalog::EvalCmp(datalog::CmpOp::kGt, v, max)) max = v;
    }
  }

  Value Result(AggKind kind) const {
    switch (kind) {
      case AggKind::kCount:
        return Value::Int(count);
      case AggKind::kSum:
        return any_double ? Value::Double(dsum + static_cast<double>(isum))
                          : Value::Int(isum);
      case AggKind::kMin:
        return min;
      case AggKind::kMax:
        return max;
      case AggKind::kAvg: {
        double total = dsum + static_cast<double>(isum);
        return Value::Double(count == 0 ? 0.0 : total / count);
      }
    }
    return Value::Int(0);
  }
};

/// Below this many driver rows a rule execution is not split further;
/// partition bookkeeping would outweigh the join work.
constexpr size_t kMinRowsPerPartition = 128;

/// Shared evaluation state for one program run.
class Engine {
 public:
  /// `grown_from` (null for a plain run) selects growth mode: see
  /// EvaluateGrowth.
  Engine(const Program& prog, Database* db, const EvalOptions& options,
         const std::map<Symbol, size_t>* grown_from = nullptr)
      : prog_(prog),
        db_(db),
        options_(options),
        csr_cache_(options.csr_cache != nullptr ? options.csr_cache
                                                : &local_csr_cache_),
        growth_(grown_from != nullptr) {
    if (growth_) grown_ = *grown_from;
  }

  Result<EvalStats> Run() {
    const SymbolTable& syms = db_->symbols();
    Stratification strat;
    {
      obs::SpanGuard span(options_.tracer, "stratify");
      GRAPHLOG_RETURN_NOT_OK(datalog::CheckArities(prog_, syms));
      GRAPHLOG_RETURN_NOT_OK(datalog::CheckSafety(prog_, syms));
      GRAPHLOG_ASSIGN_OR_RETURN(strat, datalog::Stratify(prog_, syms));
      span.AddAttr("rules", static_cast<int64_t>(prog_.rules.size()));
      span.AddAttr("strata", strat.num_strata);
    }
    stats_.strata = strat.num_strata;
    if (options_.metrics != nullptr) {  // once per run, not per round
      stratum_rounds_ = options_.metrics->histogram("eval.stratum_rounds");
      delta_rows_ = options_.metrics->histogram("eval.delta_rows");
    }
    if (options_.profile != nullptr) {
      options_.profile->rules.resize(prog_.rules.size());
    }

    unsigned lanes =
        exec::ThreadPool::ResolveParallelism(options_.num_threads);
    if (lanes > 1) pool_ = std::make_unique<exec::ThreadPool>(lanes);

    // Index-maintenance counters are reported as this run's delta over
    // whatever the database accumulated before (plus the short-lived
    // delta relations absorbed by the semi-naive loop).
    uint64_t base_builds = 0, base_appends = 0;
    for (const auto& [_, rel] : db_->relations()) {
      base_builds += rel.index_builds();
      base_appends += rel.index_appends();
    }

    // Rollback baseline: the pre-run size of every head relation (or
    // "created by this run"), captured before the Declare loop below. A
    // governed abort — cancellation, deadline, strict budget trip, or an
    // injected lane failure — restores exactly this state, so no
    // partially-computed stratum leaks into the Database.
    for (const Rule& r : prog_.rules) {
      const Symbol head = r.head.predicate;
      if (baseline_.count(head) > 0) continue;
      const Relation* existing = db_->Find(head);
      baseline_.emplace(head,
                        existing == nullptr ? kCreatedByRun : existing->size());
    }

    // Check IDB arity against any pre-existing relations and declare them.
    for (const Rule& r : prog_.rules) {
      GRAPHLOG_ASSIGN_OR_RETURN(Relation * rel,
                                db_->Declare(r.head.predicate,
                                             r.head.arity()));
      (void)rel;
    }

    for (size_t gi = 0; gi < strat.rule_groups.size(); ++gi) {
      if (truncated_) break;  // budget tripped with return_partial
      obs::SpanGuard span(options_.tracer, "stratum");
      span.AddAttr("index", static_cast<int64_t>(gi));
      span.AddAttr("rules",
                   static_cast<int64_t>(strat.rule_groups[gi].size()));
      const uint64_t rounds_before = stats_.iterations;
      stratum_ = static_cast<int64_t>(gi);
      prof_round_ = 0;
      Status st = RunStratum(strat.rule_groups[gi], &span);
      if (st.ok() && !truncated_) {
        // Derivations of a stratum's final productive round are only seen
        // by the *next* round's boundary check; settle the run-wide
        // budgets here so the last round cannot slip past them.
        st = CheckRunBudgets("eval.round");
      }
      if (!st.ok()) {
        Rollback();
        return st;
      }
      if (stratum_rounds_ != nullptr) {
        stratum_rounds_->Observe(
            static_cast<int64_t>(stats_.iterations - rounds_before));
      }
    }
    stats_.truncated = truncated_;
    stats_.truncated_by = truncated_by_;

    for (const auto& [_, rel] : db_->relations()) {
      stats_.index_builds += rel.index_builds();
      stats_.index_appends += rel.index_appends();
    }
    stats_.index_builds -= base_builds;
    stats_.index_appends -= base_appends;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("eval.runs")->Increment();
      obs::ExportCounters(kEvalCounters, stats_, options_.metrics);
    }
    return stats_;
  }

 private:
  const Relation* Resolve(Symbol pred) const { return db_->Find(pred); }

  /// Runs one stratum: its groups in PlanStratum's order, each served
  /// closure through the TC kernel and every other group to fixpoint. In
  /// growth mode every head a group grew joins the grown set, from its
  /// pre-run size (the rollback baseline), for the groups after it.
  Status RunStratum(const std::vector<int>& rule_indices,
                    obs::SpanGuard* span) {
    bool noted = false;
    for (const StratumGroup& g :
         PlanStratum(prog_, rule_indices, *db_, options_.strategy)) {
      if (truncated_) break;
      if (!g.served()) {
        GRAPHLOG_RETURN_NOT_OK(RunGroup(g.rules));
      } else {
        if (!noted) span->AddNote("kernel", kTcKernelName);
        noted = true;
        GRAPHLOG_RETURN_NOT_OK(RunServedClosure(g));
      }
      if (!growth_) continue;
      for (int i : g.rules) {
        const Symbol h = prog_.rules[i].head.predicate;
        const size_t base = baseline_.at(h);
        const size_t pre = base == kCreatedByRun ? 0 : base;
        if (db_->Find(h)->size() > pre) grown_.emplace(h, pre);
      }
    }
    return Status::OK();
  }

  /// Growth mode: the rules of a group that can derive something new,
  /// those reading a grown or local predicate, and in `delta` the suffix
  /// of each grown predicate they read, built in O(new rows). Growth into
  /// an aggregate or a negated subgoal can retract derived tuples, which
  /// extending a fixpoint cannot express: Internal (callers check up
  /// front, as ViewCatalog's IncrementalSafe does).
  Result<std::vector<int>> GrowthRules(const std::vector<int>& group,
                                       const std::set<Symbol>& local_idbs,
                                       std::map<Symbol, Relation>* delta) {
    std::vector<int> active;
    for (int i : group) {
      const Rule& r = prog_.rules[i];
      bool reads = false;
      for (const auto& l : r.body) {
        if (!l.is_relational()) continue;
        const Symbol p = l.atom.predicate;
        auto g = grown_.find(p);
        if (g == grown_.end()) {
          reads |= local_idbs.count(p) > 0;
          continue;
        }
        if (l.is_negated_atom() || r.head.has_aggregates()) {
          return Status::Internal(
              "growth of '" + db_->symbols().name(p) +
              "' reached an aggregate or negated subgoal of rule " +
              std::to_string(i));
        }
        reads = true;
        if (delta->count(p) > 0) continue;
        const Relation& rel = *db_->Find(p);
        Relation d(rel.arity());
        for (size_t k = g->second; k < rel.size(); ++k) {
          d.AppendUnique(rel.row(k));
        }
        delta->emplace(p, std::move(d));
      }
      if (reads) active.push_back(i);
    }
    return active;
  }

  /// Runs one group of a stratum's rules to fixpoint; in growth mode,
  /// extends the group's materialized fixpoint instead.
  Status RunGroup(const std::vector<int>& group_rules) {
    // IDB predicates defined in this group.
    std::set<Symbol> local_idbs;
    for (int i : group_rules) {
      local_idbs.insert(prog_.rules[i].head.predicate);
    }
    std::vector<int> rule_indices = group_rules;
    std::map<Symbol, Relation> grown_delta;
    if (growth_) {
      GRAPHLOG_ASSIGN_OR_RETURN(
          rule_indices, GrowthRules(group_rules, local_idbs, &grown_delta));
      if (grown_delta.empty()) return Status::OK();
    }
    // Compile the group's rules now: lower strata and earlier groups are
    // materialized, so the cardinality oracle sees real sizes (and real
    // column statistics) for everything below.
    CardinalityFn card;
    if (options_.cardinality_join_ordering) {
      card = MakeDbCardinality(db_);
    }
    // The profile always gets estimates, even when cost-based ordering is
    // off — EXPLAIN ANALYZE compares the chosen plan against them.
    CardinalityFn est;
    if (options_.profile != nullptr) {
      est = card ? card : MakeDbCardinality(db_);
    }
    for (int i : rule_indices) {
      GRAPHLOG_ASSIGN_OR_RETURN(
          CompiledRule c,
          CompiledRule::Compile(prog_.rules[i], db_->symbols(), card));
      compiled_.erase(i);
      compiled_.emplace(i, std::move(c));
      if (options_.tracer != nullptr) {
        // The chosen join plan, on the enclosing stratum span. Plans are a
        // function of rule text + relation statistics, so this note is
        // deterministic across thread counts.
        options_.tracer->AddNote(
            "plan rule " + std::to_string(i),
            compiled_.at(i).PlanToString(db_->symbols()));
      }
      if (options_.profile != nullptr) {
        const CompiledRule& cr = compiled_.at(i);
        obs::RuleProfile& rp = options_.profile->rules[i];
        rp.rule = prog_.rules[i].ToString(db_->symbols());
        rp.plan = cr.PlanToString(db_->symbols());
        rp.steps.resize(cr.steps().size());
        for (size_t k = 0; k < cr.steps().size(); ++k) {
          const Step& s = cr.steps()[k];
          rp.steps[k].op = cr.StepToString(k, db_->symbols());
          if (s.kind == Step::Kind::kScanProbe ||
              s.kind == Step::Kind::kNegCheck) {
            rp.steps[k].estimated_rows = est(s.pred, s.probe_cols);
          }
        }
      }
    }

    std::vector<int> aggregate_rules, normal_rules;
    for (int i : rule_indices) {
      if (prog_.rules[i].head.has_aggregates()) {
        aggregate_rules.push_back(i);
      } else {
        normal_rules.push_back(i);
      }
    }

    // Aggregate rules first: stratification guarantees their bodies read
    // lower strata only, so one pass is complete.
    const uint64_t seed_firings_before = stats_.rule_firings;
    const uint64_t seed_derived_before = stats_.tuples_derived;
    for (int i : aggregate_rules) {
      GRAPHLOG_RETURN_NOT_OK(RunAggregateRule(i));
    }

    // Growth mode: one fixpoint seeded from the grown suffixes, in which
    // a rule reading no local head runs in the first round only.
    if (growth_) {
      return SemiNaiveFixpoint(normal_rules, local_idbs,
                               std::move(grown_delta));
    }

    // Split normal rules into non-recursive (no local IDB in body) and
    // recursive.
    std::vector<int> base_rules, rec_rules;
    for (int i : normal_rules) {
      bool recursive = false;
      for (const auto& l : prog_.rules[i].body) {
        if (l.is_relational() && local_idbs.count(l.atom.predicate) > 0) {
          recursive = true;
          break;
        }
      }
      (recursive ? rec_rules : base_rules).push_back(i);
    }

    // One pass over non-recursive rules. Base rules never read a local
    // head (that would make them recursive), so they usually fan out as
    // one batch; RunTasksBatched still verifies independence.
    std::vector<RuleTask> base_tasks;
    base_tasks.reserve(base_rules.size());
    for (int i : base_rules) {
      base_tasks.push_back({i, kNoSymbol, -1});
    }
    GRAPHLOG_RETURN_NOT_OK(RunTasksBatched(base_tasks, nullptr, nullptr));
    // The stratum's one-shot pass (aggregates + non-recursive rules) is
    // the round log's round 0, so the log's firings/derived sums match
    // the run totals. No deltas exist yet: it seeds from lower strata.
    if (!aggregate_rules.empty() || !base_rules.empty()) {
      RecordRound(0, seed_firings_before, seed_derived_before);
    }
    if (rec_rules.empty()) return Status::OK();

    if (options_.strategy == Strategy::kNaive) {
      return NaiveFixpoint(rec_rules);
    }
    // The first round's delta is everything currently known for each
    // local head: a relation sharing its rows, so seeding costs O(chunks)
    // however much it already holds (a long-lived session's earlier
    // results included).
    std::map<Symbol, Relation> delta;
    for (Symbol p : local_idbs) {
      delta.emplace(p, Relation::SharingRows(*db_->Find(p)));
    }
    return SemiNaiveFixpoint(rec_rules, local_idbs, std::move(delta));
  }

  /// Serves one unbound binary TC pair p = q+ (PlanStratum) with one
  /// tc::ColumnarTransitiveClosure call over the complete base q, on the
  /// run's lanes and CSR cache. The call counts as one fixpoint round:
  /// the round boundary, run budgets and rollback apply as to any round,
  /// and the kernel gets the run's governor (cancellation, deadline,
  /// `tc.expand` faults). The round reads no delta, so max_rounds and
  /// max_delta_rows cannot stop it midway; max_result_rows and max_bytes
  /// do, before the closure is materialized (ClosureRowCap). The kernel's
  /// rows are bulk-loaded into the empty head in its order: source by
  /// first appearance in q, then reached node by dense id.
  Status RunServedClosure(const StratumGroup& g) {
    GRAPHLOG_RETURN_NOT_OK(CheckRoundBoundary(0, 0));
    if (truncated_) return Status::OK();
    obs::SpanGuard span(options_.tracer, "round");
    span.AddAttr("round", 0);
    span.AddNote("kernel", kTcKernelName);
    const uint64_t firings_before = stats_.rule_firings;
    const uint64_t derived_before = stats_.tuples_derived;
    const uint64_t t0 = options_.profile != nullptr ? obs::NowNs() : 0;
    ++stats_.iterations;
    if (options_.tracer != nullptr) {
      for (int i : g.rules) {
        options_.tracer->AddNote("plan rule " + std::to_string(i),
                                 std::string("served by ") + kTcKernelName);
      }
    }

    const Relation* base = Resolve(g.tc_base);
    Relation* head = db_->FindMutable(g.tc_head);
    tc::TcStats ts;
    if (base != nullptr && !base->empty()) {
      const gov::GovernorContext* gvn = options_.governor;
      gov::GovernorContext kernel_gov;
      const ClosureRowCap cap = MakeClosureRowCap();
      if (gvn != nullptr) {
        kernel_gov = *gvn;
        kernel_gov.budget = gov::ResourceBudget{};
        kernel_gov.budget.return_partial = gvn->budget.return_partial;
        // Every base row is a closure row, so a cap of 0 trips already.
        if (cap.rows == 0) return TripClosureRowCap(cap);
        if (cap.rows != ClosureRowCap::kNone) {
          kernel_gov.budget.max_result_rows = cap.rows;
        }
      }
      Result<Relation> closure = tc::ColumnarTransitiveClosure(
          *base, pool_ != nullptr ? pool_->parallelism() : 1,
          options_.metrics, gvn != nullptr ? &kernel_gov : nullptr, &ts,
          csr_cache_, pool_.get());
      if (closure.status().code() == StatusCode::kBudgetExceeded &&
          cap.rows != ClosureRowCap::kNone) {
        // Report the trip against the run's budget, not the remainder.
        return TripClosureRowCap(cap);
      }
      GRAPHLOG_RETURN_NOT_OK(closure.status());
      head->AdoptRows(*closure);
      if (ts.truncated) GRAPHLOG_RETURN_NOT_OK(TripClosureRowCap(cap));
    }
    stats_.rule_firings += ts.pair_visits;
    stats_.tuples_derived += head->size();
    if (options_.provenance != nullptr && !head->empty()) {
      GRAPHLOG_RETURN_NOT_OK(RecordServedProvenance(g, *base, *head));
    }
    if (options_.profile != nullptr) {
      ProfileServedClosure(g, base, *head, ts.pair_visits,
                           obs::NowNs() - t0);
    }
    span.AddAttr("firings",
                 static_cast<int64_t>(stats_.rule_firings - firings_before));
    span.AddAttr("derived",
                 static_cast<int64_t>(stats_.tuples_derived - derived_before));
    RecordRound(0, firings_before, derived_before);
    // Like a stratum's last round, settle the run-wide budgets before
    // the next group reads the closure.
    return truncated_ ? Status::OK() : CheckRunBudgets("eval.round");
  }

  /// The rows a served closure may still add before a run budget trips:
  /// max_result_rows less the rows derived so far, or the bytes max_bytes
  /// leaves over the database at Relation::RowBytes(2) per row (a head
  /// with built indexes costs more, which the run budgets settle after
  /// the round), whichever is fewer.
  struct ClosureRowCap {
    static constexpr uint64_t kNone = UINT64_MAX;
    uint64_t rows = kNone;
    bool by_bytes = false;
    uint64_t bytes_before = 0;  // database bytes when the cap was taken
  };

  ClosureRowCap MakeClosureRowCap() const {
    ClosureRowCap cap;
    if (options_.governor == nullptr) return cap;
    const gov::ResourceBudget& b = options_.governor->budget;
    if (b.max_result_rows != 0) {
      cap.rows = b.max_result_rows - stats_.tuples_derived;
    }
    if (b.max_bytes != 0) {
      cap.bytes_before = db_->TotalBytes();
      const uint64_t left = b.max_bytes > cap.bytes_before
                                ? b.max_bytes - cap.bytes_before
                                : 0;
      if (left / Relation::RowBytes(2) < cap.rows) {
        cap.rows = left / Relation::RowBytes(2);
        cap.by_bytes = true;
      }
    }
    return cap;
  }

  /// Trips the budget behind `cap`, observed at the closure's first row
  /// past it: the same figure at every lane count.
  Status TripClosureRowCap(const ClosureRowCap& cap) {
    const gov::ResourceBudget& b = options_.governor->budget;
    if (cap.by_bytes) {
      return TripBudget("max_bytes", "tc.expand",
                        cap.bytes_before +
                            (cap.rows + 1) * Relation::RowBytes(2),
                        b.max_bytes);
    }
    return TripBudget("max_result_rows", "tc.expand", b.max_result_rows + 1,
                      b.max_result_rows);
  }

  /// The served pair's rules: {base rule, recursive rule}.
  std::pair<int, int> ServedRules(const StratumGroup& g) const {
    const int a = g.rules[0], b = g.rules[1];
    return prog_.rules[a].body.size() == 1 ? std::pair{a, b}
                                           : std::pair{b, a};
  }

  /// Records a justification for every row of a served closure: a pair
  /// at BFS depth 1 by the base rule from q(x, y), a deeper pair by the
  /// recursive rule from q(x, z) and p(z, y), where z is the first hop of
  /// the BFS path. dist(z, y) = dist(x, y) - 1, so the trees are
  /// well-founded. (A closure truncated by return_partial may lack the
  /// premise p(z, y): it can lie past the cut.)
  Status RecordServedProvenance(const StratumGroup& g, const Relation& base,
                                const Relation& head) {
    const auto [base_rule, rec_rule] = ServedRules(g);
    GRAPHLOG_ASSIGN_OR_RETURN(std::shared_ptr<const columnar::Csr> csr,
                              csr_cache_->Get(base));
    const uint32_t n = csr->num_nodes();
    std::vector<uint32_t> depth(n, 0), first_hop(n, 0), queue;
    queue.reserve(n);
    int64_t source = -1;
    for (const Tuple& row : head.rows()) {
      const uint32_t x = static_cast<uint32_t>(csr->IdOf(row[0]));
      if (x != source) {  // rows arrive grouped by source
        for (uint32_t v : queue) depth[v] = 0;
        queue.clear();
        for (uint32_t v : csr->Sorted(x)) {
          depth[v] = 1;
          first_hop[v] = v;
          queue.push_back(v);
        }
        for (size_t k = 0; k < queue.size(); ++k) {
          const uint32_t u = queue[k];
          for (uint32_t v : csr->Sorted(u)) {
            if (depth[v] != 0) continue;
            depth[v] = depth[u] + 1;
            first_hop[v] = first_hop[u];
            queue.push_back(v);
          }
        }
        source = x;
      }
      const uint32_t y = static_cast<uint32_t>(csr->IdOf(row[1]));
      Justification j;
      if (depth[y] == 1) {
        j.rule_index = base_rule;
        j.premises.emplace_back(g.tc_base, row);
      } else {
        const Value& z = csr->values[first_hop[y]];
        j.rule_index = rec_rule;
        j.premises.emplace_back(g.tc_base, Tuple{row[0], z});
        j.premises.emplace_back(g.tc_head, Tuple{z, row[1]});
      }
      options_.provenance->Record(g.tc_head, row, std::move(j));
    }
    return Status::OK();
  }

  /// Fills the served rules' profile entries: the base rule emitted the
  /// closure rows that are q rows (BFS depth 1), the recursive rule the
  /// rest; the kernel's pair visits beyond the emitted rows (a truncated
  /// closure) count as the recursive rule's in-round duplicates.
  void ProfileServedClosure(const StratumGroup& g, const Relation* base,
                            const Relation& head, uint64_t pair_visits,
                            uint64_t wall_ns) {
    const auto [base_rule, rec_rule] = ServedRules(g);
    uint64_t direct = 0;
    for (const Tuple& row : head.rows()) {
      if (base->Contains(row)) ++direct;
    }
    const std::string plan = std::string("served by ") + kTcKernelName;
    for (int i : g.rules) {
      obs::RuleProfile& rp = options_.profile->rules[i];
      rp.rule = prog_.rules[i].ToString(db_->symbols());
      rp.plan = plan;
      rp.steps.clear();
    }
    obs::RuleProfile& b = options_.profile->rules[base_rule];
    b.firings += direct;
    b.rows_emitted += direct;
    obs::RuleProfile& r = options_.profile->rules[rec_rule];
    r.firings += pair_visits - direct;
    r.rows_emitted += head.size() - direct;
    r.dup_in_round += pair_visits - head.size();
    r.wall_ns += wall_ns;
  }

  Status NaiveFixpoint(const std::vector<int>& rec_rules) {
    bool changed = true;
    int64_t round = 0;
    uint64_t last_round_added = 0;
    while (changed) {
      // The naive strategy has no materialized deltas; the previous
      // round's novel tuples play that role for the boundary check.
      GRAPHLOG_RETURN_NOT_OK(CheckRoundBoundary(last_round_added, 0));
      if (truncated_) break;
      obs::SpanGuard span(options_.tracer, "round");
      span.AddAttr("round", round++);
      const uint64_t firings_before = stats_.rule_firings;
      const uint64_t derived_before = stats_.tuples_derived;
      ++stats_.iterations;
      changed = false;
      const uint64_t round_delta = last_round_added;
      last_round_added = 0;
      for (int i : rec_rules) {
        GRAPHLOG_ASSIGN_OR_RETURN(
            size_t added, RunRuleOnce(i, kNoSymbol, -1, nullptr, nullptr));
        if (added > 0) changed = true;
        last_round_added += added;
      }
      span.AddAttr("firings",
                   static_cast<int64_t>(stats_.rule_firings - firings_before));
      span.AddAttr(
          "derived",
          static_cast<int64_t>(stats_.tuples_derived - derived_before));
      RecordRound(round_delta, firings_before, derived_before);
    }
    return Status::OK();
  }

  /// Appends one fixpoint round to the profile (no-op unless profiling).
  void RecordRound(uint64_t delta_rows, uint64_t firings_before,
                   uint64_t derived_before) {
    if (options_.profile == nullptr) return;
    obs::RoundProfile r;
    r.stratum = stratum_;
    r.round = prof_round_++;
    r.delta_rows = delta_rows;
    r.firings = stats_.rule_firings - firings_before;
    r.derived = stats_.tuples_derived - derived_before;
    options_.profile->rounds.push_back(r);
  }

  /// Runs `rules` semi-naively from the first round's `delta`: each
  /// round runs every rule once per occurrence of a delta predicate, that
  /// occurrence reading the delta, and the next round's delta is the
  /// local heads' novel rows.
  Status SemiNaiveFixpoint(const std::vector<int>& rules,
                           const std::set<Symbol>& local_idbs,
                           std::map<Symbol, Relation> delta) {
    bool any_delta = true;
    int64_t round = 0;
    while (any_delta) {
      // Combined delta at the round start: feeds the governed
      // round-boundary check (delta-rows/bytes budgets) and the
      // peak-working-set stats. O(local IDBs) per round.
      uint64_t delta_rows = 0;
      uint64_t delta_bytes = 0;
      for (const auto& [p, d] : delta) {
        delta_rows += d.size();
        delta_bytes += d.MemoryBytes();
      }
      GRAPHLOG_RETURN_NOT_OK(CheckRoundBoundary(delta_rows, delta_bytes));
      if (truncated_) break;
      obs::SpanGuard span(options_.tracer, "round");
      if (span.enabled()) {
        span.AddAttr("round", round++);
        for (const auto& [p, d] : delta) {
          span.AddAttr("delta." + db_->symbols().name(p),
                       static_cast<int64_t>(d.size()));
        }
      }
      if (delta_rows > stats_.peak_delta_rows) {
        stats_.peak_delta_rows = delta_rows;
      }
      if (delta_bytes > stats_.peak_delta_bytes) {
        stats_.peak_delta_bytes = delta_bytes;
      }
      if (delta_rows_ != nullptr) {
        delta_rows_->Observe(static_cast<int64_t>(delta_rows));
      }
      const uint64_t firings_before = stats_.rule_firings;
      const uint64_t derived_before = stats_.tuples_derived;
      ++stats_.iterations;
      std::map<Symbol, Relation> next;
      for (Symbol p : local_idbs) {
        next.emplace(p, Relation(db_->Find(p)->arity()));
      }
      // The round's tasks in serial order: for each rule, one run per
      // occurrence of a delta predicate in the body, with that occurrence
      // reading the delta.
      std::vector<RuleTask> round;
      for (int i : rules) {
        const CompiledRule& c = compiled_.at(i);
        for (const auto& [p, d] : delta) {
          for (int occ : c.OccurrencesOf(p)) {
            round.push_back({i, p, occ});
          }
        }
      }
      GRAPHLOG_RETURN_NOT_OK(RunTasksBatched(round, &delta, &next));
      RecordRound(delta_rows, firings_before, derived_before);
      any_delta = false;
      for (auto& [p, d] : next) {
        if (!d.empty()) any_delta = true;
      }
      // The old delta dies here; fold its index-maintenance counters into
      // the run stats first.
      for (auto& [p, d] : delta) AbsorbIndexStats(d);
      delta = std::move(next);
      span.AddAttr("firings",
                   static_cast<int64_t>(stats_.rule_firings - firings_before));
      span.AddAttr(
          "derived",
          static_cast<int64_t>(stats_.tuples_derived - derived_before));
    }
    for (auto& [p, d] : delta) AbsorbIndexStats(d);
    return Status::OK();
  }

  /// One unit of rule execution: rule `rule` with occurrence
  /// `delta_occurrence` of `delta_pred` reading the delta relation
  /// (kNoSymbol/-1 for a plain full run).
  struct RuleTask {
    int rule;
    Symbol delta_pred;
    int delta_occurrence;
  };

  /// Executes `tasks` in serial task order, fanning maximal prefixes of
  /// independent tasks across the pool. A task may run concurrently with
  /// the tasks before it only when it reads none of their head predicates:
  /// batch merges are deferred past the joins, and the serial engine would
  /// have made those writes visible. Delta-substituted occurrences read
  /// the (frozen) previous-round delta, not the head relation, so they do
  /// not count as reads of it.
  Status RunTasksBatched(const std::vector<RuleTask>& tasks,
                         std::map<Symbol, Relation>* delta,
                         std::map<Symbol, Relation>* next) {
    size_t b = 0;
    while (b < tasks.size()) {
      size_t e = b;
      std::set<Symbol> batch_heads;
      while (e < tasks.size()) {
        const RuleTask& task = tasks[e];
        const CompiledRule& c = compiled_.at(task.rule);
        bool reads_batch_head = false;
        for (const Step& s : c.steps()) {
          if (s.kind != Step::Kind::kScanProbe &&
              s.kind != Step::Kind::kNegCheck) {
            continue;
          }
          if (s.pred == task.delta_pred &&
              s.occurrence == task.delta_occurrence) {
            continue;  // reads the frozen delta, not the head relation
          }
          if (batch_heads.count(s.pred) > 0) {
            reads_batch_head = true;
            break;
          }
        }
        if (reads_batch_head) break;
        batch_heads.insert(c.head_predicate());
        ++e;
      }
      GRAPHLOG_ASSIGN_OR_RETURN(
          size_t added,
          RunTaskBatch({tasks.begin() + b, tasks.begin() + e}, delta, next));
      (void)added;
      b = e;
    }
    return Status::OK();
  }

  /// Executes one batch of mutually independent tasks: a read-only join
  /// fan-out (every index the plans touch is pre-built, and derivations
  /// go to per-(task, partition) buffers), then a serial merge in (task,
  /// partition) order. The merge order equals the serial engine's
  /// derivation order, so relation contents, insertion order, provenance,
  /// and stats are bit-identical to num_threads == 1. Returns the number
  /// of novel tuples.
  ///
  /// When the run is governed, every lane re-checks the cancellation
  /// token, deadline, and the `pool.task` injection point before each
  /// item it claims, so cancellation latency is bounded by one work item
  /// rather than one batch. A governed abort raises a stop flag the pool
  /// observes before each claim, the join still happens, and the batch
  /// returns *before* the merge phase — no partially-merged batch is ever
  /// visible in the Database (the caller then rolls back whole strata).
  /// The first error in item order wins, so the surfaced Status is
  /// independent of lane scheduling.
  Result<size_t> RunTaskBatch(const std::vector<RuleTask>& tasks,
                              std::map<Symbol, Relation>* delta,
                              std::map<Symbol, Relation>* next) {
    struct Item {
      size_t task;
      size_t part;
    };
    struct TaskState {
      const CompiledRule* rule = nullptr;
      const Relation* head_rel = nullptr;
      RelationResolver resolver;
      size_t parts = 1;
      std::vector<std::vector<Tuple>> derived;
      std::vector<std::vector<Justification>> just;
      std::vector<uint64_t> firings;
      // Columnar path: per-step CSR bindings (empty on the row path) and
      // the shared_ptrs keeping those snapshots alive for the batch.
      CsrBindings csrs;
      std::vector<std::shared_ptr<const columnar::Csr>> csr_owned;
      // Profiling buffers, one per partition (empty unless profiling):
      // step counters, head-dup drops, and wall time. Folded into the
      // profile during the serial merge, in partition order.
      std::vector<StepCounters> step_counts;
      std::vector<uint64_t> dup_head;
      std::vector<int64_t> wall_ns;
    };
    const bool track = options_.provenance != nullptr;
    obs::QueryProfile* profile = options_.profile;
    const size_t lanes = pool_ != nullptr ? pool_->parallelism() : 1;

    std::vector<TaskState> states(tasks.size());
    std::vector<Item> items;
    for (size_t t = 0; t < tasks.size(); ++t) {
      const RuleTask& task = tasks[t];
      TaskState& st = states[t];
      st.rule = &compiled_.at(task.rule);
      st.head_rel = db_->Find(st.rule->head_predicate());
      // The lanes test derivations against the frozen head relation; its
      // dedup set may lag its rows (a shared copy, an AppendUnique load),
      // so catch it up here to keep those Contains() calls pure reads.
      if (st.head_rel != nullptr) st.head_rel->SyncDedup();
      st.resolver = MakeResolver(task, delta);
      // Pre-build every index the plan probes so the fan-out below only
      // reads relation state. Unconditional (also on the serial path) so
      // index_builds is identical across thread counts. The columnar
      // path instead binds CSR snapshots to every probed binary step
      // (skipping those hash indexes entirely — that is its win) and
      // may fail on a csr.build fault, aborting the batch pre-merge.
      size_t driver_rows;
      if (options_.columnar) {
        GRAPHLOG_ASSIGN_OR_RETURN(
            driver_rows,
            PrepareColumnar(*st.rule, st.resolver, &st.csrs, &st.csr_owned));
      } else {
        driver_rows = PrepareIndexes(*st.rule, st.resolver);
      }
      st.parts =
          lanes <= 1
              ? 1
              : std::min(lanes, std::max<size_t>(
                                    1, driver_rows / kMinRowsPerPartition));
      st.derived.resize(st.parts);
      st.just.resize(st.parts);
      st.firings.assign(st.parts, 0);
      if (profile != nullptr) {
        st.step_counts.assign(st.parts,
                              StepCounters(st.rule->steps().size()));
        st.dup_head.assign(st.parts, 0);
        st.wall_ns.assign(st.parts, 0);
      }
      for (size_t p = 0; p < st.parts; ++p) items.push_back({t, p});
    }

    auto run_item = [&](const Item& item) {
      TaskState& st = states[item.task];
      const CompiledRule& c = *st.rule;
      std::vector<Tuple>& derived = st.derived[item.part];
      std::vector<Justification>& just = st.just[item.part];
      uint64_t& firings = st.firings[item.part];
      // Derivations already present in the head relation would be dropped
      // by the merge anyway (the head is frozen for the whole batch), as
      // would repeats within this partition; filtering here keeps the
      // serial merge phase small. Neither filter can change results: the
      // first surviving occurrence in (task, partition, position) order
      // is exactly the tuple the serial engine would have inserted.
      std::unordered_set<Tuple, TupleHash> seen;
      // Head-dup drops are deterministic (the head relation is frozen for
      // the batch); counted per partition when profiling. seen-drops are
      // not counted here — the partition split varies with num_threads;
      // the merge computes the thread-invariant residual instead.
      uint64_t* dup_head =
          st.dup_head.empty() ? nullptr : &st.dup_head[item.part];
      c.ExecutePartition(
          st.resolver,
          [&](const std::vector<Value>& slots) {
            ++firings;
            Tuple t = c.EmitHead(slots);
            if (st.head_rel->Contains(t)) {
              if (dup_head != nullptr) ++*dup_head;
              return;
            }
            if (!seen.insert(t).second) return;
            derived.push_back(std::move(t));
            if (track) {
              Justification j;
              j.rule_index = tasks[item.task].rule;
              j.premises = c.Premises(slots);
              just.push_back(std::move(j));
            }
          },
          item.part, st.parts, st.csrs.empty() ? nullptr : &st.csrs,
          st.step_counts.empty() ? nullptr : &st.step_counts[item.part]);
    };
    // Per-lane busy time: each worker accumulates into its own slot (no
    // synchronization needed), folded into the open span after the join.
    // Clock reads happen only when tracing or profiling, keeping the
    // disabled path hot. Profiling also attributes the item's time to its
    // task (the per-partition slot is exclusive to this item).
    const bool timed = options_.tracer != nullptr || profile != nullptr;
    std::vector<int64_t> lane_busy_ns;
    if (timed) lane_busy_ns.assign(lanes, 0);
    auto run_timed = [&](unsigned worker, size_t k) {
      const uint64_t t0 = obs::NowNs();
      run_item(items[k]);
      const int64_t dt = static_cast<int64_t>(obs::NowNs() - t0);
      lane_busy_ns[worker] += dt;
      TaskState& st = states[items[k].task];
      if (!st.wall_ns.empty()) st.wall_ns[items[k].part] += dt;
    };
    // Governed abort machinery: the first failing item (in item order)
    // records its Status and raises the stop flag; later lanes drain
    // without claiming more work.
    const gov::GovernorContext* gvn = options_.governor;
    std::atomic<bool> stop{false};
    std::mutex err_mu;
    Status lane_error = Status::OK();
    size_t err_item = items.size();
    auto record_error = [&](size_t k, Status st) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (k < err_item) {
        err_item = k;
        lane_error = std::move(st);
      }
      stop.store(true, std::memory_order_relaxed);
    };
    auto exec_item = [&](unsigned worker, size_t k) {
      if (gvn != nullptr) {
        if (stop.load(std::memory_order_relaxed)) return;
        Status st = gvn->Check("pool.task");
        if (!st.ok()) {
          record_error(k, std::move(st));
          return;
        }
      }
      if (timed) {
        run_timed(worker, k);
      } else {
        run_item(items[k]);
      }
    };
    if (pool_ != nullptr && items.size() > 1) {
      pool_->ParallelFor(items.size(), exec_item,
                         gvn != nullptr ? &stop : nullptr);
    } else {
      for (size_t k = 0; k < items.size(); ++k) exec_item(0, k);
    }
    // The pool has joined: err_item/lane_error are stable. Abort before
    // the merge so a failed batch leaves the head relations untouched.
    if (err_item < items.size()) return lane_error;
    if (options_.tracer != nullptr) {
      for (size_t lane = 0; lane < lane_busy_ns.size(); ++lane) {
        if (lane_busy_ns[lane] != 0) {
          options_.tracer->AddTiming("lane." + std::to_string(lane),
                                     lane_busy_ns[lane]);
        }
      }
    }

    // Merge in (task, partition) order — the serial derivation order.
    size_t added = 0;
    for (size_t t = 0; t < tasks.size(); ++t) {
      TaskState& st = states[t];
      const CompiledRule& c = *st.rule;
      Relation* head_rel = db_->FindMutable(c.head_predicate());
      Relation* next_rel = nullptr;
      if (next != nullptr) {
        auto it = next->find(c.head_predicate());
        if (it != next->end()) next_rel = &it->second;
      }
      size_t task_added = 0;
      uint64_t task_firings = 0;
      for (size_t p = 0; p < st.parts; ++p) {
        stats_.rule_firings += st.firings[p];
        task_firings += st.firings[p];
        std::vector<Tuple>& derived = st.derived[p];
        std::vector<Justification>& just = st.just[p];
        for (size_t k = 0; k < derived.size(); ++k) {
          Tuple& tup = derived[k];
          // When no delta copy is needed the tuple moves straight into the
          // head relation; otherwise it stays alive for the delta insert.
          bool novel = next_rel != nullptr ? head_rel->Insert(tup)
                                           : head_rel->Insert(std::move(tup));
          if (!novel) continue;
          ++task_added;
          ++stats_.tuples_derived;
          if (track) {
            options_.provenance->Record(c.head_predicate(),
                                        head_rel->rows().back(),
                                        std::move(just[k]));
          }
          if (next_rel != nullptr) next_rel->Insert(std::move(tup));
        }
      }
      added += task_added;
      if (profile != nullptr) {
        // Fold this task's buffers into its rule's profile, in partition
        // order — the EvalStats merge discipline, so every logical
        // counter below is bit-identical across num_threads.
        obs::RuleProfile& rp = profile->rules[tasks[t].rule];
        uint64_t task_dup_head = 0;
        for (size_t p = 0; p < st.parts; ++p) {
          for (size_t k = 0; k < st.step_counts[p].size(); ++k) {
            const StepCounter& sc = st.step_counts[p][k];
            rp.steps[k].invocations += sc.invocations;
            rp.steps[k].rows_out += sc.rows_out;
            rp.steps[k].csr_invocations += sc.csr_invocations;
          }
          task_dup_head += st.dup_head[p];
          rp.wall_ns += static_cast<uint64_t>(st.wall_ns[p]);
        }
        rp.firings += task_firings;
        rp.rows_emitted += task_added;
        rp.dup_in_head += task_dup_head;
        // Residual = partition-local `seen` drops + merge drops. The split
        // between those two sites depends on the partitioning, but their
        // sum does not: every firing either emits, pre-existed in the
        // head, or duplicated an earlier derivation of this round.
        rp.dup_in_round +=
            task_firings - task_dup_head - static_cast<uint64_t>(task_added);
      }
    }
    return added;
  }

  /// Single-task convenience wrapper around RunTaskBatch.
  Result<size_t> RunRuleOnce(int i, Symbol delta_pred, int delta_occurrence,
                             std::map<Symbol, Relation>* delta,
                             std::map<Symbol, Relation>* next) {
    return RunTaskBatch({{i, delta_pred, delta_occurrence}}, delta, next);
  }

  /// Resolves relations for one task: the designated delta occurrence
  /// reads the delta relation, everything else the database.
  RelationResolver MakeResolver(const RuleTask& task,
                                std::map<Symbol, Relation>* delta) {
    const Symbol dp = task.delta_pred;
    const int docc = task.delta_occurrence;
    return [this, dp, docc, delta](Symbol pred,
                                   int occurrence) -> const Relation* {
      if (pred == dp && occurrence == docc && delta != nullptr) {
        auto it = delta->find(pred);
        return it == delta->end() ? nullptr : &it->second;
      }
      return Resolve(pred);
    };
  }

  /// Builds every hash index the plan will probe and returns the row
  /// count of the plan's driver relation (0 when there is none).
  size_t PrepareIndexes(const CompiledRule& c,
                        const RelationResolver& resolver) {
    for (const Step& s : c.steps()) {
      if (s.kind != Step::Kind::kScanProbe &&
          s.kind != Step::Kind::kNegCheck) {
        continue;
      }
      if (s.probe_cols.empty()) continue;
      const Relation* rel = resolver(s.pred, s.occurrence);
      if (rel != nullptr && !rel->empty()) rel->BuildIndex(s.probe_cols);
    }
    const Step* d = c.driver();
    if (d == nullptr) return 0;
    const Relation* rel = resolver(d->pred, d->occurrence);
    return rel == nullptr ? 0 : rel->size();
  }

  void AbsorbIndexStats(const Relation& r) {
    stats_.index_builds += r.index_builds();
    stats_.index_appends += r.index_appends();
  }

  /// Columnar twin of PrepareIndexes: binds a CSR snapshot to every
  /// probed arity-2 step (their hash indexes are never built — the
  /// whole point of the path) and falls back to hash indexes for the
  /// steps CSR cannot serve. Snapshots come from the run's CsrCache
  /// (generation-validated reuse) except for uid-0 relations — the
  /// per-round deltas — which are built fresh, matching the row path's
  /// per-round delta index builds in cost. Returns driver rows; fails
  /// only on a csr.build governor fault.
  Result<size_t> PrepareColumnar(
      const CompiledRule& c, const RelationResolver& resolver,
      CsrBindings* csrs,
      std::vector<std::shared_ptr<const columnar::Csr>>* owned) {
    csrs->assign(c.steps().size(), nullptr);
    for (size_t k = 0; k < c.steps().size(); ++k) {
      const Step& s = c.steps()[k];
      if (s.kind != Step::Kind::kScanProbe &&
          s.kind != Step::Kind::kNegCheck) {
        continue;
      }
      if (s.probe_cols.empty()) continue;
      const Relation* rel = resolver(s.pred, s.occurrence);
      if (rel == nullptr || rel->empty()) continue;
      if (rel->arity() == 2) {
        GRAPHLOG_ASSIGN_OR_RETURN(
            std::shared_ptr<const columnar::Csr> csr,
            csr_cache_->Get(*rel, options_.metrics, options_.governor));
        (*csrs)[k] = csr.get();
        owned->push_back(std::move(csr));
      } else {
        rel->BuildIndex(s.probe_cols);
      }
    }
    const Step* d = c.driver();
    if (d == nullptr) return size_t{0};
    const Relation* rel = resolver(d->pred, d->occurrence);
    return rel == nullptr ? size_t{0} : rel->size();
  }

  Status RunAggregateRule(int i) {
    const CompiledRule& c = compiled_.at(i);
    Relation* head_rel = db_->FindMutable(c.head_predicate());
    const auto& head_args = c.head_args();
    obs::QueryProfile* profile = options_.profile;
    StepCounters agg_counts;
    if (profile != nullptr) agg_counts.resize(c.steps().size());
    const uint64_t firings_before = stats_.rule_firings;
    const uint64_t derived_before = stats_.tuples_derived;
    const uint64_t t0 = profile != nullptr ? obs::NowNs() : 0;

    // Group key = plain head args; aggregates accumulate per group over the
    // SET of distinct body bindings (set semantics: duplicate slot vectors
    // from pure-check subgoals are deduplicated first).
    std::unordered_set<Tuple, TupleHash> seen_bindings;
    std::map<Tuple, std::vector<AggAccum>, storage::TupleLess> groups;

    RelationResolver resolver = [&](Symbol pred, int) -> const Relation* {
      return Resolve(pred);
    };
    BindingSink sink = [&](const std::vector<Value>& slots) {
      ++stats_.rule_firings;
      if (!seen_bindings.insert(slots).second) return;
      Tuple key;
      for (const CompiledHeadArg& a : head_args) {
        if (!a.is_aggregate) key.push_back(a.source.Get(slots));
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      if (inserted) {
        size_t naggs = 0;
        for (const CompiledHeadArg& a : head_args) {
          if (a.is_aggregate) ++naggs;
        }
        it->second.resize(naggs);
      }
      size_t ai = 0;
      for (const CompiledHeadArg& a : head_args) {
        if (!a.is_aggregate) continue;
        it->second[ai].Add(a.has_input ? a.source.Get(slots)
                                       : Value::Int(1));
        ++ai;
      }
    };
    c.ExecutePartition(resolver, sink, 0, 1, nullptr,
                       profile != nullptr ? &agg_counts : nullptr);

    for (const auto& [key, accums] : groups) {
      Tuple t;
      t.reserve(head_args.size());
      size_t ki = 0, ai = 0;
      for (const CompiledHeadArg& a : head_args) {
        if (a.is_aggregate) {
          t.push_back(accums[ai++].Result(a.agg));
        } else {
          t.push_back(key[ki++]);
        }
      }
      if (head_rel->Insert(std::move(t))) ++stats_.tuples_derived;
    }
    if (profile != nullptr) {
      // Aggregates transform firings into groups, so the join-rule dedup
      // identity does not apply; dup_in_round records the duplicate body
      // bindings the set semantics collapsed.
      obs::RuleProfile& rp = profile->rules[i];
      const uint64_t firings = stats_.rule_firings - firings_before;
      rp.firings += firings;
      rp.rows_emitted += stats_.tuples_derived - derived_before;
      rp.dup_in_round += firings - seen_bindings.size();
      for (size_t k = 0; k < agg_counts.size(); ++k) {
        rp.steps[k].invocations += agg_counts[k].invocations;
        rp.steps[k].rows_out += agg_counts[k].rows_out;
        rp.steps[k].csr_invocations += agg_counts[k].csr_invocations;
      }
      rp.wall_ns += obs::NowNs() - t0;
    }
    return Status::OK();
  }

  /// Restores every head relation to its pre-run state: relations this
  /// run created are removed, pre-existing ones truncated back to their
  /// baseline size (insertion order makes TruncateTo an exact undo). Only
  /// head relations can have been touched — EDB inputs are read-only to
  /// the engine.
  void Rollback() {
    for (const auto& [pred, base] : baseline_) {
      if (base == kCreatedByRun) {
        db_->Remove(pred);
      } else if (Relation* rel = db_->FindMutable(pred)) {
        rel->TruncateTo(base);
      }
    }
  }

  /// A tripped budget either marks the run truncated (return_partial:
  /// callers stop at the boundary and keep the partial fixpoint) or
  /// returns the strict kBudgetExceeded (Run() then rolls back).
  Status TripBudget(std::string_view budget, std::string_view site,
                    uint64_t observed, uint64_t limit) {
    if (options_.governor->budget.return_partial) {
      truncated_ = true;
      truncated_by_ = std::string(budget) + " at " + std::string(site) +
                      " (stratum " + std::to_string(stratum_) + ")";
      return Status::OK();
    }
    return gov::BudgetExceededError(budget, site, observed, limit);
  }

  /// Run-wide budgets computable from cumulative stats and the database:
  /// total derived rows and estimated resident bytes. Both quantities are
  /// deterministic across num_threads (the merge order fixes
  /// tuples_derived; MemoryBytes is structural).
  Status CheckRunBudgets(std::string_view site) {
    const gov::GovernorContext* g = options_.governor;
    if (g == nullptr || !g->budget.any()) return Status::OK();
    const gov::ResourceBudget& b = g->budget;
    if (b.max_result_rows != 0 && stats_.tuples_derived > b.max_result_rows) {
      return TripBudget("max_result_rows", site, stats_.tuples_derived,
                        b.max_result_rows);
    }
    if (b.max_bytes != 0) {
      const uint64_t bytes = db_->TotalBytes();
      if (bytes > b.max_bytes) {
        return TripBudget("max_bytes", site, bytes, b.max_bytes);
      }
    }
    return Status::OK();
  }

  /// The deterministic round boundary: interrupts (cancellation,
  /// deadline, armed eval.round faults) first, then every budget against
  /// this round's delta. Called at the top of each fixpoint round; on a
  /// return_partial trip it sets truncated_ and the caller breaks out
  /// with the previous round's (complete) fixpoint prefix.
  Status CheckRoundBoundary(uint64_t delta_rows, uint64_t delta_bytes) {
    const gov::GovernorContext* g = options_.governor;
    if (g == nullptr) return Status::OK();
    GRAPHLOG_RETURN_NOT_OK(g->Check("eval.round"));
    const gov::ResourceBudget& b = g->budget;
    if (!b.any()) return Status::OK();
    if (b.max_rounds != 0 && stats_.iterations >= b.max_rounds) {
      return TripBudget("max_rounds", "eval.round", stats_.iterations + 1,
                        b.max_rounds);
    }
    if (b.max_delta_rows != 0 && delta_rows > b.max_delta_rows) {
      return TripBudget("max_delta_rows", "eval.round", delta_rows,
                        b.max_delta_rows);
    }
    if (b.max_result_rows != 0 && stats_.tuples_derived > b.max_result_rows) {
      return TripBudget("max_result_rows", "eval.round",
                        stats_.tuples_derived, b.max_result_rows);
    }
    if (b.max_bytes != 0) {
      const uint64_t bytes = db_->TotalBytes() + delta_bytes;
      if (bytes > b.max_bytes) {
        return TripBudget("max_bytes", "eval.round", bytes, b.max_bytes);
      }
    }
    return Status::OK();
  }

  const Program& prog_;
  Database* db_;
  EvalOptions options_;
  EvalStats stats_;
  std::map<int, CompiledRule> compiled_;
  // Worker lanes shared by every batch of this run; null on the serial path.
  std::unique_ptr<exec::ThreadPool> pool_;
  // CSR snapshots for the columnar join path: the caller's cross-run
  // cache when provided, else this run-local one. Unused unless
  // options_.columnar.
  columnar::CsrCache local_csr_cache_;
  columnar::CsrCache* csr_cache_;
  // Histogram handles in options_.metrics (null without one).
  obs::HistogramCell* stratum_rounds_ = nullptr;
  obs::HistogramCell* delta_rows_ = nullptr;

  /// Pre-run size of every head relation, or kCreatedByRun for relations
  /// this run declares; the Rollback() baseline.
  static constexpr size_t kCreatedByRun = static_cast<size_t>(-1);
  std::map<Symbol, size_t> baseline_;
  // Governed-run truncation state (ResourceBudget::return_partial).
  bool truncated_ = false;
  std::string truncated_by_;
  int64_t stratum_ = 0;  // current stratum index, for trip messages
  int64_t prof_round_ = 0;  // round index within the stratum (profiling)
  // Growth mode (EvaluateGrowth): each grown predicate with the first
  // of its rows the fixpoint has not taken in yet.
  const bool growth_;
  std::map<Symbol, size_t> grown_;
};

}  // namespace

std::vector<StratumGroup> PlanStratum(const Program& prog,
                                      const std::vector<int>& rules,
                                      const Database& db, Strategy strategy) {
  // Heads of an unbound binary TC pair with an empty relation, with
  // their base. The recursive rule reads its own head in a two-atom
  // body, which keeps MatchTcRules off every other rule.
  std::map<Symbol, Symbol> served;
  if (strategy == Strategy::kSemiNaive) {
    for (int i : rules) {
      const Rule& r = prog.rules[i];
      const Symbol p = r.head.predicate;
      if (r.body.size() != 2 || served.count(p) > 0) continue;
      const bool reads_head =
          std::any_of(r.body.begin(), r.body.end(), [&](const auto& l) {
            return l.is_relational() && l.atom.predicate == p;
          });
      if (!reads_head) continue;
      Result<datalog::TcShape> shape = datalog::MatchTcRules(prog, p);
      if (!shape.ok() || shape->n != 1 || shape->w != 0) continue;
      const Relation* head = db.Find(p);
      if (head != nullptr && !head->empty()) continue;
      served.emplace(p, shape->base);
    }
  }
  if (served.empty()) return {StratumGroup{rules}};

  // StronglyConnectedComponents lists a component before the components
  // it reads (Tarjan's order), so walk it backwards. A served head must
  // be a component of its own: a base that reads the head back is not
  // complete when the closure starts.
  std::vector<StratumGroup> groups;
  std::vector<int> pending;  // rules of consecutive unserved components
  auto flush = [&] {
    if (pending.empty()) return;
    std::sort(pending.begin(), pending.end());
    groups.push_back(StratumGroup{std::move(pending)});
    pending.clear();
  };
  bool any_served = false;
  const auto comps =
      datalog::DependenceGraph::Build(prog).StronglyConnectedComponents();
  for (auto c = comps.rbegin(); c != comps.rend(); ++c) {
    std::vector<int> comp_rules;
    for (int i : rules) {
      if (std::find(c->begin(), c->end(), prog.rules[i].head.predicate) !=
          c->end()) {
        comp_rules.push_back(i);
      }
    }
    auto it = c->size() == 1 ? served.find(c->front()) : served.end();
    if (it == served.end()) {
      pending.insert(pending.end(), comp_rules.begin(), comp_rules.end());
      continue;
    }
    flush();
    groups.push_back(StratumGroup{comp_rules, it->first, it->second});
    any_served = true;
  }
  if (!any_served) return {StratumGroup{rules}};
  flush();
  return groups;
}

Result<EvalStats> Evaluate(const Program& prog, Database* db,
                           const EvalOptions& options) {
  Engine engine(prog, db, options);
  return engine.Run();
}

Result<EvalStats> EvaluateGrowth(const Program& prog, Database* db,
                                 const std::map<Symbol, size_t>& grown_from,
                                 const EvalOptions& options) {
  for (const auto& [p, from] : grown_from) {
    const Relation* rel = db->Find(p);
    if (rel == nullptr || from > rel->size()) {
      return Status::InvalidArgument("grown relation '" +
                                     db->symbols().name(p) +
                                     "' is missing or smaller than its "
                                     "recorded size");
    }
  }
  Engine engine(prog, db, options, &grown_from);
  return engine.Run();
}

Result<EvalStats> EvaluateText(std::string_view program_text, Database* db,
                               const EvalOptions& options) {
  GRAPHLOG_ASSIGN_OR_RETURN(
      Program prog, datalog::ParseProgram(program_text, &db->symbols()));
  return Evaluate(prog, db, options);
}

}  // namespace graphlog::eval
