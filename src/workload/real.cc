#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "workload/generators.h"
#include "workload/schema_util.h"

namespace bati {

namespace {

using schema_util::IntCol;
using schema_util::NumCol;
using schema_util::StrCol;

/// Parameters of the synthetic "real workload" generator, tuned per DESIGN.md
/// to match the paper's Table 1 rows for Real-D and Real-M.
struct RealParams {
  const char* name;
  /// Prefix for generated table/column names (must be a valid identifier).
  const char* table_prefix;
  int num_tables;
  int num_queries;
  double target_bytes;
  /// Mean number of joins per query (scans = joins + 1 on a join tree).
  double mean_joins;
  /// Mean number of filter predicates per query.
  double mean_filters;
  /// Mean number of FK edges leaving each table.
  double mean_fks;
  /// Fraction of tables that are large "fact-like" tables.
  double fact_fraction;
  uint64_t schema_seed;
};

struct TableMeta {
  int id_col = 0;                  // ordinal of the surrogate key column
  std::vector<int> fk_cols;        // ordinals of FK columns
  std::vector<int> fk_targets;     // referenced table ids (parallel array)
  std::vector<int> attr_cols;      // ordinals of non-key attribute columns
};

/// Builds the synthetic schema: tables with skewed sizes, surrogate keys,
/// FK edges to earlier tables, and a handful of filterable attributes.
std::shared_ptr<Database> MakeRealDatabase(const RealParams& p,
                                           std::vector<TableMeta>* metas,
                                           std::vector<std::vector<int>>* adj) {
  Rng rng(p.schema_seed);
  auto db = std::make_shared<Database>(p.name);
  metas->resize(static_cast<size_t>(p.num_tables));
  adj->assign(static_cast<size_t>(p.num_tables), {});

  // Draw raw row counts with heavy skew, then rescale to the byte target.
  std::vector<double> rows(static_cast<size_t>(p.num_tables));
  for (int i = 0; i < p.num_tables; ++i) {
    bool fact = rng.Bernoulli(p.fact_fraction);
    double log10_rows =
        fact ? rng.Uniform(6.5, 8.2) : rng.Uniform(2.0, 5.5);
    rows[static_cast<size_t>(i)] = std::pow(10.0, log10_rows);
  }

  // Column layouts first (widths needed for the byte-total rescale).
  struct PendingTable {
    std::string name;
    std::vector<Column> columns;
  };
  std::vector<PendingTable> pending(static_cast<size_t>(p.num_tables));
  double total_bytes = 0.0;
  for (int i = 0; i < p.num_tables; ++i) {
    TableMeta& meta = (*metas)[static_cast<size_t>(i)];
    PendingTable& pt = pending[static_cast<size_t>(i)];
    std::string tname = std::string(p.table_prefix) + "_t" + std::to_string(i);
    pt.name = tname;
    double r = rows[static_cast<size_t>(i)];

    // Surrogate key.
    meta.id_col = static_cast<int>(pt.columns.size());
    pt.columns.push_back(IntCol(tname + "_id", r, 0, r));

    // FK columns to earlier tables (preferring larger targets sometimes to
    // create realistic fact->dimension shapes).
    if (i > 0) {
      int n_fks = static_cast<int>(rng.UniformInt(
          1, std::max<int64_t>(1, static_cast<int64_t>(2 * p.mean_fks - 1))));
      std::set<int> targets;
      for (int f = 0; f < n_fks; ++f) {
        int target = static_cast<int>(rng.UniformInt(0, i - 1));
        if (!targets.insert(target).second) continue;
        double trows = rows[static_cast<size_t>(target)];
        meta.fk_cols.push_back(static_cast<int>(pt.columns.size()));
        meta.fk_targets.push_back(target);
        pt.columns.push_back(
            IntCol(tname + "_fk" + std::to_string(f), trows, 0, trows));
        (*adj)[static_cast<size_t>(i)].push_back(target);
        (*adj)[static_cast<size_t>(target)].push_back(i);
      }
    }

    // Attribute columns: a mix of low- and high-cardinality values.
    int n_attrs = static_cast<int>(rng.UniformInt(3, 9));
    for (int a = 0; a < n_attrs; ++a) {
      meta.attr_cols.push_back(static_cast<int>(pt.columns.size()));
      std::string cname = tname + "_a" + std::to_string(a);
      switch (rng.UniformInt(0, 3)) {
        case 0: {  // categorical, often skewed (real data rarely uniform)
          Column c = IntCol(cname, rng.Uniform(2, 60), 0, 1000);
          if (rng.Bernoulli(0.5)) {
            c.stats.histogram =
                Histogram::Zipf(0, 1000, 12, rng.Uniform(0.8, 1.8));
          }
          pt.columns.push_back(std::move(c));
          break;
        }
        case 1:  // timestamp-like
          pt.columns.push_back(IntCol(cname, 100000, 0, 100000));
          break;
        case 2:  // measure
          pt.columns.push_back(NumCol(cname, 1e6, 0, 1e6));
          break;
        default:  // short text
          pt.columns.push_back(
              StrCol(cname, static_cast<int>(rng.UniformInt(8, 40)),
                     rng.Uniform(10, 1e5)));
          break;
      }
    }
    double width = 0;
    for (const Column& c : pt.columns) width += c.WidthBytes();
    total_bytes += r * width;
  }

  // Rescale row counts so the database totals the paper's size, keeping
  // key/FK statistics consistent: a surrogate key's NDV equals its table's
  // rescaled rows; an FK's NDV equals the referenced table's rescaled rows.
  double factor = p.target_bytes / std::max(1.0, total_bytes);
  auto scaled_rows = [&](int i) {
    return std::max(10.0, rows[static_cast<size_t>(i)] * factor);
  };
  for (int i = 0; i < p.num_tables; ++i) {
    const TableMeta& meta = (*metas)[static_cast<size_t>(i)];
    double r = scaled_rows(i);
    Table t(pending[static_cast<size_t>(i)].name, r);
    std::vector<Column>& cols = pending[static_cast<size_t>(i)].columns;
    cols[static_cast<size_t>(meta.id_col)].stats.ndv = r;
    cols[static_cast<size_t>(meta.id_col)].stats.max_value = r;
    for (size_t f = 0; f < meta.fk_cols.size(); ++f) {
      double target_rows = scaled_rows(meta.fk_targets[f]);
      Column& fk = cols[static_cast<size_t>(meta.fk_cols[f])];
      fk.stats.ndv = std::min(target_rows, r);
      fk.stats.max_value = target_rows;
    }
    for (int a : meta.attr_cols) {
      Column& c = cols[static_cast<size_t>(a)];
      c.stats.ndv = std::min(c.stats.ndv, r);
    }
    for (Column& c : cols) t.AddColumn(c);
    BATI_CHECK_OK(db->AddTable(std::move(t)).status());
  }
  return db;
}

/// Generates one query as SQL text: a random FK-walk join tree with a few
/// filters and an aggregate output.
std::string GenerateQuerySql(const RealParams& p, const Database& db,
                             const std::vector<TableMeta>& metas,
                             const std::vector<std::vector<int>>& adj,
                             Rng& rng) {
  const int want_scans =
      std::max(2, static_cast<int>(std::round(rng.Normal(
                      p.mean_joins + 1.0, p.mean_joins * 0.2))));

  // Random walk over the FK graph collecting distinct tables. Real
  // enterprise queries are overwhelmingly N:1 join chains (fact to
  // dimensions), so the walk is cardinality-bounded: an edge is taken only
  // if the estimated join output stays within a small multiple of the
  // current intermediate size (otherwise a fan-out join would blow up the
  // intermediate result and no index could help the query).
  std::set<int> visited;
  std::vector<int> order;
  std::vector<std::string> join_conjuncts;
  int start = -1;
  // Prefer a large table as the chain's "fact" anchor.
  for (int tries = 0; tries < 400 && start < 0; ++tries) {
    int cand = static_cast<int>(rng.UniformInt(0, p.num_tables - 1));
    if (adj[static_cast<size_t>(cand)].empty()) continue;
    if (db.table(cand).row_count() >= 1e4 || tries > 200) start = cand;
  }
  BATI_CHECK(start >= 0);
  visited.insert(start);
  order.push_back(start);
  double card = db.table(start).row_count();
  while (static_cast<int>(order.size()) < want_scans) {
    // Frontier: unvisited neighbors of any visited table whose join keeps
    // the intermediate result bounded.
    std::vector<std::pair<int, int>> frontier;  // (from, to)
    // The join column's dominant NDV is the *referenced* table's key
    // cardinality, so establish the FK direction for each candidate edge.
    auto references = [&](int holder, int target) {
      const TableMeta& hm = metas[static_cast<size_t>(holder)];
      for (int t : hm.fk_targets) {
        if (t == target) return true;
      }
      return false;
    };
    auto estimated_out = [&](int v, int nb) {
      double rows_nb = db.table(nb).row_count();
      double referenced_rows =
          references(nb, v) ? db.table(v).row_count() : rows_nb;
      return card * rows_nb / std::max(1.0, referenced_rows);
    };
    for (int v : order) {
      for (int nb : adj[static_cast<size_t>(v)]) {
        if (visited.count(nb) != 0) continue;
        if (estimated_out(v, nb) <= card * 2.0 + 100.0) {
          frontier.emplace_back(v, nb);
        }
      }
    }
    if (frontier.empty()) break;
    auto [from, to] =
        frontier[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(frontier.size()) - 1))];
    card = std::max(1.0, estimated_out(from, to));
    visited.insert(to);
    order.push_back(to);
    // Emit the FK equality conjunct for this edge (direction depends on
    // which side holds the FK).
    auto emit = [&](int holder, int target) -> bool {
      const TableMeta& hm = metas[static_cast<size_t>(holder)];
      for (size_t f = 0; f < hm.fk_targets.size(); ++f) {
        if (hm.fk_targets[f] == target) {
          const Table& ht = db.table(holder);
          const Table& tt = db.table(target);
          join_conjuncts.push_back(
              ht.column(hm.fk_cols[f]).name + " = " +
              tt.column(metas[static_cast<size_t>(target)].id_col).name);
          return true;
        }
      }
      return false;
    };
    if (!emit(to, from)) BATI_CHECK(emit(from, to));
  }

  // Filters: Poisson-ish count with the configured mean.
  std::vector<std::string> filter_conjuncts;
  int n_filters = 0;
  {
    double mean = p.mean_filters;
    while (mean > 0 && rng.Uniform() < mean / (1.0 + mean) &&
           n_filters < 6) {
      ++n_filters;
      mean *= 0.7;
    }
  }
  for (int f = 0; f < n_filters; ++f) {
    int t = order[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(order.size()) - 1))];
    const TableMeta& meta = metas[static_cast<size_t>(t)];
    if (meta.attr_cols.empty()) continue;
    const Table& table = db.table(t);
    int col = meta.attr_cols[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(meta.attr_cols.size()) - 1))];
    const Column& c = table.column(col);
    double lo = c.stats.min_value, hi = c.stats.max_value;
    if (rng.Bernoulli(0.6)) {
      // Equality on a value within the domain.
      int64_t v = static_cast<int64_t>(rng.Uniform(lo, hi));
      filter_conjuncts.push_back(c.name + " = " + std::to_string(v));
    } else {
      double a = rng.Uniform(lo, hi);
      double b = a + rng.Uniform(0.01, 0.2) * (hi - lo);
      filter_conjuncts.push_back(c.name + " BETWEEN " +
                                 std::to_string(static_cast<int64_t>(a)) +
                                 " AND " +
                                 std::to_string(static_cast<int64_t>(b)));
    }
  }

  // Output: group by one attribute, aggregate one measure.
  const Table& first = db.table(order.front());
  const TableMeta& fmeta = metas[static_cast<size_t>(order.front())];
  std::string group_col =
      fmeta.attr_cols.empty()
          ? first.column(fmeta.id_col).name
          : first.column(fmeta.attr_cols.front()).name;
  const Table& last = db.table(order.back());
  const TableMeta& lmeta = metas[static_cast<size_t>(order.back())];
  std::string agg_col =
      lmeta.attr_cols.empty()
          ? last.column(lmeta.id_col).name
          : last.column(lmeta.attr_cols.back()).name;

  std::string sql = "SELECT " + group_col + ", COUNT(*), SUM(" + agg_col +
                    ") FROM ";
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += db.table(order[i]).name();
  }
  sql += " WHERE ";
  bool need_and = false;
  for (const std::string& j : join_conjuncts) {
    if (need_and) sql += " AND ";
    sql += j;
    need_and = true;
  }
  for (const std::string& flt : filter_conjuncts) {
    if (need_and) sql += " AND ";
    sql += flt;
    need_and = true;
  }
  sql += " GROUP BY " + group_col;
  return sql;
}

Workload MakeReal(const RealParams& p, const WorkloadOptions& options) {
  RealParams scaled = p;
  scaled.target_bytes *= options.scale;
  std::vector<TableMeta> metas;
  std::vector<std::vector<int>> adj;
  auto db = MakeRealDatabase(scaled, &metas, &adj);
  Rng rng(scaled.schema_seed ^ 0x517CC1B727220A95ULL);
  std::vector<std::string> sqls;
  std::vector<std::string> names;
  for (int i = 0; i < scaled.num_queries; ++i) {
    sqls.push_back(GenerateQuerySql(scaled, *db, metas, adj, rng));
    names.push_back(std::string(p.table_prefix) + "_q" + std::to_string(i + 1));
  }
  return schema_util::BindAll(p.name, std::move(db), sqls, names);
}

}  // namespace

Workload MakeRealD(const WorkloadOptions& options) {
  RealParams p;
  p.name = "real-d";
  p.table_prefix = "rd";
  p.num_tables = 7912;
  p.num_queries = 32;
  p.target_bytes = 587e9;
  p.mean_joins = 15.6;
  p.mean_filters = 0.25;
  p.mean_fks = 1.6;
  p.fact_fraction = 0.01;
  p.schema_seed = 0xD001;
  return MakeReal(p, options);
}

Workload MakeRealDBench(const WorkloadOptions& options) {
  // Same schema shape as Real-D (Table 1), doubled query count and a
  // distinct seed: the benchmark workload must be big enough to load the
  // batched executor without being the workload the figures tune.
  RealParams p;
  p.name = "real-d-bench";
  p.table_prefix = "rb";
  p.num_tables = 7912;
  p.num_queries = 64;
  p.target_bytes = 587e9;
  p.mean_joins = 15.6;
  p.mean_filters = 0.25;
  p.mean_fks = 1.6;
  p.fact_fraction = 0.01;
  p.schema_seed = 0xD002;
  return MakeReal(p, options);
}

Workload MakeRealM(const WorkloadOptions& options) {
  RealParams p;
  p.name = "real-m";
  p.table_prefix = "rm";
  p.num_tables = 474;
  p.num_queries = 317;
  p.target_bytes = 26e9;
  p.mean_joins = 20.2;
  p.mean_filters = 1.5;
  p.mean_fks = 2.2;
  p.fact_fraction = 0.04;
  p.schema_seed = 0x4EA1;
  return MakeReal(p, options);
}

}  // namespace bati
