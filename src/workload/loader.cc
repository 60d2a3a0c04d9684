#include "workload/loader.h"

#include "common/strings.h"
#include "sql/ddl.h"
#include "workload/binder.h"

namespace bati {

namespace {

ColumnType TypeFromName(const std::string& type_name) {
  if (type_name == "INT" || type_name == "INTEGER") return ColumnType::kInt;
  if (type_name == "BIGINT") return ColumnType::kBigInt;
  if (type_name == "DOUBLE") return ColumnType::kDouble;
  if (type_name == "DECIMAL") return ColumnType::kDecimal;
  if (type_name == "DATE") return ColumnType::kDate;
  return ColumnType::kString;  // VARCHAR / CHAR / STRING
}

/// Splits a script into statements on top-level semicolons (quotes
/// respected), dropping empty pieces and line comments.
std::vector<std::string> SplitStatements(std::string_view script) {
  std::vector<std::string> out;
  std::string current;
  bool in_string = false;
  for (size_t i = 0; i < script.size(); ++i) {
    char c = script[i];
    if (c == '\'' ) in_string = !in_string;
    if (!in_string && c == '-' && i + 1 < script.size() &&
        script[i + 1] == '-') {
      while (i < script.size() && script[i] != '\n') ++i;
      current += ' ';
      continue;
    }
    if (c == ';' && !in_string) {
      if (!Trim(current).empty()) out.emplace_back(Trim(current));
      current.clear();
      continue;
    }
    current += c;
  }
  if (!Trim(current).empty()) out.emplace_back(Trim(current));
  return out;
}

}  // namespace

StatusOr<std::shared_ptr<Database>> LoadSchemaFromDdl(
    std::string database_name, std::string_view ddl_script) {
  auto statements = sql::ParseDdl(ddl_script);
  if (!statements.ok()) return statements.status();
  auto db = std::make_shared<Database>(std::move(database_name));
  for (const sql::CreateTableStmt& stmt : statements.value()) {
    Table table(stmt.table_name, stmt.rows);
    for (const sql::ColumnDef& def : stmt.columns) {
      Column col;
      col.name = def.name;
      col.type = TypeFromName(def.type_name);
      col.declared_length = def.length;
      // Defaults: key-like NDV over a [0, rows) domain; annotations win.
      col.stats.ndv = def.ndv.value_or(stmt.rows);
      if (def.range.has_value()) {
        col.stats.min_value = def.range->first;
        col.stats.max_value = def.range->second;
      } else {
        col.stats.min_value = 0;
        col.stats.max_value = std::max(1.0, stmt.rows);
      }
      if (table.FindColumn(col.name) >= 0) {
        return Status::InvalidArgument("duplicate column " + col.name +
                                       " in table " + stmt.table_name);
      }
      table.AddColumn(std::move(col));
    }
    if (auto added = db->AddTable(std::move(table)); !added.ok()) {
      return added.status();
    }
  }
  return db;
}

StatusOr<Workload> LoadWorkloadFromSql(std::string workload_name,
                                       std::shared_ptr<const Database> db,
                                       std::string_view sql_script) {
  if (db == nullptr) {
    return Status::InvalidArgument("null database");
  }
  Workload workload;
  workload.name = std::move(workload_name);
  workload.database = db;
  std::vector<std::string> statements = SplitStatements(sql_script);
  if (statements.empty()) {
    return Status::InvalidArgument("no SQL statements found");
  }
  for (size_t i = 0; i < statements.size(); ++i) {
    auto bound = BindSql(statements[i], *db);
    if (!bound.ok()) {
      return Status(bound.status().code(),
                    "statement " + std::to_string(i + 1) + ": " +
                        bound.status().message());
    }
    Query q = std::move(bound.value());
    q.id = static_cast<int>(i);
    q.name = "q" + std::to_string(i + 1);
    workload.queries.push_back(std::move(q));
  }
  return workload;
}

namespace {

std::string FormatNumber(double v) {
  // Integers without decimals; everything else with enough precision.
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

const char* TypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "INT";
    case ColumnType::kBigInt:
      return "BIGINT";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kDecimal:
      return "DECIMAL";
    case ColumnType::kDate:
      return "DATE";
    case ColumnType::kString:
      return "VARCHAR";
  }
  return "INT";
}

}  // namespace

std::string DumpSchemaDdl(const Database& db) {
  std::string out = "-- schema: " + db.name() + "\n";
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    out += "CREATE TABLE " + table.name() + " (\n";
    for (int c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      out += "  " + col.name + " " + TypeName(col.type);
      if (col.type == ColumnType::kString) {
        out += "(" + std::to_string(std::max(1, col.declared_length)) + ")";
      }
      out += " NDV " + FormatNumber(col.stats.ndv);
      out += " RANGE (" + FormatNumber(col.stats.min_value) + ", " +
             FormatNumber(col.stats.max_value) + ")";
      if (c + 1 < table.num_columns()) out += ",";
      out += "\n";
    }
    out += ") WITH (ROWS = " + FormatNumber(table.row_count()) + ");\n\n";
  }
  return out;
}

std::string DumpWorkloadSql(const Workload& workload) {
  std::string out = "-- workload: " + workload.name + "\n";
  for (const Query& q : workload.queries) {
    out += "-- " + q.name + "\n";
    out += q.sql + ";\n\n";
  }
  return out;
}

}  // namespace bati
