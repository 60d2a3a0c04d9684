#include <gtest/gtest.h>

#include "sql/ddl.h"
#include "harness/experiment.h"
#include "workload/loader.h"

namespace bati {
namespace {

constexpr const char* kSchema = R"(
-- web shop schema
CREATE TABLE orders (
  o_id     BIGINT NDV 5000000 RANGE (0, 5000000),
  o_cust   INT NDV 200000 RANGE (0, 200000),
  o_status VARCHAR(10) NDV 4,
  o_total  DOUBLE NDV 1000000 RANGE (1, 10000),
  o_date   DATE NDV 1500 RANGE (0, 1500)
) WITH (ROWS = 5000000);

CREATE TABLE customers (
  c_id      BIGINT NDV 200000 RANGE (0, 200000),
  c_country CHAR(2) NDV 60
) WITH (ROWS = 200000);
)";

TEST(Ddl, ParsesSchemaWithAnnotations) {
  auto stmts = sql::ParseDdl(kSchema);
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  ASSERT_EQ(stmts->size(), 2u);
  const auto& orders = (*stmts)[0];
  EXPECT_EQ(orders.table_name, "orders");
  EXPECT_DOUBLE_EQ(orders.rows, 5000000);
  ASSERT_EQ(orders.columns.size(), 5u);
  EXPECT_EQ(orders.columns[2].type_name, "VARCHAR");
  EXPECT_EQ(orders.columns[2].length, 10);
  EXPECT_DOUBLE_EQ(*orders.columns[2].ndv, 4);
  ASSERT_TRUE(orders.columns[3].range.has_value());
  EXPECT_DOUBLE_EQ(orders.columns[3].range->second, 10000);
}

TEST(Ddl, OptionalEqualsSignsAccepted) {
  auto stmts = sql::ParseDdl(
      "CREATE TABLE t (a INT NDV = 5) WITH (ROWS = 100)");
  ASSERT_TRUE(stmts.ok());
  EXPECT_DOUBLE_EQ(*(*stmts)[0].columns[0].ndv, 5);
  EXPECT_DOUBLE_EQ((*stmts)[0].rows, 100);
}

TEST(Ddl, DefaultsApplyWithoutAnnotations) {
  auto stmts = sql::ParseDdl("CREATE TABLE t (a INT, b VARCHAR(8));");
  ASSERT_TRUE(stmts.ok());
  EXPECT_DOUBLE_EQ((*stmts)[0].rows, 1000.0);
  EXPECT_FALSE((*stmts)[0].columns[0].ndv.has_value());
}

TEST(Ddl, Errors) {
  EXPECT_FALSE(sql::ParseDdl("").ok());
  EXPECT_FALSE(sql::ParseDdl("CREATE TABLE t ()").ok());
  EXPECT_FALSE(sql::ParseDdl("CREATE TABLE t (a WIDGET)").ok());
  EXPECT_FALSE(sql::ParseDdl("CREATE t (a INT)").ok());
  EXPECT_FALSE(sql::ParseDdl("SELECT 1").ok());
  EXPECT_FALSE(sql::ParseDdl("CREATE TABLE t (a INT RANGE (1))").ok());
}

TEST(Loader, BuildsDatabaseFromDdl) {
  auto db = LoadSchemaFromDdl("shop", kSchema);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->num_tables(), 2);
  int orders = (*db)->FindTable("orders");
  ASSERT_GE(orders, 0);
  EXPECT_DOUBLE_EQ((*db)->table(orders).row_count(), 5000000);
  const Column& status =
      (*db)->table(orders).column((*db)->table(orders).FindColumn("o_status"));
  EXPECT_EQ(status.type, ColumnType::kString);
  EXPECT_EQ(status.WidthBytes(), 10);
  EXPECT_DOUBLE_EQ(status.stats.ndv, 4);
}

TEST(Loader, RejectsDuplicateColumnsAndTables) {
  EXPECT_FALSE(
      LoadSchemaFromDdl("x", "CREATE TABLE t (a INT, a INT)").ok());
  EXPECT_FALSE(LoadSchemaFromDdl("x",
                                 "CREATE TABLE t (a INT); "
                                 "CREATE TABLE t (b INT);")
                   .ok());
}

TEST(Loader, LoadsWorkloadFromSqlScript) {
  auto db = LoadSchemaFromDdl("shop", kSchema);
  ASSERT_TRUE(db.ok());
  auto workload = LoadWorkloadFromSql(
      "shop-wl", *db,
      "SELECT o_id FROM orders WHERE o_status = 'OPEN';\n"
      "-- a comment between statements\n"
      "SELECT c_country, COUNT(*) FROM orders, customers "
      "WHERE o_cust = c_id GROUP BY c_country;\n");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ASSERT_EQ(workload->num_queries(), 2);
  EXPECT_EQ(workload->queries[0].name, "q1");
  EXPECT_EQ(workload->queries[1].num_joins(), 1);
}

TEST(Loader, SemicolonInsideStringLiteralIsNotASplit) {
  auto db = LoadSchemaFromDdl("shop", kSchema);
  ASSERT_TRUE(db.ok());
  auto workload = LoadWorkloadFromSql(
      "wl", *db, "SELECT o_id FROM orders WHERE o_status = 'a;b'");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  EXPECT_EQ(workload->num_queries(), 1);
}

TEST(Loader, ReportsStatementNumberOnBindError) {
  auto db = LoadSchemaFromDdl("shop", kSchema);
  ASSERT_TRUE(db.ok());
  auto workload = LoadWorkloadFromSql(
      "wl", *db,
      "SELECT o_id FROM orders; SELECT nope FROM orders;");
  ASSERT_FALSE(workload.ok());
  EXPECT_NE(workload.status().message().find("statement 2"),
            std::string::npos);
}

TEST(Loader, EndToEndTuningOnLoadedSchema) {
  auto db = LoadSchemaFromDdl("shop", kSchema);
  ASSERT_TRUE(db.ok());
  auto workload = LoadWorkloadFromSql(
      "shop-wl", *db,
      "SELECT o_id, o_total FROM orders WHERE o_status = 'OPEN' AND "
      "o_date > 1400;"
      "SELECT c_country, COUNT(*) FROM orders, customers WHERE "
      "o_cust = c_id AND c_country = 'DE' GROUP BY c_country;");
  ASSERT_TRUE(workload.ok());
  CandidateSet candidates = GenerateCandidates(*workload);
  EXPECT_GT(candidates.size(), 0);
  WhatIfOptimizer optimizer(workload->database);
  CostService service(&optimizer, &*workload, &candidates.indexes, 30);
  TuningContext ctx;
  ctx.workload = &*workload;
  ctx.candidates = &candidates;
  ctx.constraints.max_indexes = 2;
  auto tuner = MakeTuner("mcts", ctx, 1);
  TuningResult result = tuner->Tune(service);
  EXPECT_GT(service.TrueImprovement(result.best_config), 10.0);
}

}  // namespace
}  // namespace bati
