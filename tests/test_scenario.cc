/**
 * @file
 * Scenario subsystem tests: the hand-rolled JSON reader, CoreParams
 * override application, whole-config validation, spec parsing with
 * grid expansion, the stats registry emitters, and an end-to-end
 * equivalence check of a scenario run against direct simulation.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/json.hh"
#include "base/stats.hh"
#include "sim/scenario.hh"
#include "sim/validate.hh"
#include "workload/program_cache.hh"

using namespace rix;

namespace
{

/** Parse or fail the test. */
JsonValue
parseOk(const std::string &text)
{
    std::string err;
    JsonValue v = JsonValue::parse(text, &err);
    EXPECT_EQ(err, "") << text;
    return v;
}

std::string
parseErr(const std::string &text)
{
    std::string err;
    JsonValue::parse(text, &err);
    EXPECT_NE(err, "") << text;
    return err;
}

} // namespace

// ---- JSON reader ----------------------------------------------------

TEST(Json, ScalarsAndNesting)
{
    const JsonValue v = parseOk(
        "{\"a\": 1, \"b\": -2.5, \"c\": true, \"d\": null, "
        "\"e\": \"x\\ny\", \"f\": [1, 2, 3], \"g\": {\"h\": false}}");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->asNumber(), 1.0);
    EXPECT_TRUE(v.find("a")->isIntegral());
    EXPECT_EQ(v.find("b")->asNumber(), -2.5);
    EXPECT_FALSE(v.find("b")->isIntegral());
    EXPECT_TRUE(v.find("c")->asBool());
    EXPECT_TRUE(v.find("d")->isNull());
    EXPECT_EQ(v.find("e")->asString(), "x\ny");
    ASSERT_TRUE(v.find("f")->isArray());
    EXPECT_EQ(v.find("f")->items().size(), 3u);
    EXPECT_EQ(v.find("f")->items()[2].asNumber(), 3.0);
    EXPECT_FALSE(v.find("g")->find("h")->asBool());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectsPreserveDocumentOrder)
{
    const JsonValue v = parseOk("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "z");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "m");
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\t\\\"b\\\\c\\u0041\"").asString(),
              "a\t\"b\\cA");
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Json, ExponentsAreNotIntegral)
{
    EXPECT_FALSE(parseOk("1e3").isIntegral());
    EXPECT_EQ(parseOk("1e3").asNumber(), 1000.0);
    EXPECT_TRUE(parseOk("-7").isIntegral());
}

TEST(Json, ParseErrorsCarryPosition)
{
    EXPECT_NE(parseErr("{\"a\": 1,}").find("line 1"), std::string::npos);
    EXPECT_NE(parseErr("{\n  \"a\": zz\n}").find("line 2"),
              std::string::npos);
    parseErr("");
    parseErr("{\"a\": 1} trailing");
    parseErr("[1, 2");
    parseErr("\"unterminated");
    EXPECT_NE(parseErr("{\"a\": 1, \"a\": 2}").find("duplicate"),
              std::string::npos);
}

TEST(Json, NumberFormatting)
{
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(-42.0), "-42");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(20000000.0), "20000000");
}

// ---- CoreParams overrides -------------------------------------------

TEST(ParamOverride, AppliesAcrossGroups)
{
    CoreParams p;
    EXPECT_EQ(applyCoreParamOverride(p, "rs_size", parseOk("20")), "");
    EXPECT_EQ(p.rsSize, 20u);
    EXPECT_EQ(applyCoreParamOverride(p, "shared_load_store_port",
                                     parseOk("true")), "");
    EXPECT_TRUE(p.sharedLoadStorePort);
    EXPECT_EQ(applyCoreParamOverride(p, "integ.mode", parseOk("\"off\"")),
              "");
    EXPECT_EQ(int(p.integ.mode), int(IntegrationMode::Off));
    EXPECT_EQ(applyCoreParamOverride(p, "integ.lisp",
                                     parseOk("\"oracle\"")), "");
    EXPECT_EQ(int(p.integ.lisp), int(LispMode::Oracle));
    EXPECT_EQ(applyCoreParamOverride(p, "integ.it_assoc", parseOk("2")),
              "");
    EXPECT_EQ(p.integ.itAssoc, 2u);
    EXPECT_EQ(applyCoreParamOverride(p, "mem.l1d.size_bytes",
                                     parseOk("8192")), "");
    EXPECT_EQ(p.mem.l1d.sizeBytes, 8192u);
    EXPECT_EQ(applyCoreParamOverride(p, "mem.dtlb.entries", parseOk("32")),
              "");
    EXPECT_EQ(p.mem.dtlb.entries, 32u);
    EXPECT_EQ(applyCoreParamOverride(p, "bpred.btb_entries",
                                     parseOk("2048")), "");
    EXPECT_EQ(p.bpred.btbEntries, 2048u);
    EXPECT_EQ(applyCoreParamOverride(p, "mem.mem_latency", parseOk("120")),
              "");
    EXPECT_EQ(p.mem.memLatency, 120u);
}

TEST(ParamOverride, RejectsBadKeysAndTypes)
{
    CoreParams p;
    EXPECT_NE(applyCoreParamOverride(p, "bogus", parseOk("1")), "");
    EXPECT_NE(applyCoreParamOverride(p, "integ.bogus", parseOk("1")), "");
    EXPECT_NE(applyCoreParamOverride(p, "mem.l9.assoc", parseOk("1")), "");
    // Type mismatches.
    EXPECT_NE(applyCoreParamOverride(p, "rs_size", parseOk("\"20\"")), "");
    EXPECT_NE(applyCoreParamOverride(p, "rs_size", parseOk("2.5")), "");
    EXPECT_NE(applyCoreParamOverride(p, "rs_size", parseOk("-1")), "");
    EXPECT_NE(applyCoreParamOverride(p, "shared_load_store_port",
                                     parseOk("1")), "");
    EXPECT_NE(applyCoreParamOverride(p, "integ.mode",
                                     parseOk("\"sideways\"")), "");
    // Errors must name the offending key.
    const std::string err =
        applyCoreParamOverride(p, "integ.it_entries", parseOk("true"));
    EXPECT_NE(err.find("integ.it_entries"), std::string::npos) << err;
}

// ---- whole-config validation ----------------------------------------

TEST(ValidateParams, DefaultAndPresetConfigsAreValid)
{
    EXPECT_EQ(validateCoreParams(CoreParams{}), "");
}

TEST(ValidateParams, NamesTheOffendingField)
{
    CoreParams p;
    p.integ.itEntries = 100;
    const std::string err = validateCoreParams(p);
    EXPECT_NE(err.find("integ.it_entries"), std::string::npos) << err;

    CoreParams q;
    q.mem.l1d.sizeBytes = 12345;
    EXPECT_NE(validateCoreParams(q).find("mem.l1d.size_bytes"),
              std::string::npos);

    CoreParams r;
    r.integ.lispEntries = 0;
    EXPECT_NE(validateCoreParams(r).find("integ.lisp_entries"),
              std::string::npos);

    CoreParams s;
    s.bpred.btbEntries = 100;
    EXPECT_NE(validateCoreParams(s).find("bpred.btb_entries"),
              std::string::npos);

    CoreParams t;
    t.mem.dtlb.entries = 96; // 96/4 = 24 sets: not a power of two
    EXPECT_NE(validateCoreParams(t).find("mem.dtlb"), std::string::npos);
}

TEST(ValidateParams, ReportsEveryViolationAtOnce)
{
    CoreParams p;
    p.rsSize = 0;
    p.integ.itEntries = 100;
    p.mem.l1d.assoc = 0;
    const std::string err = validateCoreParams(p);
    EXPECT_NE(err.find("rs_size"), std::string::npos) << err;
    EXPECT_NE(err.find("integ.it_entries"), std::string::npos) << err;
    EXPECT_NE(err.find("mem.l1d.assoc"), std::string::npos) << err;
}

TEST(ValidateParams, CatchesPipelineDeadlocks)
{
    CoreParams p;
    p.fetchWidth = 0;
    EXPECT_NE(validateCoreParams(p).find("fetch_width"),
              std::string::npos);

    CoreParams q;
    q.storeSlots = 0; // stores could never issue...
    EXPECT_NE(validateCoreParams(q), "");
    q.sharedLoadStorePort = true; // ...unless the port is shared
    EXPECT_EQ(validateCoreParams(q), "");

    CoreParams r;
    r.integ.numPhysRegs = 64; // < logical regs + ROB
    EXPECT_NE(validateCoreParams(r).find("integ.num_phys_regs"),
              std::string::npos);
}

// ---- spec parsing and grid expansion --------------------------------

TEST(Scenario, ParsesConfigsAndDefaults)
{
    const ScenarioSpec spec = parseScenario(
        "{\"name\": \"t\", \"workloads\": [\"mcf\", \"gcc\"],"
        " \"scale\": 2, \"max_retired\": 1000,"
        " \"base\": {\"rs_size\": 30},"
        " \"configs\": ["
        "   {\"label\": \"a\", \"set\": {\"integ.mode\": \"off\"}},"
        "   {\"label\": \"b\", \"set\": {\"integ.it_assoc\": 1}}]}");
    EXPECT_EQ(spec.name, "t");
    EXPECT_EQ(spec.render, "jsonl");
    ASSERT_EQ(spec.workloads.size(), 2u);
    EXPECT_EQ(spec.workloads[0], "mcf");
    EXPECT_EQ(spec.scale, 2u);
    EXPECT_EQ(spec.maxRetired, 1000u);
    EXPECT_EQ(spec.maxCycles, 200'000'000u);
    ASSERT_EQ(spec.configs.size(), 2u);
    EXPECT_EQ(spec.configs[0].label, "a");
    EXPECT_EQ(spec.configs[0].params.rsSize, 30u);      // base applied
    EXPECT_EQ(int(spec.configs[0].params.integ.mode),
              int(IntegrationMode::Off));
    EXPECT_EQ(spec.configs[1].params.rsSize, 30u);
    EXPECT_EQ(spec.configs[1].params.integ.itAssoc, 1u);
    EXPECT_EQ(spec.configIndex("b"), 1);
    EXPECT_EQ(spec.configIndex("nope"), -1);
}

TEST(Scenario, GridExpandsFirstAxisSlowest)
{
    const ScenarioSpec spec = parseScenario(
        "{\"workloads\": [\"mcf\"],"
        " \"grid\": {\"rs_size\": [10, 20], \"integ.it_assoc\": [1, 4]}}");
    ASSERT_EQ(spec.configs.size(), 4u);
    EXPECT_EQ(spec.configs[0].label, "rs_size=10;integ.it_assoc=1");
    EXPECT_EQ(spec.configs[1].label, "rs_size=10;integ.it_assoc=4");
    EXPECT_EQ(spec.configs[2].label, "rs_size=20;integ.it_assoc=1");
    EXPECT_EQ(spec.configs[3].label, "rs_size=20;integ.it_assoc=4");
    EXPECT_EQ(spec.configs[3].params.rsSize, 20u);
    EXPECT_EQ(spec.configs[3].params.integ.itAssoc, 4u);
}

TEST(Scenario, GridCrossesEveryConfig)
{
    const ScenarioSpec spec = parseScenario(
        "{\"workloads\": [\"mcf\"],"
        " \"configs\": [{\"label\": \"x\"}, "
        "               {\"label\": \"y\", \"set\": {\"rs_size\": 20}}],"
        " \"grid\": {\"integ.gen_bits\": [4, 8]}}");
    ASSERT_EQ(spec.configs.size(), 4u);
    EXPECT_EQ(spec.configs[0].label, "x;integ.gen_bits=4");
    EXPECT_EQ(spec.configs[3].label, "y;integ.gen_bits=8");
    EXPECT_EQ(spec.configs[3].params.rsSize, 20u);
    EXPECT_EQ(spec.configs[3].params.integ.genBits, 8u);
}

TEST(Scenario, EnvironmentDoesNotShapeSpec)
{
    // The variables that once overrode a spec: the text alone decides.
    const char *const legacy[][2] = {{"RIX_SCALE", "3"},
                                     {"RIX_BENCH", "gzip"},
                                     {"RIX_TRACE", "/tmp/rix_env.jsonl"},
                                     {"RIX_METRICS_EVERY", "2500"}};
    for (const auto &kv : legacy)
        setenv(kv[0], kv[1], 1);
    const ScenarioSpec spec = parseScenario(
        "{\"workloads\": [\"mcf\", \"gcc\"], \"scale\": 1,"
        " \"configs\": [{\"label\": \"a\"}]}");
    for (const auto &kv : legacy)
        unsetenv(kv[0]);
    EXPECT_EQ(spec.scale, 1u);
    EXPECT_EQ(spec.workloads, (std::vector<std::string>{"mcf", "gcc"}));
    EXPECT_FALSE(spec.trace.enabled);
    EXPECT_FALSE(spec.metrics.enabled);
}

TEST(Scenario, SpecErrorsAreFatal)
{
    EXPECT_EXIT(parseScenario("{\"bogus\": 1}"),
                ::testing::ExitedWithCode(1), "unknown top-level field");
    EXPECT_EXIT(parseScenario("not json"), ::testing::ExitedWithCode(1),
                "line 1");
    EXPECT_EXIT(parseScenario("{\"workloads\": [\"nope\"]}"),
                ::testing::ExitedWithCode(1), "unknown workload 'nope'");
    EXPECT_EXIT(parseScenario("{\"scale\": 0}"),
                ::testing::ExitedWithCode(1), "'scale'");
    EXPECT_EXIT(parseScenario("{\"configs\": [{\"label\": \"a\"}, "
                              "{\"label\": \"a\"}]}"),
                ::testing::ExitedWithCode(1), "duplicate config label");
    EXPECT_EXIT(parseScenario("{\"configs\": [{\"label\": \"a\", "
                              "\"set\": {\"rs_size\": true}}]}"),
                ::testing::ExitedWithCode(1), "rs_size");
    EXPECT_EXIT(parseScenario("{\"render\": \"fig9\"}"),
                ::testing::ExitedWithCode(1), "unknown render");
    EXPECT_EXIT(parseScenario("{}"), ::testing::ExitedWithCode(1),
                "needs a 'grid'");
    EXPECT_EXIT(parseScenario("{\"render\": \"fig5\", "
                              "\"configs\": [{\"label\": \"base\"}]}"),
                ::testing::ExitedWithCode(1),
                "render 'fig5' requires a config labeled 'reverse'");
}

TEST(Scenario, RunMatchesDirectSimulation)
{
    const ScenarioSpec spec = parseScenario(
        "{\"name\": \"tiny\", \"workloads\": [\"gcc\"],"
        " \"max_retired\": 50000, \"max_cycles\": 1000000,"
        " \"configs\": ["
        "  {\"label\": \"off\", \"set\": {\"integ.mode\": \"off\"}},"
        "  {\"label\": \"rev\", \"set\": {\"integ.mode\": \"reverse\"}}]}");
    const ScenarioResults res = runScenario(spec);
    ASSERT_EQ(res.jobs.size(), 2u);

    CoreParams off;
    off.integ.mode = IntegrationMode::Off;
    const SimReport direct = runSimulation(
        globalProgramCache().get("gcc", 1), off, 50000, 1000000);
    EXPECT_EQ(res.report(0, 0).core.cycles, direct.core.cycles);
    EXPECT_EQ(res.report(0, 0).core.retired, direct.core.retired);
    EXPECT_EQ(res.report(0, 0).l1dMisses, direct.l1dMisses);
    // The +reverse config genuinely differs.
    EXPECT_NE(res.report(0, 1).core.integrated(), 0u);
}

TEST(Scenario, RendersJsonlAndCsv)
{
    const auto render = [](const ScenarioSpec &spec,
                           const ScenarioResults &res) {
        char *buf = nullptr;
        size_t len = 0;
        FILE *mem = open_memstream(&buf, &len);
        renderScenario(spec, res, mem);
        fclose(mem);
        std::string text(buf, len);
        free(buf);
        return text;
    };
    const auto rows = [](const std::string &jsonl) {
        std::vector<JsonValue> out;
        size_t at = 0;
        for (size_t nl; (nl = jsonl.find('\n', at)) != std::string::npos;
             at = nl + 1)
            out.push_back(parseOk(jsonl.substr(at, nl - at)));
        return out;
    };

    ScenarioSpec spec = parseScenario(
        "{\"name\": \"tiny\", \"workloads\": [\"gcc\"],"
        " \"max_retired\": 20000,"
        " \"configs\": [{\"label\": \"a\"}]}");
    const ScenarioResults res = runScenario(spec);

    // One row, valid JSON, carrying labels and substrate stats; no
    // "base" config, so no speedup_pct.
    const std::vector<JsonValue> one = rows(render(spec, res));
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].find("workload")->asString(), "gcc");
    EXPECT_EQ(one[0].find("config")->asString(), "a");
    EXPECT_TRUE(one[0].find("l1d_misses") != nullptr);
    EXPECT_TRUE(one[0].find("ipc") != nullptr);
    EXPECT_TRUE(one[0].find("speedup_pct") == nullptr);

    spec.render = "csv";
    const std::string csv = render(spec, res);
    EXPECT_NE(csv.find("scenario,workload,config"), std::string::npos);
    EXPECT_NE(csv.find("tiny,gcc,a"), std::string::npos);

    // With a "base" config every row carries speedup_pct against the
    // same workload's base point: 0 on the base row itself.
    const std::string pair =
        "{\"workloads\": [\"gcc\", \"gzip\"], \"max_retired\": 20000,"
        " \"configs\": ["
        "  {\"label\": \"base\", \"set\": {\"integ.mode\": \"off\"}},"
        "  {\"label\": \"rev\", \"set\": {\"integ.mode\": \"reverse\"}}]";
    const ScenarioSpec full = parseScenario(pair + "}");
    const ScenarioResults fullRes = runScenario(full);
    const std::vector<JsonValue> fullRows = rows(render(full, fullRes));
    ASSERT_EQ(fullRows.size(), 4u);
    for (size_t w = 0; w < 2; ++w) {
        const JsonValue *base = fullRows[2 * w].find("speedup_pct");
        const JsonValue *rev = fullRows[2 * w + 1].find("speedup_pct");
        ASSERT_TRUE(base != nullptr && rev != nullptr);
        EXPECT_EQ(base->asNumber(), 0.0);
        EXPECT_DOUBLE_EQ(rev->asNumber(),
                         speedupPct(fullRes.report(w, 0).ipc(),
                                    fullRes.report(w, 1).ipc()));
    }

    // A sampled spec carries no speedup_pct: a ratio of two estimates
    // is not a measurement.
    const ScenarioSpec sampled = parseScenario(
        pair + ", \"sampling\": {\"fast_forward\": 8000, "
               "\"measure\": 1000, \"repeat\": 2}}");
    const std::vector<JsonValue> sampledRows =
        rows(render(sampled, runScenario(sampled)));
    ASSERT_EQ(sampledRows.size(), 4u);
    for (const JsonValue &row : sampledRows)
        EXPECT_TRUE(row.find("speedup_pct") == nullptr);
}

// ---- stats registry --------------------------------------------------

TEST(StatRegistry, CsvUnionsColumnsAcrossRows)
{
    StatRegistry reg;
    StatRegistry::Row &r1 = reg.addRow();
    r1.label("workload", "mcf");
    r1.stats.set("alpha", 1);
    StatRegistry::Row &r2 = reg.addRow();
    r2.label("workload", "gcc");
    r2.label("extra", "e");
    r2.stats.set("beta", 2.5);

    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    reg.writeCsv(mem);
    fclose(mem);
    std::string csv(buf, len);
    free(buf);
    EXPECT_EQ(csv, "workload,extra,alpha,beta\n"
                   "mcf,,1,\n"
                   "gcc,e,,2.5\n");
}

TEST(StatRegistry, JsonLinesEscapeAndType)
{
    StatRegistry reg;
    StatRegistry::Row &r = reg.addRow();
    r.label("config", "a\"b");
    r.stats.set("x", 3);

    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    reg.writeJsonLines(mem);
    fclose(mem);
    std::string out(buf, len);
    free(buf);
    EXPECT_EQ(out, "{\"config\": \"a\\\"b\", \"x\": 3}\n");
}
