//===- knobs_test.cpp - the PROTEUS_* knob table ------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Walks every row of every owner's knob table: the documented default is
// the owner struct's default, and an invalid value keeps that default with
// exactly one warning naming the knob and one counted "config.errors".
// These tests only parse: they construct no runtime, device pool or trace
// session, because the accepted ranges go up to 1024 worker threads, 64
// devices and a ~235 MB trace ring.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"

#include "gpu/DeviceManager.h"
#include "jit/JitRuntime.h"
#include "sched/Scheduler.h"
#include "support/Knobs.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::sched;
using namespace proteus_test;

namespace {

/// One owner's rows, its default-constructed struct, and its
/// fromEnvironment reduced to "read, then format row K".
struct Table {
  std::span<const knobs::Knob> Rows;
  const void *Defaults;
  std::string (*ReadBack)(const knobs::Knob &K,
                          std::vector<std::string> *Warnings);
};

template <class Cfg, Cfg (*FromEnv)(std::vector<std::string> *)>
std::string readBack(const knobs::Knob &K,
                     std::vector<std::string> *Warnings) {
  Cfg C = FromEnv(Warnings);
  return knobs::format(K, &C);
}

const JitConfig JitDefaults;
const CacheLimits CacheDefaults;
const DeviceManager::Config DeviceDefaults;
const SchedConfig SchedDefaults;
const trace::EnvConfig TraceDefaults;

std::vector<Table> allTables() {
  return {
      {JitConfig::envKnobs(), &JitDefaults,
       readBack<JitConfig, &JitConfig::fromEnvironment>},
      {CacheLimits::envKnobs(), &CacheDefaults,
       readBack<CacheLimits, &CacheLimits::fromEnvironment>},
      {DeviceManager::Config::envKnobs(), &DeviceDefaults,
       readBack<DeviceManager::Config, &DeviceManager::configFromEnvironment>},
      {SchedConfig::envKnobs(), &SchedDefaults,
       readBack<SchedConfig, &SchedConfig::fromEnvironment>},
      {trace::EnvConfig::envKnobs(), &TraceDefaults,
       readBack<trace::EnvConfig, &trace::EnvConfig::fromEnvironment>},
  };
}

const knobs::Knob &row(const std::string &Name) {
  for (const Table &T : allTables())
    for (const knobs::Knob &K : T.Rows)
      if (Name == K.Name)
        return K;
  ADD_FAILURE() << "no knob row " << Name;
  std::abort();
}

/// A value \p K's grammar rejects, or nullopt when it accepts everything.
std::optional<std::string> invalidValue(const knobs::Knob &K) {
  switch (K.Kind) {
  case knobs::Grammar::Flag:
    return std::nullopt;
  case knobs::Grammar::Choice:
    return "bogus";
  case knobs::Grammar::Unsigned:
    return std::to_string(K.Max + 1);
  case knobs::Grammar::Bytes:
    return "12abc";
  case knobs::Grammar::Path:
    return K.AllowEmpty ? std::nullopt : std::optional<std::string>("");
  case knobs::Grammar::ArchList:
    return "bogus-arch";
  }
  return std::nullopt;
}

uint64_t configErrors() {
  return metrics::processRegistry().counter("config.errors").value();
}

TEST(KnobTableTest, EveryKnobHasOneRow) {
  std::set<std::string> Names;
  for (const Table &T : allTables())
    for (const knobs::Knob &K : T.Rows) {
      EXPECT_TRUE(Names.insert(K.Name).second) << "duplicate " << K.Name;
      EXPECT_EQ(std::string(K.Name).rfind("PROTEUS_", 0), 0u) << K.Name;
      EXPECT_NE(std::string(K.Owner), "") << K.Name;
      EXPECT_NE(std::string(K.Doc), "") << K.Name;
    }
  EXPECT_EQ(Names.size(), 26u);
}

TEST(KnobTableTest, DocumentedDefaultsAreTheStructDefaults) {
  for (const Table &T : allTables())
    for (const knobs::Knob &K : T.Rows)
      EXPECT_EQ(knobs::format(K, T.Defaults), K.Default) << K.Name;
}

TEST(KnobTableTest, InvalidValuesKeepTheDefaultWithOneCountedWarning) {
  unsigned Checked = 0;
  for (const Table &T : allTables())
    for (const knobs::Knob &K : T.Rows) {
      std::optional<std::string> Bad = invalidValue(K);
      if (!Bad)
        continue;
      SCOPED_TRACE(std::string(K.Name) + "='" + *Bad + "'");
      ScopedEnv E(K.Name, *Bad);
      const uint64_t Before = configErrors();
      std::vector<std::string> Warnings;
      EXPECT_EQ(T.ReadBack(K, &Warnings), K.Default);
      ASSERT_EQ(Warnings.size(), 1u);
      EXPECT_EQ(Warnings[0], std::string("ignoring invalid ") + K.Name +
                                 " value '" + *Bad + "' (expected " +
                                 knobs::expected(K) + ")");
      EXPECT_EQ(configErrors(), Before + 1);
      ++Checked;
    }
  // Only the presence flag and the two paths that accept "" reject nothing.
  EXPECT_EQ(Checked, 23u);
}

TEST(KnobTableTest, EverySpellingParsesToItsValue) {
  for (const Table &T : allTables())
    for (const knobs::Knob &K : T.Rows)
      for (const knobs::Spelling &Sp : K.Spellings) {
        knobs::Value V;
        ASSERT_TRUE(knobs::parse(K, Sp.Text, V)) << K.Name << " " << Sp.Text;
        if (K.Kind == knobs::Grammar::ArchList) {
          ASSERT_EQ(V.List.size(), 1u);
          EXPECT_EQ(V.List[0], Sp.Value);
          EXPECT_STREQ(gpuArchName(static_cast<GpuArch>(Sp.Value)), Sp.Text);
        } else {
          EXPECT_EQ(V.Num, Sp.Value) << K.Name << " " << Sp.Text;
        }
      }
}

TEST(KnobTableTest, ModeNamesAreTheRowsCanonicalSpellings) {
  EXPECT_STREQ(asyncModeName(JitConfig::AsyncMode::Fallback), "fallback");
  EXPECT_STREQ(analyzeModeName(JitConfig::AnalyzeMode::Warn), "warn");
  EXPECT_STREQ(tierModeName(true), "on");
  EXPECT_STREQ(tierModeName(false), "off");
  EXPECT_STREQ(schedModeName(SchedMode::Perf), "perf");
}

TEST(KnobTableTest, TraceBufferRejectsNonPositiveAndHugeRings) {
  const knobs::Knob &K = row("PROTEUS_TRACE_BUFFER");
  for (const char *Bad : {"-1", "0", "99999999999", "18446744073709551616",
                          "4194305"}) {
    SCOPED_TRACE(Bad);
    knobs::Value V;
    EXPECT_FALSE(knobs::parse(K, Bad, V));
    ScopedEnv E("PROTEUS_TRACE_BUFFER", Bad);
    const uint64_t Before = configErrors();
    std::vector<std::string> Warnings;
    trace::EnvConfig C = trace::EnvConfig::fromEnvironment(&Warnings);
    EXPECT_EQ(C.Capacity, trace::DefaultCapacity);
    EXPECT_EQ(Warnings.size(), 1u);
    EXPECT_EQ(configErrors(), Before + 1);
  }
  ScopedEnv E("PROTEUS_TRACE_BUFFER", "4194304");
  EXPECT_EQ(trace::EnvConfig::fromEnvironment().Capacity, 4194304u);
}

TEST(KnobTableTest, ByteCountsRejectU64Overflow) {
  for (const char *Name : {"PROTEUS_CACHE_MEM_LIMIT", "PROTEUS_CACHE_BUDGET"})
    for (const char *Bad :
         {"18446744073709551616", "99999999999999999999999"}) {
      SCOPED_TRACE(std::string(Name) + "=" + Bad);
      ScopedEnv E(Name, Bad);
      const uint64_t Before = configErrors();
      std::vector<std::string> Warnings;
      CacheLimits L = CacheLimits::fromEnvironment(&Warnings);
      EXPECT_EQ(L.MaxMemoryBytes, 0u);
      EXPECT_EQ(L.BudgetBytes, 0u);
      ASSERT_EQ(Warnings.size(), 1u);
      EXPECT_NE(Warnings[0].find(Name), std::string::npos) << Warnings[0];
      EXPECT_EQ(configErrors(), Before + 1);
    }
  ScopedEnv E("PROTEUS_CACHE_BUDGET", "18446744073709551615");
  std::vector<std::string> Warnings;
  EXPECT_EQ(CacheLimits::fromEnvironment(&Warnings).BudgetBytes, UINT64_MAX);
  EXPECT_TRUE(Warnings.empty());
}

} // namespace
