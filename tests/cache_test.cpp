//===- cache_test.cpp - Content-addressed solution cache tests ------------===//
//
// The GSC1 codec, the disk tier, key sensitivity, and the poisoning
// contract (docs/INCREMENTAL.md): corrupt, truncated, or version-skewed
// cache entries degrade to a full solve — counted, never crashing, never
// changing results.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "analysis/SolutionCache.h"
#include "corpus/Corpus.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace gator;
using namespace gator::analysis;
namespace fs = std::filesystem;

namespace {

support::Hash128 keyOf(uint64_t Hi, uint64_t Lo) {
  support::Hash128 K;
  K.Hi = Hi;
  K.Lo = Lo;
  return K;
}

CachedAnalysis sampleEntry() {
  CachedAnalysis E;
  E.ExitCode = 1;
  E.OutText = "app Sample: 3 activities\n";
  E.ErrText = "warning: something degraded\n";
  // Every field of the record, each array slot included, distinct and
  // nonzero: a codec that drops one reads it back as zero.
  E.Stats = test::distinctAppStats();
  E.Precision.AvgReceivers = 1.75;
  E.Precision.AvgListeners = 2.5;
  // 11 bounds + overflow slot, matching the gator_flowset_size histogram.
  E.FlowHistCounts.assign(12, 0);
  E.FlowHistCounts[0] = 7;
  E.FlowHistCounts[11] = 2;
  E.FlowHistSum = 42;
  E.FlowHistCount = 9;
  return E;
}

/// A scratch directory unique to the current test, cleaned on entry.
std::string scratchDir(const std::string &Leaf) {
  fs::path P = fs::temp_directory_path() / ("gator_cache_test_" + Leaf);
  fs::remove_all(P);
  return P.string();
}

//===----------------------------------------------------------------------===//
// GSC1 codec
//===----------------------------------------------------------------------===//

TEST(CacheCodecTest, RoundTripPreservesEveryField) {
  CachedAnalysis E = sampleEntry();
  std::string Bytes;
  SolutionCache::serialize(E, Bytes);

  CachedAnalysis Out;
  ASSERT_TRUE(SolutionCache::deserialize(Bytes, Out));
  EXPECT_EQ(Out.ExitCode, E.ExitCode);
  EXPECT_EQ(Out.OutText, E.OutText);
  EXPECT_EQ(Out.ErrText, E.ErrText);
  EXPECT_EQ(Out.Stats.Name, E.Stats.Name);
  EXPECT_EQ(test::differingFields(Out.Stats, E.Stats),
            std::vector<std::string>());
  EXPECT_TRUE(Out.Stats == E.Stats);
  EXPECT_DOUBLE_EQ(Out.Precision.AvgReceivers, E.Precision.AvgReceivers);
  ASSERT_TRUE(Out.Precision.AvgListeners.has_value());
  EXPECT_DOUBLE_EQ(*Out.Precision.AvgListeners, *E.Precision.AvgListeners);
  EXPECT_FALSE(Out.Precision.AvgParameters.has_value());
  EXPECT_EQ(Out.FlowHistCounts, E.FlowHistCounts);
  EXPECT_EQ(Out.FlowHistSum, E.FlowHistSum);
  EXPECT_EQ(Out.FlowHistCount, E.FlowHistCount);
}

TEST(CacheCodecTest, RejectsTruncationAtEveryLength) {
  std::string Bytes;
  SolutionCache::serialize(sampleEntry(), Bytes);
  CachedAnalysis Out;
  for (size_t Len = 0; Len < Bytes.size(); ++Len)
    EXPECT_FALSE(
        SolutionCache::deserialize(std::string_view(Bytes).substr(0, Len),
                                   Out))
        << "accepted a prefix of length " << Len;
}

TEST(CacheCodecTest, RejectsSingleBitFlips) {
  std::string Bytes;
  SolutionCache::serialize(sampleEntry(), Bytes);
  // Flipping any single bit must fail magic, version, size, or checksum
  // validation — or at worst produce a structurally invalid payload.
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Mutated = Bytes;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0x40);
    CachedAnalysis Out;
    EXPECT_FALSE(SolutionCache::deserialize(Mutated, Out))
        << "accepted a bit flip at byte " << I;
  }
}

TEST(CacheCodecTest, RejectsVersionSkewAndTrailingGarbage) {
  std::string Bytes;
  SolutionCache::serialize(sampleEntry(), Bytes);
  CachedAnalysis Out;

  std::string Skewed = Bytes;
  Skewed[4] = static_cast<char>(SolutionCache::FormatVersion + 1);
  EXPECT_FALSE(SolutionCache::deserialize(Skewed, Out));

  EXPECT_FALSE(SolutionCache::deserialize(Bytes + "extra", Out));
}

//===----------------------------------------------------------------------===//
// Disk tier
//===----------------------------------------------------------------------===//

TEST(CacheTierTest, DiskTierSharedAcrossInstances) {
  std::string Dir = scratchDir("disk");
  CachedAnalysis E = sampleEntry(), Out;
  {
    SolutionCache Writer(Dir);
    Writer.store(keyOf(7, 7), E);
    ASSERT_TRUE(fs::exists(fs::path(Dir) / (keyOf(7, 7).hex() + ".gsc")));
  }
  SolutionCache Reader(Dir);
  EXPECT_EQ(Reader.lookup(keyOf(7, 7), Out), SolutionCache::Outcome::Hit);
  EXPECT_EQ(Out.OutText, E.OutText);
  EXPECT_EQ(Out.ExitCode, E.ExitCode);
  fs::remove_all(Dir);
}

TEST(CacheTierTest, PoisonedDiskEntriesDegradeToMiss) {
  std::string Dir = scratchDir("poison");
  CachedAnalysis E = sampleEntry(), Out;
  SolutionCache Writer(Dir);
  Writer.store(keyOf(9, 9), E);

  fs::path File = fs::path(Dir) / (keyOf(9, 9).hex() + ".gsc");
  std::string Bytes;
  {
    std::ifstream In(File, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Bytes = SS.str();
  }
  ASSERT_FALSE(Bytes.empty());

  auto Rewrite = [&](const std::string &Content) {
    std::ofstream OutF(File, std::ios::binary | std::ios::trunc);
    OutF.write(Content.data(), static_cast<std::streamsize>(Content.size()));
  };

  // Truncated, bit-flipped, version-skewed, empty: each reads as Corrupt
  // (a counted miss), never throws, never yields a bogus entry.
  std::string Truncated = Bytes.substr(0, Bytes.size() / 2);
  std::string Flipped = Bytes;
  Flipped[Flipped.size() / 2] =
      static_cast<char>(Flipped[Flipped.size() / 2] ^ 0x01);
  std::string Skewed = Bytes;
  Skewed[4] = static_cast<char>(SolutionCache::FormatVersion + 1);
  for (const std::string &Poison :
       {Truncated, Flipped, Skewed, std::string()}) {
    Rewrite(Poison);
    SolutionCache Reader(Dir); // fresh counters for each poison
    EXPECT_EQ(Reader.lookup(keyOf(9, 9), Out), SolutionCache::Outcome::Corrupt);
    EXPECT_EQ(Reader.corruptEntries(), 1u);
    EXPECT_EQ(Reader.misses(), 1u);
    EXPECT_EQ(Reader.hits(), 0u);
  }
  fs::remove_all(Dir);
}

TEST(CacheTierTest, MetricsExportCounters) {
  std::string Dir = scratchDir("metrics");
  SolutionCache Cache(Dir);
  CachedAnalysis E = sampleEntry(), Out;
  Cache.lookup(keyOf(1, 1), Out);
  Cache.store(keyOf(1, 1), E);
  Cache.lookup(keyOf(1, 1), Out);

  support::MetricsRegistry Metrics;
  Cache.recordMetrics(Metrics);
  std::ostringstream Text;
  Metrics.writePrometheus(Text);
  EXPECT_NE(Text.str().find("gator_cache_hits_total 1"), std::string::npos)
      << Text.str();
  EXPECT_NE(Text.str().find("gator_cache_misses_total 1"), std::string::npos);
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

TEST(CacheKeyTest, AppDirHashTracksContent) {
  std::string Base = std::string(GATOR_SOURCE_DIR) +
                     "/tests/fixtures/incremental_base";
  std::string Edit = std::string(GATOR_SOURCE_DIR) +
                     "/tests/fixtures/incremental_edit";
  support::Hash128 A = hashAppDir(Base);
  support::Hash128 B = hashAppDir(Base);
  support::Hash128 C = hashAppDir(Edit);
  EXPECT_EQ(A.hex(), B.hex());
  EXPECT_NE(A.hex(), C.hex());
}

TEST(CacheKeyTest, AppDirHashIsPinned) {
  // The "gator-app-dir" v2 key: FNV framing of each relative path and
  // length plus two XXH64 lanes of its bytes, in the loader's parse order
  // (docs/INCREMENTAL.md, "The key recipe"). A change orphans every
  // --cache-dir entry and every ledger content_key, so it must be
  // deliberate: bump the tag and LedgerHeader::FormatVersion with it.
  EXPECT_EQ(hashAppDir(std::string(GATOR_SOURCE_DIR) +
                       "/tests/fixtures/incremental_base")
                .hex(),
            "61f6e7fe7221e8c135cf70a510c3db21");
}

TEST(CacheKeyTest, AppDirHashKeysTheLoadedBytes) {
  const std::string Base =
      std::string(GATOR_SOURCE_DIR) + "/tests/fixtures/incremental_base";
  support::AppInputs In = support::loadAppDir(Base);
  ASSERT_TRUE(In.complete());
  ASSERT_FALSE(In.Files.empty());
  EXPECT_EQ(hashAppDir(In).hex(), hashAppDir(Base).hex());

  // An unreadable file keys neither like the readable app nor like the
  // same file empty.
  support::AppFile &Last = In.Files.back();
  Last.Bytes.clear();
  const std::string Empty = hashAppDir(In).hex();
  Last.ReadOk = false;
  const std::string Unreadable = hashAppDir(In).hex();
  EXPECT_NE(Empty, Unreadable);
  EXPECT_NE(Unreadable, hashAppDir(Base).hex());
}

TEST(CacheKeyTest, OptionsHashTracksSemanticKnobsOnly) {
  AnalysisOptions Base;
  support::Hash128 H0 = hashAnalysisOptions(Base);

  AnalysisOptions Semantic = Base;
  Semantic.TrackViewIds = false;
  EXPECT_NE(H0.hex(), hashAnalysisOptions(Semantic).hex());

  AnalysisOptions Budgeted = Base;
  Budgeted.Budget.MaxWorkItems = 1000;
  EXPECT_NE(H0.hex(), hashAnalysisOptions(Budgeted).hex());
}

TEST(CacheKeyTest, DefaultOptionsDigestIsPinned) {
  // The default-options digest keys every --cache-dir entry and is the
  // ledger header's options_digest; a change would orphan existing caches
  // and make old ledgers refuse to diff against new ones.
  EXPECT_EQ(hashAnalysisOptions(AnalysisOptions{}).hex(),
            "26c1b19726646a81e063df153ba3bb86");
}

TEST(CacheKeyTest, EligibilityExcludesTimingDependentRuns) {
  AnalysisOptions Base;
  EXPECT_TRUE(cacheEligible(Base));

  AnalysisOptions Wall = Base;
  Wall.Budget.MaxWallSeconds = 5.0;
  EXPECT_FALSE(cacheEligible(Wall));

  AnalysisOptions Deadline = Base;
  Deadline.Budget.SharedDeadline = std::chrono::steady_clock::now();
  EXPECT_FALSE(cacheEligible(Deadline));

  // A deadline past the steady clock's range is no deadline
  // (makeSharedDeadline), so the run is as reproducible as one without it.
  AnalysisOptions FarWall = Base;
  FarWall.Budget.MaxWallSeconds = 1e300;
  EXPECT_TRUE(cacheEligible(FarWall));

  // Deterministic work budgets stay eligible: they are part of the key.
  AnalysisOptions Work = Base;
  Work.Budget.MaxWorkItems = 10;
  EXPECT_TRUE(cacheEligible(Work));
}

//===----------------------------------------------------------------------===//
// makeFleet hostile-knob independence (regression for the hoisted draws)
//===----------------------------------------------------------------------===//

TEST(FleetHostileTest, HostileKnobsNeverPerturbShapeOrEachOther) {
  corpus::FleetSpec Clean;
  Clean.Apps = 200;
  Clean.Seed = 11;

  corpus::FleetSpec DynamicOnly = Clean;
  DynamicOnly.DynamicIdPercent = 50;

  corpus::FleetSpec AllHostile = Clean;
  AllHostile.ReflectivePercent = 50;
  AllHostile.DynamicIdPercent = 50;
  AllHostile.MissingLayoutPercent = 50;

  auto CleanSpecs = corpus::makeFleet(Clean);
  auto DynSpecs = corpus::makeFleet(DynamicOnly);
  auto AllSpecs = corpus::makeFleet(AllHostile);
  ASSERT_EQ(CleanSpecs.size(), DynSpecs.size());
  ASSERT_EQ(CleanSpecs.size(), AllSpecs.size());

  size_t DynApps = 0;
  for (size_t I = 0; I < CleanSpecs.size(); ++I) {
    // Shape fields are identical across all three fleets: hostile rates
    // draw from their own stream.
    auto Shape = [](corpus::AppSpec S) {
      S.ReflectiveViewsPerActivity = 0;
      S.DynamicFindsPerActivity = 0;
      S.MissingLayoutRefsPerActivity = 0;
      return S;
    };
    EXPECT_TRUE(Shape(CleanSpecs[I]) == Shape(DynSpecs[I])) << I;
    EXPECT_TRUE(Shape(CleanSpecs[I]) == Shape(AllSpecs[I])) << I;

    // A clean fleet draws no hostile shapes at all.
    EXPECT_EQ(CleanSpecs[I].ReflectiveViewsPerActivity, 0u);
    EXPECT_EQ(CleanSpecs[I].DynamicFindsPerActivity, 0u);
    EXPECT_EQ(CleanSpecs[I].MissingLayoutRefsPerActivity, 0u);

    // Enabling the other hostile rates must not re-roll the dynamic-id
    // draw: the same apps carry the same dynamic-find counts.
    EXPECT_EQ(DynSpecs[I].DynamicFindsPerActivity,
              AllSpecs[I].DynamicFindsPerActivity)
        << I;
    EXPECT_EQ(DynSpecs[I].ReflectiveViewsPerActivity, 0u);
    EXPECT_EQ(DynSpecs[I].MissingLayoutRefsPerActivity, 0u);
    DynApps += DynSpecs[I].DynamicFindsPerActivity > 0;
  }
  // ~50% of 200 apps should have drawn the shape; allow generous slack.
  EXPECT_GT(DynApps, 60u);
  EXPECT_LT(DynApps, 140u);
}

} // namespace
