//===- Workloads.cpp - The four seeded benchmark workloads ----------------===//

#include "Workloads.h"

#include "Pipeline.h"
#include "Process.h"

#include "analysis/AppStats.h"
#include "analysis/Incremental.h"
#include "analysis/SolutionCache.h"
#include "corpus/Corpus.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>

using namespace gator;
namespace fs = std::filesystem;

namespace gatorbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Times one operation that may pause for untimed checks. In the traced
/// run the paused time and allocations are kept out of every open span.
class OpClock {
public:
  explicit OpClock(Tracer *T) : T(T), Start(Clock::now()) {}
  void pause() {
    PauseStart = Clock::now();
    PauseAllocs = allocCounts();
  }
  void resume() {
    const Clock::duration Gap = Clock::now() - PauseStart;
    Paused += Gap;
    if (T) {
      const AllocCounts A = allocCounts();
      T->exclude(static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(Gap)
                         .count()),
                 {A.Allocs - PauseAllocs.Allocs, A.Bytes - PauseAllocs.Bytes});
    }
  }
  double ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - Start -
                                                     Paused)
        .count();
  }

private:
  Tracer *T;
  Clock::time_point Start;
  Clock::time_point PauseStart;
  Clock::duration Paused{};
  AllocCounts PauseAllocs;
};

void fail(RunResult &R, std::string Why) {
  ++R.FailedOps;
  R.Failures.push_back(std::move(Why));
}

void failSetup(RunResult &R, std::string Why) {
  R.SetupFailed = true;
  R.Failures.push_back("setup: " + std::move(Why));
}

std::vector<size_t> shuffled(size_t N, std::mt19937_64 &Rng) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t{0});
  // Fisher-Yates on the raw engine, so the order is the same with every
  // standard library.
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng() % I]);
  return Order;
}

//===----------------------------------------------------------------------===//
// The paper corpus on disk
//===----------------------------------------------------------------------===//

struct CorpusApp {
  std::string Name;
  std::string Dir;
  std::string Expected; ///< gator_cli's stdout under --no-times
  double Receivers = 0;
  uint64_t Bytes = 0;
};

bool exportCorpus(const RunConfig &Cfg, const fs::path &Root) {
  std::error_code EC;
  fs::remove_all(Root, EC);
  return runChild({Cfg.Exporter, Root.string()}).ExitCode == 0;
}

/// Analyzes every exported app in process and checks it against the
/// generator's ground truth and both oracles. The rendered output becomes
/// the reference every later gator_cli run of the app must reproduce.
std::vector<CorpusApp> validateCorpus(const fs::path &Root, RunResult &R) {
  std::vector<CorpusApp> Apps;
  for (const corpus::AppSpec &Spec : corpus::paperCorpus()) {
    CorpusApp A;
    A.Name = Spec.Name;
    A.Dir = (Root / Spec.Name).string();
    const corpus::GeneratedApp Truth = corpus::generateApp(Spec);
    LoadedApp L;
    std::vector<std::string> Failures;
    if (!loadAppDir(A.Dir, L, nullptr) || !L.Finalized) {
      Failures.push_back(A.Name + ": the exported app does not load");
    } else {
      auto Result = analyzeBundle(*L.Bundle, {}, nullptr);
      checkGroundTruth(Truth, *L.Bundle, *Result, false, Failures);
      checkOracles(*L.Bundle, *Result, Failures);
      const auto M = Result->metrics();
      const bool HadInputErrors = !L.Ok || L.Bundle->Diags.hasErrors();
      if (renderDefaultOutput(*L.Bundle, *Result,
                              L.Manifest ? &*L.Manifest : nullptr,
                              HadInputErrors, M, A.Expected) != 0)
        Failures.push_back(A.Name + ": a clean corpus app exits nonzero");
      A.Receivers = M.AvgReceivers;
      A.Bytes = L.InputBytes;
    }
    for (std::string &F : Failures)
      failSetup(R, std::move(F));
    Apps.push_back(std::move(A));
  }
  return Apps;
}

/// Checks one gator_cli run against the app's validated reference.
void checkCliRun(const ChildRun &C, const CorpusApp &A, RunResult &R) {
  if (C.ExitCode != 0)
    fail(R, A.Name + ": gator_cli exited " + std::to_string(C.ExitCode));
  else if (C.Out != A.Expected)
    fail(R, A.Name + ": gator_cli output differs from the reference");
}

void recordChild(const ChildRun &C, RunResult &R) {
  R.PeakRssMb = std::max(R.PeakRssMb, C.MaxRssMb);
  ++R.ChildRuns;
  R.ChildMinorFaults += static_cast<uint64_t>(C.MinorFaults);
  R.ChildWallMs += C.WallMs;
}

/// Start-up cost of one gator_cli process: the median `--help` run.
double measureStartupMs(const RunConfig &Cfg) {
  std::vector<double> Ms;
  for (int I = 0; I < 21; ++I)
    Ms.push_back(runChild({Cfg.Cli, "--help"}).WallMs);
  std::nth_element(Ms.begin(), Ms.begin() + Ms.size() / 2, Ms.end());
  return Ms[Ms.size() / 2];
}

/// Rounds over the corpus per pass of corpus-cold: enough ops that a
/// pass's percentiles do not hang on one or two runs.
constexpr unsigned RoundsPerPass = 2;

void runCorpusCold(const RunConfig &Cfg, Tracer *T, RunResult &R) {
  // Set-up is the export of the corpus (generate, print, write), done
  // five times; the last copy is the one measured.
  fs::path Root;
  for (int I = 0; I < 5; ++I) {
    std::error_code EC;
    if (!Root.empty())
      fs::remove_all(Root, EC);
    Root = fs::path(Cfg.WorkDir) / ("cold-" + std::to_string(I));
    const Clock::time_point T0 = Clock::now();
    if (!exportCorpus(Cfg, Root))
      failSetup(R, "export_corpus failed");
    R.SetupSeconds.push_back(secondsSince(T0));
  }
  std::vector<CorpusApp> Apps = validateCorpus(Root, R);
  for (const CorpusApp &A : Apps) {
    const ChildRun C = runChild({Cfg.Cli, A.Dir, "--no-times"});
    if (C.ExitCode != 0 || C.Out != A.Expected)
      failSetup(R, A.Name + ": gator_cli disagrees with the in-process run");
  }
  if (T)
    R.StartupMs = measureStartupMs(Cfg);

  std::mt19937_64 Rng(Cfg.Seed);
  const Clock::time_point Start = Clock::now();
  for (unsigned Round = 0;
       Round % RoundsPerPass || secondsSince(Start) < Cfg.Seconds; ++Round) {
    for (size_t I : shuffled(Apps.size(), Rng)) {
      const CorpusApp &A = Apps[I];
      ++R.Attempted;
      const ChildRun C = runChild({Cfg.Cli, A.Dir, "--no-times"});
      checkCliRun(C, A, R);
      recordChild(C, R);
      R.InputBytes += A.Bytes;
      R.ReceiversSum += A.Receivers;
      ++R.ReceiversCount;
      if (!T) {
        R.OpMs.push_back(C.WallMs);
        continue;
      }
      DirRun D;
      {
        Span Op(T, Layer::Op);
        OpClock OC(T);
        D = runAppDir(A.Dir, T);
        R.OpMs.push_back(OC.ms());
      }
      if (D.ExitCode != 0 || D.Out != A.Expected)
        fail(R, A.Name + ": in-process run differs from the reference");
    }
    if ((Round + 1) % RoundsPerPass == 0)
      R.endPass();
  }
}

//===----------------------------------------------------------------------===//
// The corpus through a warm solution cache
//===----------------------------------------------------------------------===//

size_t cacheEntries(const fs::path &Dir) {
  size_t N = 0;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".gsc")
      ++N;
  return N;
}

/// gator_cli --cache-dir in process: key, lookup, and on a miss the cold
/// pipeline plus a store, each under its span.
DirRun runCachedInProcess(const std::string &Dir, const std::string &CacheDir,
                          Tracer *T) {
  DirRun D;
  support::Hash128 Key;
  {
    Span S(T, Layer::CacheKey);
    Key = analysis::cacheKeyFor(Dir, analysis::AnalysisOptions());
  }
  analysis::CachedAnalysis Entry;
  analysis::SolutionCache::Outcome Found;
  std::unique_ptr<analysis::SolutionCache> Cache;
  {
    Span S(T, Layer::CacheLookup);
    Cache = std::make_unique<analysis::SolutionCache>(CacheDir);
    Found = Cache->lookup(Key, Entry);
  }
  if (T)
    T->add(Counter::CacheLookups, 1);
  if (Found == analysis::SolutionCache::Outcome::Hit) {
    if (T)
      T->add(Counter::CacheHits, 1);
    D.ExitCode = Entry.ExitCode;
    D.Out = std::move(Entry.OutText);
    return D;
  }
  analysis::CachedAnalysis Fresh;
  D = runAppDir(Dir, T, &Fresh);
  Fresh.ExitCode = D.ExitCode;
  Fresh.OutText = D.Out;
  if (!Fresh.FlowHistCounts.empty()) {
    Span S(T, Layer::CacheStore);
    Cache->store(Key, Fresh);
  }
  if (T) {
    T->add(Counter::CacheStores, 1);
    std::error_code EC;
    const uintmax_t Size =
        fs::file_size(fs::path(CacheDir) / (Key.hex() + ".gsc"), EC);
    T->add(Counter::CacheStoreBytes, EC ? 0 : Size);
  }
  return D;
}

void runCorpusWarm(const RunConfig &Cfg, Tracer *T, RunResult &R) {
  // Set-up: export the corpus and fill the cache with one cold
  // `gator_cli --cache-dir` run per app; three times, keeping the last.
  fs::path Root, CacheDir;
  std::vector<ChildRun> Prefill;
  for (int I = 0; I < 3; ++I) {
    std::error_code EC;
    if (!Root.empty()) {
      fs::remove_all(Root, EC);
      fs::remove_all(CacheDir, EC);
    }
    Root = fs::path(Cfg.WorkDir) / ("warm-" + std::to_string(I));
    CacheDir = fs::path(Cfg.WorkDir) / ("warm-cache-" + std::to_string(I));
    fs::remove_all(CacheDir, EC);
    Prefill.clear();
    const Clock::time_point T0 = Clock::now();
    if (!exportCorpus(Cfg, Root))
      failSetup(R, "export_corpus failed");
    for (const corpus::AppSpec &Spec : corpus::paperCorpus())
      Prefill.push_back(runChild({Cfg.Cli, (Root / Spec.Name).string(),
                                  "--no-times", "--cache-dir",
                                  CacheDir.string()}));
    R.SetupSeconds.push_back(secondsSince(T0));
  }
  std::vector<CorpusApp> Apps = validateCorpus(Root, R);
  for (size_t I = 0; I < Apps.size(); ++I)
    if (Prefill[I].ExitCode != 0 || Prefill[I].Out != Apps[I].Expected)
      failSetup(R, Apps[I].Name + ": the cold cached run differs from the "
                                  "in-process run");
  size_t Entries = cacheEntries(CacheDir);
  if (Entries != Apps.size())
    failSetup(R, "the prefill stored " + std::to_string(Entries) +
                     " cache entries");

  const std::string InProcCache = (fs::path(Cfg.WorkDir) / "warm-inproc-cache").string();
  if (T) {
    std::error_code EC;
    fs::remove_all(InProcCache, EC);
    for (const CorpusApp &A : Apps)
      runCachedInProcess(A.Dir, InProcCache, nullptr);
    R.StartupMs = measureStartupMs(Cfg);
  }

  std::mt19937_64 Rng(Cfg.Seed);
  // The edited app walks a seeded permutation of the corpus, so every app
  // is edited once per 20 rounds and the cost of the misses is the same
  // for every seed.
  const std::vector<size_t> EditOrder = shuffled(Apps.size(), Rng);
  const Clock::time_point Start = Clock::now();
  for (unsigned Round = 0;
       Round % Apps.size() || secondsSince(Start) < Cfg.Seconds; ++Round) {
    // A one-file edit: a comment changes the content key but not the
    // output, so the edited app's run misses, re-analyzes and stores.
    CorpusApp &Edited = Apps[EditOrder[Round % EditOrder.size()]];
    {
      const std::string Line = "// edit " + std::to_string(Round) + "\n";
      std::ofstream OS(fs::path(Edited.Dir) / "app.alite", std::ios::app);
      OS << Line;
      Edited.Bytes += Line.size();
    }
    for (size_t I : shuffled(Apps.size(), Rng)) {
      const CorpusApp &A = Apps[I];
      ++R.Attempted;
      const ChildRun C = runChild({Cfg.Cli, A.Dir, "--no-times",
                                   "--cache-dir", CacheDir.string()});
      checkCliRun(C, A, R);
      recordChild(C, R);
      R.InputBytes += A.Bytes;
      R.ReceiversSum += A.Receivers;
      ++R.ReceiversCount;
      if (!T) {
        R.OpMs.push_back(C.WallMs);
        continue;
      }
      DirRun D;
      {
        Span Op(T, Layer::Op);
        OpClock OC(T);
        D = runCachedInProcess(A.Dir, InProcCache, T);
        R.OpMs.push_back(OC.ms());
      }
      if (D.ExitCode != 0 || D.Out != A.Expected)
        fail(R, A.Name + ": in-process cached run differs from the reference");
    }
    // A pass is one cycle of the edit order: every app missed once.
    if ((Round + 1) % Apps.size() == 0)
      R.endPass();
    ++Entries;
    if (cacheEntries(CacheDir) != Entries)
      fail(R, "round " + std::to_string(Round) + ": the edited app " +
                  Edited.Name + " did not store exactly one entry");
  }
}

//===----------------------------------------------------------------------===//
// The generated fleet, in memory
//===----------------------------------------------------------------------===//

bool isHostile(const corpus::AppSpec &Spec) {
  return Spec.ReflectiveViewsPerActivity || Spec.DynamicFindsPerActivity ||
         Spec.MissingLayoutRefsPerActivity;
}

/// The manifest export_corpus writes: every activity, Activity0 launches.
android::Manifest fleetManifest(const corpus::AppSpec &Spec) {
  android::Manifest M;
  M.Package = "corpus." + Spec.Name;
  for (unsigned I = 0; I < Spec.Activities; ++I)
    M.Activities.push_back({Spec.Name + "Activity" + std::to_string(I), I == 0});
  return M;
}

/// Apps per block of the fleet: the pass unit of fleet-solve.
constexpr size_t Block = 200;

/// Orders a generated fleet into blocks of exactly 60 deep, 60 wide, 60
/// aliased and 20 baseline apps (30/30/30/10%), shuffled inside each
/// block, so every block carries the same mix whatever the seed. The
/// shape is read back from the knobs makeFleet drew for it.
std::vector<corpus::AppSpec> stratify(const std::vector<corpus::AppSpec> &Fleet,
                                      std::mt19937_64 &Rng) {
  constexpr size_t Quota[] = {60, 60, 60, 20};
  std::vector<const corpus::AppSpec *> ByShape[4];
  for (const corpus::AppSpec &S : Fleet) {
    const size_t Shape = S.ViewsPerLayout >= 24        ? 0
                         : S.ListenersPerActivity >= 4 ? 1
                         : S.SharedHelperUsers > 0     ? 2
                                                       : 3;
    ByShape[Shape].push_back(&S);
  }
  std::vector<corpus::AppSpec> Ordered;
  for (size_t B = 0;; ++B) {
    std::vector<const corpus::AppSpec *> Apps;
    for (size_t K = 0; K < 4; ++K) {
      if (ByShape[K].size() < (B + 1) * Quota[K])
        return Ordered;
      Apps.insert(Apps.end(), ByShape[K].begin() + B * Quota[K],
                  ByShape[K].begin() + (B + 1) * Quota[K]);
    }
    for (size_t I : shuffled(Apps.size(), Rng))
      Ordered.push_back(*Apps[I]);
  }
}

void runFleetSolve(const RunConfig &Cfg, Tracer *T, RunResult &R) {
  corpus::FleetSpec F;
  F.Apps = 20000;
  F.Seed = Cfg.Seed;
  F.DeepTreePercent = 30;
  F.WideListenerPercent = 30;
  F.SharedHelperPercent = 30;
  F.ReflectivePercent = 5;
  F.DynamicIdPercent = 5;
  F.MissingLayoutPercent = 5;
  std::mt19937_64 Rng(Cfg.Seed);
  const std::vector<corpus::AppSpec> Specs =
      stratify(corpus::makeFleet(F), Rng);

  // Each app is generated just before its operation; set-up time is the
  // generation time of one block.
  double BlockSetup = 0;
  const analysis::AnalysisOptions Options;
  const Clock::time_point Start = Clock::now();
  for (size_t I = 0;; ++I) {
    const corpus::AppSpec &Spec = Specs[I % Specs.size()];
    const bool Hostile = isHostile(Spec);
    const Clock::time_point G0 = Clock::now();
    corpus::GeneratedApp Gen;
    {
      Span S(T, Layer::Generate);
      Gen = corpus::generateApp(Spec);
    }
    BlockSetup += secondsSince(G0);
    const android::Manifest Manifest = fleetManifest(Spec);

    ++R.Attempted;
    {
      Span Op(T, Layer::Op);
      OpClock OC(T);
      std::unique_ptr<analysis::AnalysisResult> Result =
          analyzeBundle(*Gen.Bundle, Options, T);
      int Code = 2;
      analysis::Solution::PrecisionMetrics M;
      std::string Text;
      if (Result) {
        {
          Span S(T, Layer::Stats);
          const analysis::AppStats Stats =
              analysis::collectAppStats(Spec.Name, Gen.Bundle->Program, *Result);
          M = Result->metrics();
        }
        Span S(T, Layer::Clients);
        Code = renderDefaultOutput(*Gen.Bundle, *Result, &Manifest, false, M,
                                   Text);
      }
      OC.pause();
      std::vector<std::string> Failures;
      if (Code != (Hostile ? 1 : 0))
        Failures.push_back(Spec.Name + ": exit code " + std::to_string(Code) +
                           (Hostile ? " for a hostile app" : " for a clean app"));
      if (Result) {
        checkGroundTruth(Gen, *Gen.Bundle, *Result, Hostile, Failures);
        checkOracles(*Gen.Bundle, *Result, Failures);
      }
      R.ReceiversSum += M.AvgReceivers;
      ++R.ReceiversCount;
      R.InputBytes += sourceBytes(Gen);
      if (!Failures.empty())
        fail(R, Failures.front());
      OC.resume();
      {
        Span S(T, Layer::Teardown);
        Result.reset();
      }
      R.OpMs.push_back(OC.ms());
    }
    if ((I + 1) % Block == 0) {
      R.SetupSeconds.push_back(BlockSetup);
      R.endPass();
      BlockSetup = 0;
      if (secondsSince(Start) >= Cfg.Seconds)
        break;
    }
  }
  R.PeakRssMb = selfPeakRssMb();
}

//===----------------------------------------------------------------------===//
// Edits re-solved by an incremental session
//===----------------------------------------------------------------------===//

/// Measured edits per app and session (a multiple of the three kinds).
constexpr unsigned EditsPerApp = 6;
/// Length of the known-divergent sequence replayed per app.
constexpr unsigned ProbeSteps = 24;

enum class EditKind { Graft, Reverse, NewId, ActivityGraft };

/// One single-unit edit. Graft: method Dst of filler class Unit gets the
/// body of its same-signature sibling Src. Reverse and NewId: layout
/// main_<Unit>. ActivityGraft: activity Unit's onCreate gets activity
/// Unit+1's body.
struct Edit {
  EditKind Kind;
  unsigned Unit = 0, Dst = 0, Src = 0;
};

std::string describe(const Edit &E) {
  switch (E.Kind) {
  case EditKind::Graft:
    return "graft Data" + std::to_string(E.Unit) + ".m" +
           std::to_string(E.Dst) + " <- m" + std::to_string(E.Src);
  case EditKind::Reverse:
    return "reverse main_" + std::to_string(E.Unit);
  case EditKind::NewId:
    return "new id in main_" + std::to_string(E.Unit);
  case EditKind::ActivityGraft:
    return "graft Activity" + std::to_string(E.Unit) + ".onCreate <- Activity" +
           std::to_string(E.Unit + 1);
  }
  return "?";
}

/// One session's measured edits: equal numbers of same-signature grafts
/// between two methods of one filler class, child reorders of a main
/// layout, and new view ids inserted into one, in a seeded order with
/// seeded targets. Fixed quotas keep the mix, and so the op-time
/// distribution, the same for every seed.
std::vector<Edit> pickEdits(const corpus::AppSpec &Spec,
                            std::mt19937_64 &Rng) {
  const bool CanGraft =
      Spec.FillerClasses > 0 && Spec.MethodsPerFillerClass >= 2;
  std::vector<Edit> Edits;
  for (unsigned I = 0; I < EditsPerApp; ++I) {
    Edit E;
    E.Kind = static_cast<EditKind>(I % 3);
    if (E.Kind == EditKind::Graft && !CanGraft)
      E.Kind = EditKind::Reverse;
    if (E.Kind == EditKind::Graft) {
      E.Unit = static_cast<unsigned>(Rng() % Spec.FillerClasses);
      E.Dst = static_cast<unsigned>(Rng() % Spec.MethodsPerFillerClass);
      E.Src = static_cast<unsigned>(Rng() % (Spec.MethodsPerFillerClass - 1));
      if (E.Src >= E.Dst)
        ++E.Src;
    } else {
      E.Unit = static_cast<unsigned>(Rng() % Spec.Activities);
    }
    Edits.push_back(E);
  }
  std::vector<Edit> Order;
  for (size_t I : shuffled(Edits.size(), Rng))
    Order.push_back(Edits[I]);
  return Order;
}

/// Step \p Step of the known-divergent sequence: graft activity k+1's
/// onCreate onto activity k, then reverse the children of layout k, with
/// k advancing after each pair.
Edit knownDivergentEdit(const corpus::AppSpec &Spec, unsigned Step) {
  const unsigned Span = Spec.Activities > 1 ? Spec.Activities - 1 : 1;
  Edit E;
  E.Kind = Step % 2 == 0 ? EditKind::ActivityGraft : EditKind::Reverse;
  E.Unit = (Step / 2) % Span;
  return E;
}

/// An edit made ready for the session: either a grafted method (the
/// program is already edited) or the edited tree of one layout.
struct PreparedEdit {
  ir::MethodDecl *Method = nullptr;
  std::string LayoutName;
  std::unique_ptr<layout::LayoutNode> Root;
};

ir::MethodDecl *methodOf(ir::Program &P, const std::string &ClassName,
                         const std::string &Name, unsigned Arity) {
  ir::ClassDecl *C = P.findClass(ClassName);
  return C ? C->findOwnMethod(Name, Arity) : nullptr;
}

bool prepareEdit(corpus::AppBundle &B, const corpus::AppSpec &Spec,
                 const Edit &E, unsigned Step, PreparedEdit &Out) {
  if (E.Kind == EditKind::Graft || E.Kind == EditKind::ActivityGraft) {
    ir::MethodDecl *Dst, *Src;
    if (E.Kind == EditKind::Graft) {
      const std::string Class = Spec.Name + "Data" + std::to_string(E.Unit);
      Dst = methodOf(B.Program, Class, "m" + std::to_string(E.Dst), 1);
      Src = methodOf(B.Program, Class, "m" + std::to_string(E.Src), 1);
    } else {
      Dst = methodOf(B.Program, Spec.Name + "Activity" + std::to_string(E.Unit),
                     "onCreate", 0);
      Src = methodOf(B.Program,
                     Spec.Name + "Activity" + std::to_string(E.Unit + 1),
                     "onCreate", 0);
    }
    if (!Dst || !Src || !analysis::graftMethodBody(*Dst, *Src))
      return false;
    Out.Method = Dst;
    return true;
  }
  Out.LayoutName = "main_" + std::to_string(E.Unit);
  const layout::LayoutDef *Def = B.Layouts->findByName(Out.LayoutName);
  if (!Def || !Def->root())
    return false;
  Out.Root = Def->root()->clone();
  if (E.Kind == EditKind::Reverse) {
    auto Children = Out.Root->takeChildren();
    std::reverse(Children.begin(), Children.end());
    for (auto &C : Children)
      Out.Root->addChild(std::move(C));
  } else {
    Out.Root->addChild(std::make_unique<layout::LayoutNode>(
        "TextView", "bench_new_" + std::to_string(Step)));
  }
  return true;
}

bool resolveEdit(analysis::IncrementalAnalysis &Inc, PreparedEdit &P) {
  return P.Method ? Inc.reanalyzeMethod(*P.Method)
                  : Inc.reanalyzeLayout(P.LayoutName, std::move(P.Root));
}

/// One app's long-lived session.
struct Session {
  corpus::GeneratedApp Gen;
  std::unique_ptr<analysis::IncrementalAnalysis> Inc;

  Session(const corpus::AppSpec &Spec, Tracer *T) {
    {
      Span S(T, Layer::Generate);
      Gen = corpus::generateApp(Spec);
    }
    corpus::AppBundle &B = *Gen.Bundle;
    Inc = std::make_unique<analysis::IncrementalAnalysis>(
        B.Program, *B.Layouts, B.Android, analysis::AnalysisOptions(), B.Diags);
    Inc->solveInitial();
  }

  /// A from-scratch solve of the edited program, for the check.
  std::unique_ptr<analysis::AnalysisResult> scratch() {
    corpus::AppBundle &B = *Gen.Bundle;
    return analysis::GuiAnalysis::run(B.Program, *B.Layouts, B.Android,
                                      analysis::AnalysisOptions(), B.Diags);
  }
};

bool sameFixedPoint(const analysis::IncrementalAnalysis &Inc,
                    const analysis::AnalysisResult &Scratch) {
  return analysis::solutionDigest(Inc.solution()) ==
         analysis::solutionDigest(*Scratch.Sol);
}

/// Replays the known-divergent sequence on every corpus app and names the
/// first step at which the incremental digest leaves the scratch digest.
/// The sequence does not depend on the seed. Returns the apps affected.
unsigned probeKnownDivergence(RunResult &R) {
  unsigned Diverged = 0;
  for (const corpus::AppSpec &Spec : corpus::paperCorpus()) {
    Session S(Spec, nullptr);
    for (unsigned Step = 0; Step < ProbeSteps; ++Step) {
      const Edit E = knownDivergentEdit(Spec, Step);
      PreparedEdit P;
      if (!prepareEdit(*S.Gen.Bundle, Spec, E, Step, P) ||
          !resolveEdit(*S.Inc, P))
        break;
      if (!sameFixedPoint(*S.Inc, *S.scratch())) {
        R.Notes.push_back("known divergence: " + Spec.Name + " step " +
                          std::to_string(Step + 1) + " (" + describe(E) + ")");
        ++Diverged;
        break;
      }
    }
  }
  return Diverged;
}

void runEditLoop(const RunConfig &Cfg, Tracer *T, RunResult &R) {
  const std::vector<corpus::AppSpec> &Specs = corpus::paperCorpus();
  std::vector<uint64_t> Bytes(Specs.size(), 0);
  std::mt19937_64 Rng(Cfg.Seed);
  const Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < Cfg.Seconds) {
    // Set-up, once per pass: generate each app and solve it initially.
    double PassSetup = 0;
    for (size_t App : shuffled(Specs.size(), Rng)) {
      const corpus::AppSpec &Spec = Specs[App];
      const Clock::time_point S0 = Clock::now();
      auto S = std::make_unique<Session>(Spec, T);
      PassSetup += secondsSince(S0);
      if (!Bytes[App])
        Bytes[App] = sourceBytes(S->Gen);

      const std::vector<Edit> Edits = pickEdits(Spec, Rng);
      for (unsigned Step = 0; Step < Edits.size(); ++Step) {
        const Edit &E = Edits[Step];
        const std::string Where = Spec.Name + " seed " +
                                  std::to_string(Cfg.Seed) + " step " +
                                  std::to_string(Step + 1) + " (" +
                                  describe(E) + ")";
        PreparedEdit P;
        if (!prepareEdit(*S->Gen.Bundle, Spec, E, Step, P)) {
          failSetup(R, Where + ": the edit does not apply");
          break;
        }
        ++R.Attempted;
        bool Applied = false;
        {
          Span Op(T, Layer::Op);
          OpClock OC(T);
          {
            Span In(T, Layer::Incremental);
            Applied = resolveEdit(*S->Inc, P);
          }
          R.OpMs.push_back(OC.ms());
        }
        R.InputBytes += Bytes[App];
        if (!Applied) {
          fail(R, Where + ": the session refused the edit");
          break;
        }
        // The check: a from-scratch solve of the edited program reaches
        // the same fixed point.
        auto Scratch = S->scratch();
        R.ReceiversSum += Scratch->metrics().AvgReceivers;
        ++R.ReceiversCount;
        if (T) {
          T->add(Counter::FactsRetracted, S->Inc->lastFactsRetracted());
          T->add(Counter::TouchedNodes, S->Inc->lastTouchedNodes());
          T->add(Counter::EditPropagations, S->Inc->lastStats().Propagations);
          T->add(Counter::ScratchPropagations, Scratch->Stats.Propagations);
        }
        if (!sameFixedPoint(*S->Inc, *Scratch)) {
          // Later edits of a session off the fixed point would only repeat
          // the failure.
          fail(R, Where + ": incremental digest differs from scratch");
          break;
        }
      }
      Span TD(T, Layer::Teardown);
      S.reset();
    }
    R.SetupSeconds.push_back(PassSetup);
    R.endPass();
  }
  R.PeakRssMb = selfPeakRssMb();
  if (T)
    T->add(Counter::KnownDivergences, probeKnownDivergence(R));
}

} // namespace

bool runWorkload(const RunConfig &Cfg, Tracer *T, RunResult &R) {
  if (Cfg.Workload == "corpus-cold")
    runCorpusCold(Cfg, T, R);
  else if (Cfg.Workload == "fleet-solve")
    runFleetSolve(Cfg, T, R);
  else if (Cfg.Workload == "edit-loop")
    runEditLoop(Cfg, T, R);
  else if (Cfg.Workload == "corpus-warm")
    runCorpusWarm(Cfg, T, R);
  else
    return false;
  return true;
}

} // namespace gatorbench
