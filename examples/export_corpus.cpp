//===- export_corpus.cpp - Write the 20-app corpus to disk ------*- C++ -*-===//
//
// Serializes every corpus application to ALite text plus layout XML under
// an output directory, one subdirectory per app:
//
//   export_corpus [-j <n>] <outdir>
//   gator_cli <outdir>/XBMC --solution    # analyze any exported app
//
// `-j N` exports apps on N worker threads (0 = hardware concurrency);
// apps write into disjoint subdirectories and per-app console text is
// merged in corpus order, so the output is identical for every -j.
//
// Exercises both serialization directions of the frontend (the printer
// round-trips with the parser; the layout writer with the layout reader).
//
// Apps are exported in crash isolation: a failure in one app (generation
// diagnostics, I/O, or an escaped exception) is reported and the remaining
// apps still export. Exit codes follow the gator_cli contract — 0 clean,
// 1 diagnostics/I/O failures, 2 internal errors — taking the maximum over
// all apps.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cctype>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace gator;
namespace fs = std::filesystem;

namespace {

/// Parses a non-negative number; false on garbage.
bool parseCount(const std::string &Text, unsigned long &Out) {
  if (Text.empty() ||
      !std::all_of(Text.begin(), Text.end(),
                   [](unsigned char C) { return std::isdigit(C); }))
    return false;
  try {
    Out = std::stoul(Text);
  } catch (const std::exception &) {
    return false;
  }
  return true;
}

/// Exports one corpus app; returns 0/1 per the exit-code contract.
/// \p Log and \p Err buffer the task's stdout/stderr text; the driver
/// merges them in corpus order so output is identical for every -j.
int exportOneApp(const corpus::AppSpec &Spec, const fs::path &OutDir,
                 std::ostream &Log, std::ostream &Err) {
  corpus::GeneratedApp App = corpus::generateApp(Spec);
  if (App.Bundle->Diags.hasErrors()) {
    App.Bundle->Diags.print(Err);
    return 1;
  }

  fs::path AppDir = OutDir / Spec.Name;
  if (!corpus::writeAppDir(Spec, *App.Bundle, AppDir, Err))
    return 1;
  Log << Spec.Name << ": "
      << App.Bundle->Program.appClassCount() << " classes, "
      << App.Bundle->Layouts->layouts().size() << " layouts -> "
      << AppDir.string() << "\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  fs::path OutDir;
  unsigned Jobs = 1;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-j" || Arg == "--jobs") {
      unsigned long N = 0;
      if (++I >= argc || !parseCount(argv[I], N) ||
          N > support::MaxReasonableJobs) {
        std::cerr << "error: invalid jobs value (expected 0.."
                  << support::MaxReasonableJobs
                  << "; 0 = hardware concurrency)\n";
        return 2;
      }
      Jobs = static_cast<unsigned>(N);
    } else if (OutDir.empty() && (Arg.empty() || Arg[0] != '-')) {
      OutDir = Arg;
    } else {
      std::cerr << "usage: export_corpus [-j <n>] <outdir>\n";
      return 2;
    }
  }
  if (OutDir.empty()) {
    std::cerr << "usage: export_corpus [-j <n>] <outdir>\n";
    return 2;
  }

  // Each task exports into its own app subdirectory, so the fan-out is
  // write-disjoint; per-task text is merged in corpus order below.
  const std::vector<corpus::AppSpec> &Specs = corpus::paperCorpus();
  struct ExportRecord {
    std::string LogText, ErrText;
    int Code = 0;
  };
  std::vector<ExportRecord> Records =
      support::parallelMap<ExportRecord>(Jobs, Specs.size(), [&](size_t I) {
        ExportRecord R;
        std::ostringstream Log, Err;
        try {
          R.Code = exportOneApp(Specs[I], OutDir, Log, Err);
        } catch (const std::exception &E) {
          Err << "internal error exporting '" << Specs[I].Name
              << "': " << E.what() << "\n";
          R.Code = 2;
        } catch (...) {
          Err << "internal error exporting '" << Specs[I].Name << "'\n";
          R.Code = 2;
        }
        R.LogText = Log.str();
        R.ErrText = Err.str();
        return R;
      });

  int Worst = 0;
  std::vector<std::string> Failed;
  for (size_t I = 0; I < Records.size(); ++I) {
    std::cout << Records[I].LogText;
    std::cerr << Records[I].ErrText;
    if (Records[I].Code != 0)
      Failed.push_back(Specs[I].Name);
    Worst = std::max(Worst, Records[I].Code);
  }
  if (!Failed.empty()) {
    std::cerr << "failed apps (" << Failed.size() << "):";
    for (const std::string &Name : Failed)
      std::cerr << " " << Name;
    std::cerr << "\n";
  }
  return Worst;
}
