//===- alite_fmt.cpp - ALite source formatter -------------------*- C++ -*-===//
//
// Normalizes ALite source: parse, verify, and re-print in the canonical
// style (the printer's output is a fixed point of parse→print). Reads
// one file (or stdin with "-") and writes the formatted program to
// stdout; diagnostics go to stderr.
//
//   alite_fmt file.alite            # print formatted source
//   alite_fmt - < file.alite        # same, from stdin
//
//===----------------------------------------------------------------------===//

#include "android/AndroidModel.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "support/FileIO.h"

#include <iostream>
#include <sstream>

using namespace gator;

int main(int argc, char **argv) {
  if (argc != 2) {
    std::cerr << "usage: alite_fmt <file.alite | ->\n";
    return 2;
  }

  std::string Source;
  std::string FileName = argv[1];
  if (FileName == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Source = SS.str();
    FileName = "<stdin>";
  } else {
    if (!support::readFile(FileName, Source)) {
      std::cerr << "error: cannot read " << FileName << "\n";
      return 1;
    }
  }

  ir::Program P;
  DiagnosticEngine Diags;
  android::AndroidModel AM;
  AM.install(P); // so platform references verify cleanly
  bool Ok = parser::parseAlite(Source, FileName, P, Diags);
  if (Ok)
    Ok = P.resolve(Diags) && ir::verifyProgram(P, Diags);
  Diags.print(std::cerr);
  if (!Ok || Diags.hasErrors())
    return 1;

  parser::printProgram(P, std::cout);
  return 0;
}
