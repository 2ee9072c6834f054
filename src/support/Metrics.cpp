//===- Metrics.cpp - Typed metrics registry ---------------------*- C++ -*-===//

#include "support/Metrics.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace gator;
using namespace gator::support;

uint64_t gator::support::currentPeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(Usage.ru_maxrss); // bytes on Darwin
#else
  return static_cast<uint64_t>(Usage.ru_maxrss) * 1024; // KiB on Linux
#endif
#else
  return 0;
#endif
}

double Histogram::quantile(double Q) const {
  if (Count == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  const double Rank = Q * static_cast<double>(Count);
  uint64_t Cum = 0;
  for (size_t I = 0; I < Counts.size(); ++I) {
    const double Prev = static_cast<double>(Cum);
    Cum += Counts[I];
    if (static_cast<double>(Cum) < Rank)
      continue;
    if (I >= Bounds.size()) // +Inf bucket: clamp to the last finite bound
      return Bounds.empty() ? 0 : static_cast<double>(Bounds.back());
    const double Upper = static_cast<double>(Bounds[I]);
    if (Counts[I] == 0) // only reachable at Rank == 0
      return Upper;
    const double Lower = I == 0 ? 0.0 : static_cast<double>(Bounds[I - 1]);
    return Lower + (Upper - Lower) * (Rank - Prev) /
                       static_cast<double>(Counts[I]);
  }
  return Bounds.empty() ? 0 : static_cast<double>(Bounds.back());
}

bool Histogram::addRaw(const std::vector<uint64_t> &RawCounts, uint64_t RawSum,
                       uint64_t RawCount) {
  if (RawCounts.size() != Counts.size())
    return false;
  for (size_t I = 0; I < Counts.size(); ++I)
    Counts[I] += RawCounts[I];
  Sum += RawSum;
  Count += RawCount;
  return true;
}

MetricsRegistry::Instrument &
MetricsRegistry::intern(const std::string &Name, const std::string &Help,
                        Kind K, MetricUnit Unit, const std::string &LabelKey,
                        const std::string &LabelValue) {
  std::string Key = Name;
  Key.push_back('\0');
  Key += LabelValue;
  auto [It, Inserted] = Index.try_emplace(Key, Instruments.size());
  if (Inserted) {
    Instrument I;
    I.Name = Name;
    I.Help = Help;
    I.LabelKey = LabelKey;
    I.LabelValue = LabelValue;
    I.K = K;
    I.Unit = Unit;
    Instruments.push_back(std::move(I));
  }
  return Instruments[It->second];
}

Counter &MetricsRegistry::counter(const std::string &Name,
                                  const std::string &Help, MetricUnit Unit,
                                  const std::string &LabelKey,
                                  const std::string &LabelValue) {
  return intern(Name, Help, Kind::Counter, Unit, LabelKey, LabelValue).C;
}

Gauge &MetricsRegistry::gauge(const std::string &Name, const std::string &Help,
                              MetricUnit Unit) {
  return intern(Name, Help, Kind::Gauge, Unit, std::string(), std::string()).G;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      const std::string &Help,
                                      const std::vector<uint64_t> &Bounds) {
  Instrument &I = intern(Name, Help, Kind::Histogram, MetricUnit::None,
                         std::string(), std::string());
  if (I.H.bounds().empty() && !Bounds.empty())
    I.H = Histogram(Bounds);
  return I.H;
}

std::vector<size_t> MetricsRegistry::sortedIndices(bool IncludeTimes) const {
  std::vector<size_t> Order;
  Order.reserve(Instruments.size());
  for (size_t I = 0; I < Instruments.size(); ++I)
    if (IncludeTimes || (Instruments[I].Unit != MetricUnit::Seconds &&
                         Instruments[I].Unit != MetricUnit::BytesVolatile))
      Order.push_back(I);
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const Instrument &IA = Instruments[A], &IB = Instruments[B];
    if (IA.Name != IB.Name)
      return IA.Name < IB.Name;
    return IA.LabelValue < IB.LabelValue;
  });
  return Order;
}

namespace {

/// Fixed-precision double rendering so exported documents are
/// byte-deterministic across platforms and locales.
std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

const char *kindName(bool IsCounter, bool IsHistogram) {
  return IsHistogram ? "histogram" : (IsCounter ? "counter" : "gauge");
}

} // namespace

void MetricsRegistry::writeJson(std::ostream &OS, bool IncludeTimes) const {
  JsonWriter W(OS);
  W.beginObject();
  W.key("metrics");
  W.beginArray();
  for (size_t Idx : sortedIndices(IncludeTimes)) {
    const Instrument &I = Instruments[Idx];
    W.beginObject();
    W.field("name", I.Name);
    if (!I.LabelKey.empty()) {
      W.key("labels");
      W.beginObject();
      W.field(I.LabelKey, I.LabelValue);
      W.endObject();
    }
    W.field("type", kindName(I.K == Kind::Counter, I.K == Kind::Histogram));
    W.field("help", I.Help);
    switch (I.K) {
    case Kind::Counter:
      W.field("value", static_cast<unsigned long long>(I.C.value()));
      break;
    case Kind::Gauge:
      // Seconds gauges are real-valued (fixed-precision for byte-stable
      // output); count-valued gauges are integral.
      W.key("value");
      if (I.Unit == MetricUnit::Seconds)
        W.rawNumber(formatDouble(I.G.value()));
      else
        W.value(static_cast<long long>(I.G.value()));
      break;
    case Kind::Histogram: {
      W.key("buckets");
      W.beginArray();
      const auto &Bounds = I.H.bounds();
      const auto &Counts = I.H.bucketCounts();
      uint64_t Cum = 0;
      for (size_t B = 0; B < Counts.size(); ++B) {
        Cum += Counts[B];
        W.beginObject();
        if (B < Bounds.size())
          W.field("le", static_cast<unsigned long long>(Bounds[B]));
        else
          W.field("le", "+Inf");
        W.field("count", static_cast<unsigned long long>(Cum));
        W.endObject();
      }
      W.endArray();
      W.field("sum", static_cast<unsigned long long>(I.H.sum()));
      W.field("count", static_cast<unsigned long long>(I.H.count()));
      break;
    }
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << '\n';
}

void MetricsRegistry::writePrometheus(std::ostream &OS,
                                      bool IncludeTimes) const {
  std::string LastHeader;
  for (size_t Idx : sortedIndices(IncludeTimes)) {
    const Instrument &I = Instruments[Idx];
    // Labeled series of one metric share a single HELP/TYPE header.
    if (I.Name != LastHeader) {
      OS << "# HELP " << I.Name << ' ' << I.Help << '\n';
      OS << "# TYPE " << I.Name << ' '
         << kindName(I.K == Kind::Counter, I.K == Kind::Histogram) << '\n';
      LastHeader = I.Name;
    }
    std::string Label;
    if (!I.LabelKey.empty())
      Label = "{" + I.LabelKey + "=\"" + I.LabelValue + "\"}";
    switch (I.K) {
    case Kind::Counter:
      OS << I.Name << Label << ' ' << I.C.value() << '\n';
      break;
    case Kind::Gauge:
      if (I.Unit == MetricUnit::Seconds)
        OS << I.Name << Label << ' ' << formatDouble(I.G.value()) << '\n';
      else
        OS << I.Name << Label << ' '
           << static_cast<long long>(I.G.value()) << '\n';
      break;
    case Kind::Histogram: {
      const auto &Bounds = I.H.bounds();
      const auto &Counts = I.H.bucketCounts();
      uint64_t Cum = 0;
      for (size_t B = 0; B < Counts.size(); ++B) {
        Cum += Counts[B];
        OS << I.Name << "_bucket{le=\"";
        if (B < Bounds.size())
          OS << Bounds[B];
        else
          OS << "+Inf";
        OS << "\"} " << Cum << '\n';
      }
      OS << I.Name << "_sum " << I.H.sum() << '\n';
      OS << I.Name << "_count " << I.H.count() << '\n';
      // Derived quantile gauges (docs/OBSERVABILITY.md): interpolated
      // from the fixed buckets, rendered only when the histogram saw
      // observations so an idle export stays its historical shape.
      if (I.H.count() > 0) {
        static const struct {
          const char *Suffix;
          double Q;
        } Quantiles[] = {{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}};
        for (const auto &QS : Quantiles) {
          const std::string QName = I.Name + QS.Suffix;
          OS << "# HELP " << QName << ' ' << I.Help
             << " (quantile estimate from fixed buckets)" << '\n';
          OS << "# TYPE " << QName << " gauge" << '\n';
          OS << QName << ' ' << formatDouble(I.H.quantile(QS.Q)) << '\n';
        }
        LastHeader.clear(); // the next instrument re-emits its header
      }
      break;
    }
    }
  }
}
