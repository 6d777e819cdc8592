#include "workloads/financial.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"

namespace hygraph::workloads {

namespace {

const char* kSectors[] = {"tech", "energy", "finance", "health", "retail"};

}  // namespace

Result<core::HyGraph> GenerateFinancialHyGraph(const FinancialConfig& config) {
  if (config.companies == 0 || config.exchanges == 0 || config.years == 0) {
    return Status::InvalidArgument(
        "companies, exchanges and years must be positive");
  }
  core::HyGraph hg;
  Rng rng(config.seed);
  const Timestamp t0 = config.start_time;
  const Duration horizon = static_cast<Duration>(config.years) * 365 * kDay;
  const Timestamp t_end = t0 + horizon;

  std::vector<graph::VertexId> exchanges;
  for (size_t x = 0; x < config.exchanges; ++x) {
    graph::PropertyMap props;
    props["name"] = std::string("X").append(std::to_string(x));
    auto v = hg.AddPgVertex({"Exchange"}, std::move(props),
                            Interval{t0, kMaxTimestamp});
    if (!v.ok()) return v.status();
    exchanges.push_back(*v);
  }

  struct CompanyInfo {
    graph::VertexId vertex;
    Timestamp inception;
    Timestamp death;  // kMaxTimestamp when alive
  };
  std::vector<CompanyInfo> companies;

  for (size_t c = 0; c < config.companies; ++c) {
    const Timestamp inception =
        t0 + static_cast<Duration>(rng.NextBounded(
                 static_cast<uint64_t>(horizon / 2 / kDay))) *
                 kDay;
    Timestamp death = kMaxTimestamp;
    const bool goes_bankrupt =
        rng.NextBernoulli(config.bankruptcy_probability);
    if (goes_bankrupt) {
      death = inception + 200 * kDay +
              static_cast<Duration>(rng.NextBounded(
                  static_cast<uint64_t>((t_end - inception) / kDay))) *
                  kDay;
      death = std::min(death, t_end);
    }
    graph::PropertyMap props;
    props["name"] = "Comp" + std::to_string(c);
    props["sector"] = kSectors[rng.NextBounded(5)];
    auto v = hg.AddPgVertex({"Company"}, std::move(props),
                            Interval{inception, death});
    if (!v.ok()) return v.status();
    companies.push_back(CompanyInfo{*v, inception, death});

    // IPO: listed on 1-2 exchanges; public companies get a daily price
    // series (geometric-ish random walk) for their public lifetime.
    if (rng.NextBernoulli(config.ipo_probability)) {
      const Timestamp ipo = inception + 100 * kDay;
      const Timestamp end_public =
          death == kMaxTimestamp ? t_end : std::min(death, t_end);
      if (ipo < end_public) {
        const size_t listings = 1 + rng.NextBounded(2);
        for (size_t l = 0; l < listings && l < exchanges.size(); ++l) {
          const graph::VertexId exchange =
              exchanges[rng.NextBounded(exchanges.size())];
          // Some listings end early (delisting / membership change).
          Timestamp delist = death;
          if (rng.NextBernoulli(0.3)) {
            const Duration public_span = end_public - ipo;
            delist = ipo + public_span / 2;
          }
          auto e = hg.AddPgEdge(*v, exchange, "LISTED_ON", {},
                                Interval{ipo, delist});
          if (!e.ok()) return e.status();
        }
        ts::MultiSeries price("Comp" + std::to_string(c) + ".price",
                              {"close"});
        double level = rng.NextDoubleInRange(10.0, 200.0);
        const double drift = rng.NextDoubleInRange(-0.001, 0.002);
        const double vol = rng.NextDoubleInRange(0.005, 0.03);
        for (Timestamp t = ipo; t < end_public; t += kDay) {
          level *= std::exp(drift + vol * rng.NextGaussian());
          level = std::max(level, 0.01);
          HYGRAPH_RETURN_IF_ERROR(price.AppendRow(t, {level}));
        }
        auto sid = hg.SetVertexSeriesProperty(*v, "price", std::move(price));
        if (!sid.ok()) return sid.status();
        HYGRAPH_RETURN_IF_ERROR(
            hg.SetVertexProperty(*v, "ipo_date", Value(int64_t{ipo})));
      }
    }
  }

  // Acquisitions: a live company may be acquired by an older live company;
  // the ACQUIRED edge is valid from the acquisition until the earlier of
  // the two deaths.
  for (size_t c = 1; c < companies.size(); ++c) {
    if (!rng.NextBernoulli(config.acquisition_probability)) continue;
    const CompanyInfo& target = companies[c];
    const CompanyInfo& acquirer = companies[rng.NextBounded(c)];
    const Timestamp earliest =
        std::max(target.inception, acquirer.inception) + 150 * kDay;
    const Timestamp latest =
        std::min({target.death, acquirer.death, t_end});
    if (earliest >= latest) continue;
    const Timestamp when =
        earliest + static_cast<Duration>(rng.NextBounded(static_cast<uint64_t>(
                       (latest - earliest) / kDay + 1))) *
                       kDay;
    const Timestamp until = std::min(target.death, acquirer.death);
    if (when >= until) continue;
    auto e = hg.AddPgEdge(acquirer.vertex, target.vertex, "ACQUIRED", {},
                          Interval{when, until});
    if (!e.ok()) return e.status();
  }
  return hg;
}

}  // namespace hygraph::workloads
