#include "workloads/fraud_workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"

namespace hygraph::workloads {

namespace {

constexpr double kPi = 3.14159265358979323846;

struct TxEvent {
  Timestamp t;
  size_t merchant;  // index into merchant vertex list
  double amount;
};

enum class Role { kNormal, kRing, kHeavy, kBurst };

const char* RoleName(Role role) {
  switch (role) {
    case Role::kNormal:
      return "normal";
    case Role::kRing:
      return "ring";
    case Role::kHeavy:
      return "heavy";
    case Role::kBurst:
      return "burst";
  }
  return "?";
}

}  // namespace

Result<core::HyGraph> GenerateFraudHyGraph(const FraudConfig& config) {
  if (config.users == 0 || config.merchants == 0 ||
      config.merchant_clusters == 0 || config.days == 0) {
    return Status::InvalidArgument(
        "users, merchants, merchant_clusters and days must be positive");
  }
  if (config.merchants < config.merchant_clusters * 3) {
    return Status::InvalidArgument(
        "need at least 3 merchants per cluster for ring bursts");
  }
  core::HyGraph hg;
  Rng rng(config.seed);
  const Timestamp t0 = config.start_time;
  const size_t hours = config.days * 24;

  // Merchants in well-separated clusters ("malls"); same-cluster merchants
  // are mutually within ~600m, different clusters are kilometers apart.
  std::vector<graph::VertexId> merchants;
  std::vector<size_t> merchant_cluster;
  for (size_t m = 0; m < config.merchants; ++m) {
    const size_t cluster = m % config.merchant_clusters;
    const double angle = 2.0 * kPi * static_cast<double>(cluster) /
                         static_cast<double>(config.merchant_clusters);
    graph::PropertyMap props;
    props["name"] = std::string("M").append(std::to_string(m));
    props["cluster"] = static_cast<int64_t>(cluster);
    props["x"] = 20000.0 * std::cos(angle) + rng.NextGaussian() * 200.0;
    props["y"] = 20000.0 * std::sin(angle) + rng.NextGaussian() * 200.0;
    auto v = hg.AddPgVertex({"Merchant"}, std::move(props));
    if (!v.ok()) return v.status();
    merchants.push_back(*v);
    merchant_cluster.push_back(cluster);
  }

  for (size_t u = 0; u < config.users; ++u) {
    // Role assignment: deterministic thresholds over one uniform draw.
    const double draw = rng.NextDouble();
    Role role = Role::kNormal;
    if (draw < config.fraud_rate) {
      role = Role::kRing;
    } else if (draw < config.fraud_rate + config.heavy_spender_rate) {
      role = Role::kHeavy;
    } else if (draw < config.fraud_rate + config.heavy_spender_rate +
                          config.burst_shopper_rate) {
      role = Role::kBurst;
    }

    // --- transaction plan -------------------------------------------------
    std::vector<TxEvent> events;
    // Habitual merchants (2-3) for everyday purchases.
    std::vector<size_t> habitual;
    const size_t habit_count = 2 + rng.NextBounded(2);
    for (size_t k = 0; k < habit_count; ++k) {
      habitual.push_back(rng.NextBounded(config.merchants));
    }
    for (size_t day = 0; day < config.days; ++day) {
      const size_t tx_count = 1 + rng.NextBounded(3);
      for (size_t k = 0; k < tx_count; ++k) {
        const Timestamp t = t0 + static_cast<Duration>(day) * kDay +
                            rng.NextInRange(8, 21) * kHour +
                            rng.NextInRange(0, 59) * kMinute;
        const double amount =
            role == Role::kHeavy ? rng.NextDoubleInRange(300.0, 950.0)
                                 : rng.NextDoubleInRange(10.0, 300.0);
        events.push_back(
            TxEvent{t, habitual[rng.NextBounded(habitual.size())], amount});
      }
    }

    // Planted behaviours.
    Timestamp burst_start = 0;
    double burst_total = 0.0;
    if (role == Role::kRing || role == Role::kBurst) {
      const size_t cluster = rng.NextBounded(config.merchant_clusters);
      // Distinct merchants of that cluster.
      std::vector<size_t> cluster_merchants;
      for (size_t m = 0; m < config.merchants; ++m) {
        if (merchant_cluster[m] == cluster) cluster_merchants.push_back(m);
      }
      const size_t burst_size =
          std::min<size_t>(3 + rng.NextBounded(2), cluster_merchants.size());
      // Day >= 1: the TS detector's trailing window needs a day of history
      // before a crash can register, mirroring real deployments that only
      // score entities with enough baseline.
      const size_t burst_day =
          config.days > 1 ? 1 + rng.NextBounded(config.days - 1) : 0;
      burst_start = t0 + static_cast<Duration>(burst_day) * kDay +
                    rng.NextInRange(10, 18) * kHour;
      for (size_t k = 0; k < burst_size; ++k) {
        const double amount = rng.NextDoubleInRange(1200.0, 3000.0);
        burst_total += amount;
        events.push_back(TxEvent{
            burst_start + static_cast<Duration>(k * 9 + 1) * kMinute,
            cluster_merchants[k], amount});
      }
    }

    // --- balance series ----------------------------------------------------
    // Hourly random walk; ring fraud crashes the balance at the burst,
    // heavy spenders have sporadic large jumps, burst shoppers settle their
    // spree at the statement date (spread out), so no local anomaly.
    ts::MultiSeries balance("card" + std::to_string(u) + ".balance",
                            {"balance"});
    double level = rng.NextDoubleInRange(2000.0, 8000.0);
    std::vector<Timestamp> heavy_jumps;
    if (role == Role::kHeavy) {
      const size_t jumps = 3 + rng.NextBounded(3);
      for (size_t j = 0; j < jumps; ++j) {
        heavy_jumps.push_back(
            t0 + static_cast<Duration>(rng.NextBounded(hours)) * kHour);
      }
      std::sort(heavy_jumps.begin(), heavy_jumps.end());
    }
    size_t next_jump = 0;
    bool crashed = false;
    for (size_t h = 0; h < hours; ++h) {
      const Timestamp t = t0 + static_cast<Duration>(h) * kHour;
      level += rng.NextGaussian() * 20.0;
      if (role == Role::kRing && !crashed && t >= burst_start) {
        level -= burst_total;  // the fraud drains the card
        crashed = true;
      }
      while (next_jump < heavy_jumps.size() && t >= heavy_jumps[next_jump]) {
        level += (rng.NextBernoulli(0.5) ? 1.0 : -1.0) *
                 rng.NextDoubleInRange(2000.0, 4000.0);
        ++next_jump;
      }
      HYGRAPH_RETURN_IF_ERROR(balance.AppendRow(t, {level}));
    }

    // --- materialize vertices/edges -----------------------------------------
    graph::PropertyMap user_props;
    user_props["name"] = std::string("U").append(std::to_string(u));
    user_props["gt_fraud"] = Value(role == Role::kRing);
    user_props["gt_role"] = RoleName(role);
    auto user = hg.AddPgVertex({"User"}, std::move(user_props));
    if (!user.ok()) return user.status();

    auto card = hg.AddTsVertex({"CreditCard"}, std::move(balance));
    if (!card.ok()) return card.status();
    HYGRAPH_RETURN_IF_ERROR(hg.SetVertexProperty(
        *card, "name", Value(std::string("C").append(std::to_string(u)))));
    auto uses = hg.AddPgEdge(*user, *card, "USES", {});
    if (!uses.ok()) return uses.status();

    // Group transactions per merchant into one TX TS edge each.
    std::map<size_t, std::vector<TxEvent>> per_merchant;
    for (const TxEvent& ev : events) per_merchant[ev.merchant].push_back(ev);
    for (auto& [merchant, tx] : per_merchant) {
      std::sort(tx.begin(), tx.end(),
                [](const TxEvent& a, const TxEvent& b) { return a.t < b.t; });
      ts::MultiSeries amounts("tx", {"amount"});
      Timestamp last = kMinTimestamp;
      for (const TxEvent& ev : tx) {
        // Nudge duplicate timestamps forward to keep the axis strict.
        const Timestamp t = ev.t <= last ? last + 1 : ev.t;
        HYGRAPH_RETURN_IF_ERROR(amounts.AppendRow(t, {ev.amount}));
        last = t;
      }
      auto edge =
          hg.AddTsEdge(*card, merchants[merchant], "TX", std::move(amounts));
      if (!edge.ok()) return edge.status();
    }
  }
  return hg;
}

}  // namespace hygraph::workloads
