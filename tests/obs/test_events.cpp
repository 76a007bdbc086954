// EventLog tests: emission, category/severity tallies, fixed-capacity ring
// wrap-around, payload storage and the emitter-declaration registry backing
// `platform_lint --events`.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/events.hpp"

namespace ascp::obs {
namespace {

TEST(Events, EmitStoresAllFields) {
  EventLog log;
  log.emit(0.125, EventSeverity::Warn, EventCategory::Pll, "pll_lock_loss", "pickoff dead",
           {{"freq_hz", 15e3}, {"phase", 0.5}});
  ASSERT_EQ(log.size(), 1u);
  const auto ev = log.events();
  EXPECT_DOUBLE_EQ(ev[0].t_sim, 0.125);
  EXPECT_EQ(ev[0].severity, EventSeverity::Warn);
  EXPECT_EQ(ev[0].category, EventCategory::Pll);
  EXPECT_STREQ(ev[0].name, "pll_lock_loss");
  EXPECT_EQ(ev[0].detail, "pickoff dead");
  EXPECT_STREQ(ev[0].kv[0].key, "freq_hz");
  EXPECT_DOUBLE_EQ(ev[0].kv[0].value, 15e3);
  EXPECT_STREQ(ev[0].kv[1].key, "phase");
  EXPECT_EQ(ev[0].kv[2].key, nullptr);  // unused slots stay null
}

TEST(Events, CountsByCategoryAndSeverity) {
  EventLog log;
  log.emit(0.0, EventSeverity::Info, EventCategory::Agc, "agc_settled");
  log.emit(1.0, EventSeverity::Info, EventCategory::Agc, "agc_unsettled");
  log.emit(2.0, EventSeverity::Error, EventCategory::Dtc, "dtc_latch");
  EXPECT_EQ(log.count(EventCategory::Agc), 2u);
  EXPECT_EQ(log.count(EventCategory::Dtc), 1u);
  EXPECT_EQ(log.count(EventCategory::Watchdog), 0u);
  EXPECT_EQ(log.count(EventSeverity::Info), 2u);
  EXPECT_EQ(log.count(EventSeverity::Error), 1u);
}

TEST(Events, RingWrapsAtCapacityKeepingNewest) {
  EventLog log(4);
  for (int i = 0; i < 6; ++i)
    log.emit(static_cast<double>(i), EventSeverity::Debug, EventCategory::Probe, "tick");
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  // Retained window is the newest 4, visited oldest → newest.
  std::vector<double> ts;
  log.for_each([&](const Event& e) { ts.push_back(e.t_sim); });
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_DOUBLE_EQ(ts.front(), 2.0);
  EXPECT_DOUBLE_EQ(ts.back(), 5.0);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LT(ts[i - 1], ts[i]);
  // Tallies count *emitted* events, not just retained ones.
  EXPECT_EQ(log.count(EventCategory::Probe), 6u);
}

TEST(Events, CapacityOneRingAlwaysHoldsTheNewest) {
  // Degenerate ring: every emit lands exactly at the wrap point, so the
  // head bookkeeping is exercised on every write.
  EventLog log(1);
  for (int i = 0; i < 5; ++i)
    log.emit(static_cast<double>(i), EventSeverity::Info, EventCategory::Engine, "tick");
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.dropped(), 4u);
  const auto ev = log.events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_DOUBLE_EQ(ev[0].t_sim, 4.0);
}

TEST(Events, DoubleWrapStaysOrderedOldestToNewest) {
  // More than two full revolutions: for_each must still visit a contiguous
  // strictly-increasing window ending at the newest emission.
  EventLog log(3);
  for (int i = 0; i < 11; ++i)
    log.emit(static_cast<double>(i), EventSeverity::Debug, EventCategory::Trace, "t");
  std::vector<double> ts;
  log.for_each([&](const Event& e) { ts.push_back(e.t_sim); });
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts[0], 8.0);
  EXPECT_DOUBLE_EQ(ts[1], 9.0);
  EXPECT_DOUBLE_EQ(ts[2], 10.0);
  EXPECT_EQ(log.dropped(), 8u);
}

TEST(Events, ClearEmptiesRingAndTallies) {
  EventLog log;
  log.emit(0.0, EventSeverity::Info, EventCategory::Fault, "fault_inject");
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.count(EventCategory::Fault), 0u);
}

TEST(Events, EmitterRegistryTracksClaimants) {
  EventLog log;
  EXPECT_FALSE(log.emitter_declared(EventCategory::Supervisor));
  log.declare_emitter(EventCategory::Supervisor, "SafetySupervisor");
  log.declare_emitter(EventCategory::Supervisor, "SelfTestController");
  EXPECT_TRUE(log.emitter_declared(EventCategory::Supervisor));
  ASSERT_EQ(log.emitters(EventCategory::Supervisor).size(), 2u);
  EXPECT_EQ(log.emitters(EventCategory::Supervisor)[0], "SafetySupervisor");
  EXPECT_FALSE(log.emitter_declared(EventCategory::Mcu));
}

// The category values are the category bytes of `.blackbox` flight records,
// so a retired value (6) stays unused and every other one keeps its byte: an
// image written before a category was retired still names its categories.
TEST(Events, CategoryValuesAreTheFlightRecordBytes) {
  const std::vector<std::pair<EventCategory, int>> bytes = {
      {EventCategory::Pll, 0},   {EventCategory::Agc, 1},       {EventCategory::Supervisor, 2},
      {EventCategory::Dtc, 3},   {EventCategory::Watchdog, 4},  {EventCategory::Fault, 5},
      {EventCategory::Mcu, 7},   {EventCategory::Engine, 8},    {EventCategory::Probe, 9},
      {EventCategory::Trace, 10}, {EventCategory::Recorder, 11}};
  ASSERT_EQ(bytes.size(), kAllEventCategories.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(kAllEventCategories[i], bytes[i].first);
    EXPECT_EQ(static_cast<int>(bytes[i].first), bytes[i].second) << category_name(bytes[i].first);
    EXPECT_LT(static_cast<std::size_t>(bytes[i].second), kEventCategorySlots);
  }
  EXPECT_STREQ(category_name(static_cast<EventCategory>(6)), "?");
}

TEST(Events, NamesForSeveritiesAndCategories) {
  for (const auto c : kAllEventCategories) {
    EXPECT_NE(category_name(c), nullptr);
    EXPECT_GT(std::string(category_name(c)).size(), 0u);
  }
  EXPECT_NE(std::string(severity_name(EventSeverity::Debug)),
            std::string(severity_name(EventSeverity::Error)));
}

}  // namespace
}  // namespace ascp::obs
