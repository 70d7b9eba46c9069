#include "bgl/record.hpp"

#include <gtest/gtest.h>

namespace dml::bgl {
namespace {

Event make_event(TimeSec t, CategoryId cat, bool fatal) {
  Event e;
  e.time = t;
  e.category = cat;
  e.fatal = fatal;
  return e;
}

TEST(RasRecord, FatalSeverityFlag) {
  RasRecord r;
  r.severity = Severity::kError;
  EXPECT_FALSE(r.is_fatal_severity());
  r.severity = Severity::kFailure;
  EXPECT_TRUE(r.is_fatal_severity());
}

TEST(EventTimeOrder, OrdersByTimeThenCategoryThenLocation) {
  EventTimeOrder less;
  Event a = make_event(10, 1, false);
  Event b = make_event(20, 0, false);
  EXPECT_TRUE(less(a, b));
  EXPECT_FALSE(less(b, a));

  Event c = make_event(10, 2, false);
  EXPECT_TRUE(less(a, c));

  Event d = a;
  d.location = Location::compute_chip(0, 0, 0, 0, 1);
  a.location = Location::compute_chip(0, 0, 0, 0, 0);
  EXPECT_TRUE(less(a, d));
  EXPECT_FALSE(less(a, a));
}

}  // namespace
}  // namespace dml::bgl
