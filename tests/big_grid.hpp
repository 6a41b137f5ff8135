// big_grid.hpp — the big design-space grid the test suites sweep.
#pragma once

#include "optimizer/design_space.hpp"

namespace stordep::testgrid {

/// The bench_parallel_search / perfbench big grid (14,883 points, 11,890
/// valid candidates).
inline optimizer::DesignSpaceOptions bigGridOptions() {
  optimizer::DesignSpaceOptions options;
  options.pitAccWs = {hours(3), hours(6), hours(12), hours(24), hours(48)};
  options.pitRetentionCounts = {1, 2, 4, 8};
  options.backupAccWs = {hours(24), days(3), weeks(1), weeks(2)};
  options.vaultAccWs = {weeks(1), weeks(4), weeks(12)};
  options.mirrorChoices = {optimizer::MirrorChoice::kNone,
                           optimizer::MirrorChoice::kAsync,
                           optimizer::MirrorChoice::kAsyncBatch};
  options.mirrorLinkCounts = {1, 2, 4, 8, 16};
  return options;
}

}  // namespace stordep::testgrid
