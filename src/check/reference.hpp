// The scalar reference campaign engine.
//
// Campaign::run() samples every config the lane kernel covers with the
// lane engine, whose RTTs agree with the scalar sampler in distribution
// only. The scalar engine stays the exact reference: its bursts are
// bit-equal to the recomputing LatencyModel::ping_once
// (check_cached_vs_recomputing), and the golden checksums captured
// before the lane engine pin its bytes. This is the one way to run it on
// a config the lane engine would take.
#pragma once

#include "atlas/campaign.hpp"

namespace shears::check {

/// Runs `campaign` on the scalar engine whatever its config: the same
/// sharding, telemetry, attached metrics and sink as Campaign::run(),
/// with every burst sampled by LatencyModel::ping_cached.
atlas::MeasurementDataset reference_campaign(
    const atlas::Campaign& campaign, atlas::CampaignTelemetry& telemetry);

}  // namespace shears::check
