#include "check/reference.hpp"

namespace shears::check {

atlas::MeasurementDataset reference_campaign(
    const atlas::Campaign& campaign, atlas::CampaignTelemetry& telemetry) {
  return campaign.run_engine(telemetry, false);
}

}  // namespace shears::check
