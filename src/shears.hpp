// latency-shears — umbrella header.
//
// Reproduction of "Pruning Edge Research with Latency Shears" (HotNets '20).
// Pulls in the whole public API:
//
//   shears::geo       — coordinates, continents, the country registry
//   shears::stats     — RNG, distributions, ECDFs, summaries, bootstrap
//   shears::obs       — metrics registry, spans, telemetry snapshots
//   shears::topology  — the seven providers and 101 cloud regions
//   shears::net       — the Internet latency model (paths + last mile)
//   shears::atlas     — probe fleet, scheduler, campaign engine, dataset
//   shears::faults    — deterministic fault schedules, retry & quarantine
//   shears::apps      — perception thresholds and the Fig. 2 app catalog
//   shears::trends    — the Fig. 1 zeitgeist series and era analytics
//   shears::core      — the §4 analyses and the Fig. 8 feasibility zone
//   shears::serve     — columnar store, spatial index, the latency oracle
//   shears::report    — text tables and ASCII plots
//
// Typical use (see examples/quickstart.cpp):
//
//   auto fleet    = shears::atlas::ProbeFleet::generate({});
//   auto registry = shears::topology::CloudRegistry::campaign_footprint();
//   shears::net::LatencyModel model;
//   shears::atlas::Campaign campaign(fleet, registry, model, {});
//   auto dataset  = campaign.run();
//   auto bands    = shears::core::band_country_latencies(
//       shears::core::country_min_latency(dataset));
#pragma once

#include "apps/application.hpp"
#include "apps/thresholds.hpp"
#include "atlas/campaign.hpp"
#include "atlas/isp.hpp"
#include "atlas/measurement.hpp"
#include "atlas/placement.hpp"
#include "atlas/probe.hpp"
#include "atlas/tags.hpp"
#include "core/access_comparison.hpp"
#include "core/analysis.hpp"
#include "core/feasibility.hpp"
#include "config/ini.hpp"
#include "config/scenario.hpp"
#include "core/quality.hpp"
#include "core/whatif.hpp"
#include "edge/deployment.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/resilience.hpp"
#include "geo/city.hpp"
#include "geo/continent.hpp"
#include "geo/coordinates.hpp"
#include "geo/country.hpp"
#include "geo/spatial_index.hpp"
#include "net/access.hpp"
#include "net/endpoint.hpp"
#include "net/latency_model.hpp"
#include "net/path.hpp"
#include "net/ping.hpp"
#include "net/segments.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "opt/candidates.hpp"
#include "opt/overlay.hpp"
#include "opt/search.hpp"
#include "report/plot.hpp"
#include "report/resilience.hpp"
#include "report/svg.hpp"
#include "report/table.hpp"
#include "route/graph.hpp"
#include "route/path_provider.hpp"
#include "route/steering.hpp"
#include "serve/columnar.hpp"
#include "serve/oracle.hpp"
#include "serve/reference.hpp"
#include "serve/snapshot.hpp"
#include "stats/bootstrap.hpp"
#include "stats/distributions.hpp"
#include "stats/ecdf.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/ranktest.hpp"
#include "stats/regression.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "topology/provider.hpp"
#include "topology/region.hpp"
#include "topology/registry.hpp"
#include "trends/crawler.hpp"
#include "trends/trends.hpp"
