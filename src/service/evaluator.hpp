#pragma once

/// Request → sweep-cell translation for the service (DESIGN.md §13). A
/// submitted (family, params) pair becomes a CellJob: the canonical
/// CellConfig (built through sweep/cells.hpp so service cells share cache
/// identity with the Fig. 7-13 drivers), the human-readable cell name and
/// the compute closure. Validation is strict and happens here — anything
/// malformed throws aqua::Error, which the server answers as a bad_request
/// without touching a solver.
///
/// Families:
///   freq_cap  chip, chips, cooling [, threshold_c=80, nx=32, ny=32]
///   npb_des   chips, benchmark, hz [, cores_per_chip=4,
///             instructions_per_thread=<profile default>, seed=1]
///   htc       chip, chips, htc [, nx=32, ny=32]
///   rotation  chip, chips, cooling, step [, nx=32, ny=32]
///
/// `chip` names a model factory (low_power_cmp, high_frequency_cmp,
/// xeon_e5_2667v4, xeon_phi_7290); `cooling` one of the paper's five
/// options by its table name. The computes are the figure drivers' own
/// (core/experiments.hpp); this file adds validation and display names.
/// Every compute builds, solves and frees its own thermal model, so a
/// server worker keeps no solver state between requests.

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sweep/cell_key.hpp"
#include "sweep/runner.hpp"

namespace aqua::service {

struct CellJob {
  sweep::CellConfig config;
  std::string cell;  ///< display name, same spelling as the fig drivers
  sweep::CellPolicy policy;  ///< unread by the runner; ROADMAP item 10 drops it
  std::function<std::map<std::string, double>()> compute;
};

/// Builds the job for one (family, params) submission. Throws aqua::Error
/// with a client-presentable message on unknown families, missing or
/// malformed params, or out-of-range values.
CellJob make_cell_job(const std::string& family,
                      const std::map<std::string, std::string>& params);

/// One cell of a server-side figure expansion. `tag` is self-describing
/// ("chips=6;cooling=water") so the client can place the result in its
/// table without tracking ids.
struct FigureCell {
  std::string family;
  std::map<std::string, std::string> params;
  std::string tag;
};

/// Expands a figure name into its full cell list (fig07: low-power CMP,
/// 1-14 chips x 5 coolings; fig08: high-frequency CMP, 1-15 chips).
/// Throws aqua::Error on unknown figures.
std::vector<FigureCell> expand_figure(const std::string& figure);

}  // namespace aqua::service
