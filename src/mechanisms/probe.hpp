// Capability probing: derive Table 1 from behaviour, not from labels.
//
// For each mechanism the prober builds a fresh kernel, launches unmodified
// guests through the mechanism's own procedure and *measures* each Table 1
// feature:
//
//   incremental   — checkpoint a sparse writer twice; "yes" iff the second
//                   image is much smaller than the first.
//   transparency  — "yes" iff an unmodified, uncooperative application can
//                   be checkpointed without its process image being touched
//                   (no injected library handlers / interposition) — launch
//                   wrappers and kernel-side registration are allowed, as
//                   in the paper's reading for EPCKPT and CHPOX.
//   stable storage— the mechanism's declared localities, verified: images
//                   must actually be retained (or, for "none", must not).
//   initiation    — "user" iff an external agent can initiate, else
//                   "automatic" (the application triggers itself).
//   kernel module — "yes" iff the mechanism registered as a loadable module.
#pragma once

#include <string>
#include <vector>

#include "mechanisms/catalog.hpp"

namespace ckpt::mechanisms {

struct ProbedRow {
  std::string name;
  std::string incremental;
  std::string transparency;
  std::string storage;
  std::string initiation;
  std::string module;
  /// Extra probes beyond Table 1's columns.
  bool multithreaded = false;
  bool restart_verified = false;
};

/// Probe one catalog entry in a fresh kernel.
ProbedRow probe_mechanism(const CatalogEntry& entry);

/// The paper's published row for a mechanism (from the mechanism class).
PaperRow paper_row_for(const CatalogEntry& entry);

}  // namespace ckpt::mechanisms
