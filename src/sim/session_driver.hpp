#pragma once

/// \file
/// Bridges simulator fault events (fail-stop processor kills and link cuts)
/// into a stateful service::EmbedSession over the same B(d,n).

#include <cstdint>

#include "service/session.hpp"
#include "sim/engine.hpp"
#include "verify/scenario.hpp"

namespace dbr::sim {

/// Outcome counters for a driven fault-churn run.
struct ChurnDriveStats {
  std::uint64_t kills = 0;           ///< fail-stop processor deaths applied
  std::uint64_t repairs = 0;         ///< processor revivals applied
  std::uint64_t link_cuts = 0;       ///< link cuts applied (mixed sessions)
  std::uint64_t link_restores = 0;   ///< link restorations applied
  std::uint64_t rings_embedded = 0;  ///< events after which a ring existed
  std::uint64_t no_embeddings = 0;   ///< events leaving a beyond-guarantee state
  /// Rings served by locally splicing the previous ring instead of a full
  /// re-solve (EngineOptions::incremental_repair; EmbedResponse::repaired).
  std::uint64_t repaired_rings = 0;
};

/// Bridges faults of a sim::Engine into a stateful service::EmbedSession
/// over the same B(d,n), composing the three layers: the simulator decides
/// who dies (and recovers) and which links are cut (and restored), the
/// session re-solves the surviving ring incrementally against its pinned
/// context, and the ring is by construction usable by any protocol running
/// on the live network — it avoids every dead processor and every cut link.
class SessionDriver {
 public:
  /// The session must take node faults (fail-stop kills only) or mixed
  /// faults (kills plus link cuts), and the network must have one processor
  /// per B(d,n) node. Throws precondition_error otherwise.
  SessionDriver(Engine& net, service::EmbedSession& session);

  /// Fail-stop kill: the processor dies in the network and its node joins
  /// the session's fault set.
  void kill(NodeId v);

  /// Repair: the processor rejoins the network and its fault clears.
  void repair(NodeId v);

  /// Link cut: the De Bruijn edge u -> v encoded by the (n+1)-digit edge
  /// word dies in the network and the word joins the session's edge-fault
  /// set. Requires a kMixed session. Loop words a^(n+1) only touch the
  /// session (the simulator topology has no self-links to cut).
  void cut_link(Word edge_word);

  /// Restores a cut link and clears its edge fault.
  void restore_link(Word edge_word);

  /// The ring avoiding every dead processor and cut link (re-solved only
  /// after churn).
  service::EmbedResponse current_ring();

  /// The simulated network.
  Engine& net() { return *net_; }
  /// The driven embedding session.
  service::EmbedSession& session() { return *session_; }
  /// Outcome counters accumulated so far.
  const ChurnDriveStats& stats() const { return stats_; }

 private:
  Engine* net_;
  service::EmbedSession* session_;
  ChurnDriveStats stats_;
};

/// Replays a ChurnScript (verify/scenario's churn regime) through the
/// driver, re-solving after every event: node adds become fail-stop kills
/// and node clears repairs; in a mixed script, edge adds become link cuts
/// and edge clears link restorations. Node scripts drive kNode or kMixed
/// sessions; mixed scripts require a kMixed session. Returns the
/// aggregated outcome counters.
ChurnDriveStats drive_script(SessionDriver& driver,
                             const verify::ChurnScript& script);

}  // namespace dbr::sim
