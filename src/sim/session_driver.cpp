#include "sim/session_driver.hpp"

#include "util/require.hpp"
#include "verify/oracle.hpp"

namespace dbr::sim {

namespace {

using service::FaultKind;
// Loop words a^(n+1) encode a^n -> a^n, which is not a physical link of
// the simulator topology; the shared predicate lives in verify/oracle.hpp.
using verify::is_loop_edge_word;

}  // namespace

SessionDriver::SessionDriver(Engine& net, service::EmbedSession& session)
    : net_(&net), session_(&session) {
  require(session.fault_kind() == FaultKind::kNode ||
              session.fault_kind() == FaultKind::kMixed,
          "fail-stop kills are node faults; the session must take node or "
          "mixed faults");
  require(net.num_nodes() == session.context()->words().size(),
          "network size must match B(d,n) of the session's instance");
}

void SessionDriver::kill(NodeId v) {
  net_->kill(v);
  if (session_->add_fault(FaultKind::kNode, v)) ++stats_.kills;
}

void SessionDriver::repair(NodeId v) {
  net_->revive(v);
  if (session_->clear_fault(FaultKind::kNode, v)) ++stats_.repairs;
}

void SessionDriver::cut_link(Word edge_word) {
  require(session_->fault_kind() == FaultKind::kMixed,
          "link cuts need a mixed session (edge faults beside kills)");
  const WordSpace& ws = session_->context()->words();
  if (!is_loop_edge_word(ws, edge_word)) {
    const auto [u, v] = ws.edge_endpoints(edge_word);
    net_->cut_link(u, v);
  }
  if (session_->add_fault(FaultKind::kEdge, edge_word)) ++stats_.link_cuts;
}

void SessionDriver::restore_link(Word edge_word) {
  require(session_->fault_kind() == FaultKind::kMixed,
          "link cuts need a mixed session (edge faults beside kills)");
  const WordSpace& ws = session_->context()->words();
  if (!is_loop_edge_word(ws, edge_word)) {
    const auto [u, v] = ws.edge_endpoints(edge_word);
    net_->restore_link(u, v);
  }
  if (session_->clear_fault(FaultKind::kEdge, edge_word)) ++stats_.link_restores;
}

service::EmbedResponse SessionDriver::current_ring() {
  service::EmbedResponse response = session_->current_ring();
  if (response.ok()) {
    ++stats_.rings_embedded;
  } else {
    ++stats_.no_embeddings;
  }
  if (response.repaired) ++stats_.repaired_rings;
  return response;
}

ChurnDriveStats drive_script(SessionDriver& driver,
                             const verify::ChurnScript& script) {
  const FaultKind script_kind = script.base_request.fault_kind;
  require(script_kind == FaultKind::kNode || script_kind == FaultKind::kMixed,
          "drive_script replays node-fault (fail-stop) or mixed scripts");
  // Fail fast, before any event mutates the network or the session: a
  // mixed script's edge events need a mixed session.
  require(script_kind == FaultKind::kNode ||
              driver.session().fault_kind() == FaultKind::kMixed,
          "a mixed churn script requires a mixed session");
  for (const verify::ChurnEvent& event : script.events) {
    if (event.kind == FaultKind::kEdge) {
      if (event.add) {
        driver.cut_link(event.fault);
      } else {
        driver.restore_link(event.fault);
      }
    } else if (event.add) {
      driver.kill(event.fault);
    } else {
      driver.repair(event.fault);
    }
    driver.current_ring();
  }
  return driver.stats();
}

}  // namespace dbr::sim
