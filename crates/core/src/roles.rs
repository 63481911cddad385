//! The central-management and client/front-end roles.
//!
//! The CM node receives steering requests from the Ajax front end,
//! distributes the visualization routing table to the loop participants, and
//! triggers the data source.  The client-side driving logic (issuing the
//! initial request and pacing subsequent iterations so that "the simulation
//! does not proceed until the image from the last time step is delivered")
//! lives in the client stage configuration (see [`crate::session`]); the CM
//! application here is the relay that the paper places at LSU.

use crate::message::{ControlMessage, DedupFilter};
use crate::stage::send_control;
use ricsa_netsim::app::{Application, Context};
use ricsa_netsim::node::NodeId;
use ricsa_pipemap::vrt::VisualizationRoutingTable;

/// The central-management application (the paper's CM node at LSU).
pub struct CentralManagerApp {
    session: u64,
    data_source: NodeId,
    participants: Vec<NodeId>,
    vrt: VisualizationRoutingTable,
    dedup: DedupFilter,
}

impl CentralManagerApp {
    /// Create the CM application for a planned session.
    pub fn new(
        session: u64,
        data_source: NodeId,
        participants: Vec<NodeId>,
        vrt: VisualizationRoutingTable,
    ) -> Self {
        CentralManagerApp {
            session,
            data_source,
            participants,
            vrt,
            dedup: DedupFilter::new(),
        }
    }
}

impl Application for CentralManagerApp {
    fn on_datagram(&mut self, ctx: &mut Context, dg: ricsa_netsim::packet::Datagram) {
        let msg = match ControlMessage::from_payload(&dg.payload) {
            Some(m) => m,
            None => return,
        };
        if !self.dedup.accept(&msg) {
            return;
        }
        match msg {
            ControlMessage::SteeringRequest { .. } => {
                // Distribute the routing table to every participant, then
                // start the first iteration at the data source.
                for &node in &self.participants {
                    send_control(
                        ctx,
                        node,
                        &ControlMessage::VrtDelivery {
                            session: self.session,
                            table: self.vrt.clone(),
                        },
                    );
                }
                send_control(
                    ctx,
                    self.data_source,
                    &ControlMessage::BeginIteration {
                        session: self.session,
                        iteration: 0,
                    },
                );
            }
            ControlMessage::BeginIteration { session, iteration }
                // Subsequent iterations are requested by the client after it
                // receives each image; the CM relays them to the source.
                if session == self.session => {
                    send_control(
                        ctx,
                        self.data_source,
                        &ControlMessage::BeginIteration { session, iteration },
                    );
                }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::KIND_CONTROL;
    use ricsa_netsim::packet::{Datagram, Payload};
    use ricsa_netsim::time::SimTime;
    use ricsa_pipemap::delay::Mapping;
    use ricsa_pipemap::network::NetGraph;
    use ricsa_pipemap::pipeline::{ModuleSpec, Pipeline};
    use ricsa_pipemap::vrt::VisualizationRoutingTable;

    fn sample_vrt() -> VisualizationRoutingTable {
        let pipeline = Pipeline::new(
            "iso",
            1e6,
            vec![
                ModuleSpec::new("filter", 1e-9, 1e6),
                ModuleSpec::new("render", 1e-9, 1e5),
            ],
        );
        let mut g = NetGraph::new();
        g.add_node("ds", 1.0, true);
        g.add_node("client", 1.0, true);
        g.add_bidirectional(0, 1, 1e6, 0.01);
        let mapping = Mapping {
            path: vec![0, 1],
            groups: vec![vec![0], vec![1]],
        };
        VisualizationRoutingTable::from_mapping(&pipeline, &g, &mapping, 1.0)
    }

    fn request() -> ControlMessage {
        ControlMessage::SteeringRequest {
            request_id: 1,
            source: "Jet".into(),
            variable: "pressure".into(),
            isovalue: 0.5,
            octant: None,
        }
    }

    fn datagram(msg: &ControlMessage) -> Datagram {
        Datagram {
            dst: NodeId(1),
            payload: msg.to_payload(),
        }
    }

    #[test]
    fn steering_request_triggers_vrt_delivery_and_begin() {
        let mut cm = CentralManagerApp::new(7, NodeId(3), vec![NodeId(3), NodeId(4)], sample_vrt());
        let mut ctx = Context::new(NodeId(1), SimTime::from_secs(2.0), vec![0.5]);
        cm.on_datagram(&mut ctx, datagram(&request()));
        let begins = ctx
            .outgoing()
            .iter()
            .filter_map(|s| ControlMessage::from_payload(&s.payload))
            .filter(|m| matches!(m, ControlMessage::BeginIteration { iteration: 0, .. }))
            .count();
        assert!(begins >= 1);
        let vrt_deliveries = ctx
            .outgoing()
            .iter()
            .filter(|s| s.payload.kind == KIND_CONTROL)
            .filter_map(|s| ControlMessage::from_payload(&s.payload))
            .filter(|m| matches!(m, ControlMessage::VrtDelivery { .. }))
            .count();
        assert!(
            vrt_deliveries >= 2,
            "one delivery per participant (redundant copies allowed)"
        );
        // Duplicate request copies are ignored.
        let mut ctx2 = Context::new(NodeId(1), SimTime::from_secs(2.0), vec![0.5]);
        cm.on_datagram(&mut ctx2, datagram(&request()));
        assert!(ctx2.outgoing().is_empty());
    }

    #[test]
    fn begin_iteration_is_relayed_to_the_source_for_matching_sessions() {
        let mut cm = CentralManagerApp::new(7, NodeId(3), vec![], sample_vrt());
        let mut ctx = Context::new(NodeId(1), SimTime::ZERO, vec![0.5]);
        cm.on_datagram(
            &mut ctx,
            datagram(&ControlMessage::BeginIteration {
                session: 7,
                iteration: 4,
            }),
        );
        assert!(ctx.outgoing().iter().all(|s| s.dst == NodeId(3)));
        assert!(!ctx.outgoing().is_empty());
        // Wrong session: nothing forwarded.
        let mut ctx2 = Context::new(NodeId(1), SimTime::ZERO, vec![0.5]);
        cm.on_datagram(
            &mut ctx2,
            datagram(&ControlMessage::BeginIteration {
                session: 8,
                iteration: 4,
            }),
        );
        assert!(ctx2.outgoing().is_empty());
    }

    #[test]
    fn non_control_datagrams_are_ignored() {
        let mut cm = CentralManagerApp::new(1, NodeId(0), vec![], sample_vrt());
        let mut ctx = Context::new(NodeId(1), SimTime::ZERO, vec![0.5]);
        cm.on_datagram(
            &mut ctx,
            Datagram {
                dst: NodeId(1),
                payload: Payload::opaque(100),
            },
        );
        assert!(ctx.outgoing().is_empty());
    }
}
