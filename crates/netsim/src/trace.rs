//! Trace records emitted by applications and collected by the engine.
//!
//! The trace holds only what a reader needs from the run and cannot get
//! elsewhere: when the data source began serving each iteration, when the
//! client finished it, and per-stage timings.  The frame audit of the loop
//! drivers pairs the first two into exactly-once delivery counts and loop
//! delays.  Per-flow numbers (goodput samples, completion time) stay in the
//! transport's `FlowStats`, link changes in [`crate::sim::SimStats`].

use crate::node::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A single trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time at which the record was emitted (filled in by the engine).
    pub at: SimTime,
    /// Node that emitted the record (filled in by the engine).
    pub node: NodeId,
    /// Structured payload.
    pub kind: TraceKind,
}

/// The payload of a trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A visualization stage finished on this node.
    StageCompleted {
        /// Human-readable stage name (e.g. "isosurface").
        stage: String,
        /// Processing time, seconds.
        elapsed: f64,
        /// Output size in bytes handed to the next stage.
        output_bytes: usize,
    },
    /// The data source began serving a steering iteration.
    IterationStarted {
        /// Iteration (simulation cycle) number.
        iteration: u64,
    },
    /// An end-to-end steering iteration completed (image delivered to the
    /// client).
    IterationCompleted {
        /// Iteration (simulation cycle) number.
        iteration: u64,
    },
}

impl TraceEvent {
    /// Create a record with placeholder time/node; the engine overwrites both
    /// when the record is collected.
    pub fn new(kind: TraceKind) -> Self {
        TraceEvent {
            at: SimTime::ZERO,
            node: NodeId(0),
            kind,
        }
    }
}

/// A collected trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// All records in emission order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Append a record.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_event_has_placeholder_origin() {
        let e = TraceEvent::new(TraceKind::IterationStarted { iteration: 1 });
        assert_eq!(e.at, SimTime::ZERO);
        assert_eq!(e.node, NodeId(0));
    }
}
