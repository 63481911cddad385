//! The clone-and-reprice reference solver the differential tests compare
//! [`super::solve_joint`] against: every best response builds a `BTreeMap`
//! of the other sessions' hops and a fresh priced copy of the graph, and
//! every DP bounds itself on that copy.  Every [`JointSolution`] the
//! in-place solver returns must equal this one's field for field, to the
//! bit; change neither without the other.

use super::{aggregate_of, JointOptions, JointSession, JointSolution};
use crate::delay::{evaluate_mapping, DelayBreakdown, Mapping};
use crate::dp::{optimize_warm, optimize_with};
use crate::network::NetGraph;
use std::collections::BTreeMap;

/// Count, per directed link `(from, to)`, how many of the given mappings
/// traverse it.  A mapping traversing a link twice (possible only through
/// relay walks) counts twice — it really does put two transfers there.
fn link_loads(mappings: &[Mapping], skip: Option<usize>) -> BTreeMap<(usize, usize), u32> {
    let mut loads = BTreeMap::new();
    for (i, mapping) in mappings.iter().enumerate() {
        if Some(i) == skip {
            continue;
        }
        for hop in mapping.path.windows(2) {
            *loads.entry((hop[0], hop[1])).or_insert(0) += 1;
        }
    }
    loads
}

/// A copy of `graph` with every loaded link's bandwidth divided by
/// `extra + load` (pricing: `extra = 1` prices the solving session's own
/// share on top of the others'; contended evaluation uses `extra = 0`
/// with loads that include every session).
pub(super) fn priced_graph(
    graph: &NetGraph,
    loads: &BTreeMap<(usize, usize), u32>,
    extra: u32,
) -> NetGraph {
    let mut priced = graph.clone();
    for (&(from, to), &load) in loads {
        let divisor = (extra + load) as f64;
        if divisor <= 1.0 {
            continue;
        }
        if let Some(link) = graph.link_between(from, to) {
            priced.set_measured(from, to, link.bandwidth / divisor, link.delay);
        }
    }
    priced
}

/// The graph session `skip` solves against: every link priced by the other
/// sessions' hops plus its own prospective share.
pub(super) fn best_response_graph(graph: &NetGraph, current: &[Mapping], skip: usize) -> NetGraph {
    priced_graph(graph, &link_loads(current, Some(skip)), 1)
}

pub(super) fn contended_delays(
    sessions: &[JointSession],
    graph: &NetGraph,
    mappings: &[Mapping],
) -> Vec<DelayBreakdown> {
    let loads = link_loads(mappings, None);
    let contended = priced_graph(graph, &loads, 0);
    sessions
        .iter()
        .zip(mappings)
        .map(|(s, m)| evaluate_mapping(&s.pipeline, &contended, m))
        .collect()
}

pub(super) fn solve_joint(
    sessions: &[JointSession],
    graph: &NetGraph,
    options: &JointOptions,
) -> Option<JointSolution> {
    // Round zero: every session solves the pristine graph in isolation.
    let mut current: Vec<Mapping> = Vec::with_capacity(sessions.len());
    for s in sessions {
        let (opt, _) = optimize_with(&s.pipeline, graph, s.source, s.destination, &options.dp);
        current.push(opt?.mapping);
    }
    let independent_mappings = current.clone();
    let independent_contended = contended_delays(sessions, graph, &current);
    let independent_aggregate = aggregate_of(&independent_contended);

    let mut best = current.clone();
    let mut best_aggregate = independent_aggregate;
    let mut converged = sessions.len() <= 1;
    let mut rounds_used = 0;

    if !converged {
        for round in 1..=options.max_rounds {
            rounds_used = round;
            let mut changed = false;
            for i in 0..sessions.len() {
                let priced = best_response_graph(graph, &current, i);
                let s = &sessions[i];
                let (opt, _) = optimize_warm(
                    &s.pipeline,
                    &priced,
                    s.source,
                    s.destination,
                    &options.dp,
                    &current[i],
                );
                if let Some(opt) = opt {
                    if opt.mapping != current[i] {
                        current[i] = opt.mapping;
                        changed = true;
                    }
                }
            }
            let aggregate = aggregate_of(&contended_delays(sessions, graph, &current));
            if aggregate + 1e-12 < best_aggregate {
                best_aggregate = aggregate;
                best = current.clone();
            }
            if !changed {
                converged = true;
                break;
            }
        }
    }

    let contended = contended_delays(sessions, graph, &best);
    let aggregate = aggregate_of(&contended);
    Some(JointSolution {
        mappings: best,
        contended,
        aggregate,
        independent_mappings,
        independent_contended,
        independent_aggregate,
        rounds_used,
        converged,
    })
}
