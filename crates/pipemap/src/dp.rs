//! The dynamic-programming pipeline optimizer (paper Eqs. 9–10).
//!
//! `T^j(v_i)` is the minimal total delay of mapping the first `j` messages
//! (equivalently, the first `j + 1` modules) onto a walk from the source
//! node `v_s` to node `v_i`.  The recursion either keeps module `M_{j+1}` on
//! the same node as its predecessor (inheriting `T^{j-1}(v_i)`) or pulls the
//! message `m_j` across one incoming link from a neighbour `u`
//! (`T^{j-1}(u) + m_j / b_{u,v_i}`), in both cases adding the computing time
//! `c_{j+1} · m_j / p_{v_i}`.  The answer is `T^n(v_d)`; backtracking the
//! argmin pointers yields the group decomposition and the routing path.
//! The running time is `O(n · |E|)`, which is the paper's complexity claim.
//!
//! Extensions over the paper's formulation, all noted in DESIGN.md:
//!
//! * the base case also allows placing the first processing module on the
//!   source node itself (needed to express the paper's own PC–PC
//!   experiments, where isosurface extraction runs on the data-source host);
//! * a per-module feasibility predicate (graphics capability) is enforced
//!   exactly as Section 4.5 describes ("the scenario with failed feasibility
//!   check is simply discarded");
//! * optional **dominance pruning** ([`DpOptions::prune`]) discards states
//!   that provably cannot lie on an optimal walk, without changing the
//!   optimum (DESIGN.md §6.3 gives the argument);
//! * optional **relay hops** ([`DpOptions::relay`]): between two module
//!   placements the message may traverse a chain of pure-forwarding nodes.
//!   The paper's recursion crosses exactly one link per message, so on
//!   sparse wide-area topologies (trees, transit-stub graphs) a destination
//!   more than `n` hops from the source is unreachable; the relay extension
//!   closes each DP layer under minimum-cost forwarding, which makes every
//!   connected instance feasible.  It is off by default — the default
//!   semantics stay exactly the paper's.

use crate::delay::{evaluate_mapping, validate_mapping, DelayBreakdown, Mapping};
use crate::network::{dijkstra, EdgeDir, NetGraph};
use crate::pipeline::Pipeline;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Relative inflation applied to a warm-start incumbent's evaluated delay
/// before it seeds the pruner's upper bound.  The incumbent's cost and the
/// recursion's objective sum the same terms in different association
/// orders; without this slack an incumbent that *is* the optimum could
/// prune the optimal walk by an ulp.  The inflation only weakens the
/// bound, so the returned objective stays exactly the cold recursion's.
const WARM_START_SLACK: f64 = 1e-9;

/// The result of the dynamic-programming optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizedMapping {
    /// The chosen mapping (path plus group decomposition).
    pub mapping: Mapping,
    /// Its predicted delay breakdown under the analytical model.
    pub delay: DelayBreakdown,
    /// The raw optimal objective value `T^n(v_d)` from the recursion (equal
    /// to `delay.total` up to floating-point round-off).
    pub objective: f64,
}

/// Options controlling the dynamic-programming solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpOptions {
    /// Enable dominance pruning.  Pruning is exact — it never changes the
    /// optimal objective — and is on by default; turn it off only for
    /// cross-checks and benchmarks.
    pub prune: bool,
    /// Allow pure-forwarding relay hops between module placements (off by
    /// default: the paper's recursion crosses exactly one link per message).
    pub relay: bool,
}

impl Default for DpOptions {
    fn default() -> Self {
        DpOptions {
            prune: true,
            relay: false,
        }
    }
}

impl DpOptions {
    /// Relay-extended semantics with pruning, used by the scenario sweeps
    /// whose generated WANs are too sparse for single-link message hops.
    pub fn relayed() -> Self {
        DpOptions {
            prune: true,
            relay: true,
        }
    }
}

/// Work counters reported by [`optimize_with`], used by the scaling
/// benchmarks to quantify what pruning saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpStats {
    /// States `(module, node)` whose outgoing relaxations were performed.
    pub states_expanded: u64,
    /// States discarded by the dominance bound before relaxation.
    pub states_pruned: u64,
}

/// Optimize the placement of `pipeline` onto `graph` from `source` to
/// `destination` with default options (pruning on, paper-faithful walk
/// semantics).  Returns `None` when no feasible placement exists (e.g. the
/// destination is unreachable or a graphics-requiring module cannot be
/// placed anywhere along any walk).
pub fn optimize(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    destination: usize,
) -> Option<OptimizedMapping> {
    optimize_with(pipeline, graph, source, destination, &DpOptions::default()).0
}

/// Transport lower-bound tables computed once and lent to many solves: the
/// joint solver's sessions share destinations and message floors, and its
/// best responses re-solve the same sessions round after round.
///
/// A table built on one graph is a valid bound on any graph that is *no
/// faster* — same links, every `transfer_time` at least as large — because
/// every path then costs at least what it costs here.  The joint solver
/// builds them on the unpriced graph and solves on priced ones (pricing
/// only divides bandwidths).  A weaker bound prunes fewer states, never an
/// optimal one, and the states it spares cannot tie an optimal walk
/// (DESIGN.md §6.3), so the mapping returned is the one the solve's own
/// tables would have produced.
pub(crate) struct BoundTables {
    /// Keyed `(destination, floor bits)`.
    tables: BTreeMap<(usize, u64), Vec<f64>>,
}

impl BoundTables {
    /// One table per distinct `(destination, message floor)` among the
    /// given `(pipeline, destination)` problems, each a Dijkstra on `graph`.
    /// Destinations outside the graph get none (their solves are
    /// infeasible before any bound is asked for).
    pub(crate) fn build<'a>(
        graph: &NetGraph,
        problems: impl IntoIterator<Item = (&'a Pipeline, usize)>,
    ) -> BoundTables {
        let mut tables = BTreeMap::new();
        for (pipeline, destination) in problems {
            if destination >= graph.node_count() {
                continue;
            }
            for floor in message_floors(pipeline) {
                tables
                    .entry((destination, floor.to_bits()))
                    .or_insert_with(|| message_distance_to(graph, destination, floor));
            }
        }
        BoundTables { tables }
    }

    pub(crate) fn get(&self, destination: usize, floor: f64) -> Option<&[f64]> {
        self.tables
            .get(&(destination, floor.to_bits()))
            .map(Vec::as_slice)
    }

    /// Number of tables built.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }
}

/// `floors[j]` = the smallest message the pipeline can still emit from
/// layer `j` on: the inputs of the remaining modules, plus the finished
/// image (which relay mode may still forward; including it in walk mode
/// only weakens the bound, never invalidates it).  Empty for an empty
/// pipeline.
pub(crate) fn message_floors(pipeline: &Pipeline) -> Vec<f64> {
    let Some(last) = pipeline.modules.last() else {
        return Vec::new();
    };
    let n_modules = pipeline.message_count();
    let mut floors = vec![last.output_bytes; n_modules + 1];
    for j in (0..n_modules).rev() {
        floors[j] = floors[j + 1].min(pipeline.input_bytes(j));
    }
    floors
}

/// Pruning context: lower bounds on what any completion must still pay, and
/// the cheapest known feasible completion (the upper bound).
struct Pruner<'a> {
    /// `suffix_min_proc[j]` = Σ_{k≥j} min over feasible nodes of module
    /// `k`'s processing time — a lower bound on the remaining computing.
    suffix_min_proc: Vec<f64>,
    /// `tail_at_destination[j]` = cost of running modules `j..` all on the
    /// destination (∞ if one of them is infeasible there).
    tail_at_destination: Vec<f64>,
    /// `m_floor[j]` = the smallest message the pipeline can still emit from
    /// layer `j` on (suffix minimum of the remaining message sizes plus the
    /// finished image).
    m_floor: Vec<f64>,
    /// Lazily built transport lower bounds, keyed by floor size: the
    /// shortest distance from every node to the destination where crossing
    /// a link costs `transfer_time(floor)`.  Valid because every remaining
    /// link crossing carries some message of at least that size.  Built on
    /// first use — no table exists before the upper bound turns finite,
    /// and suffix minima repeat, so only a handful are ever computed.
    lb_cache: Vec<(f64, Vec<f64>)>,
    /// Per layer, the table lent by the caller for this destination and
    /// `m_floor[layer]`, if it holds one; consulted before `lb_cache`.
    lent: Vec<Option<&'a [f64]>>,
    /// Cheapest known complete feasible solution.
    upper_bound: f64,
}

impl<'a> Pruner<'a> {
    /// Build the bounds; `None` means some module is feasible nowhere (the
    /// instance has no placement at all).
    fn build(
        pipeline: &Pipeline,
        graph: &NetGraph,
        destination: usize,
        feasible: &impl Fn(usize, usize) -> bool,
        shared: Option<&'a BoundTables>,
    ) -> Option<Pruner<'a>> {
        let n_modules = pipeline.message_count();
        let n_nodes = graph.node_count();
        let mut suffix_min_proc = vec![0.0; n_modules + 1];
        let mut tail_at_destination = vec![0.0; n_modules + 1];
        for j in (0..n_modules).rev() {
            let min_proc = (0..n_nodes)
                .filter(|&v| feasible(j, v))
                .map(|v| pipeline.processing_time(j, graph.node(v).power))
                .fold(f64::INFINITY, f64::min);
            if !min_proc.is_finite() {
                return None;
            }
            suffix_min_proc[j] = suffix_min_proc[j + 1] + min_proc;
            tail_at_destination[j] = if feasible(j, destination) {
                tail_at_destination[j + 1]
                    + pipeline.processing_time(j, graph.node(destination).power)
            } else {
                f64::INFINITY
            };
        }
        let m_floor = message_floors(pipeline);
        let lent = m_floor
            .iter()
            .map(|&floor| shared.and_then(|s| s.get(destination, floor)))
            .collect();
        Some(Pruner {
            suffix_min_proc,
            tail_at_destination,
            m_floor,
            lb_cache: Vec::new(),
            lent,
            upper_bound: f64::INFINITY,
        })
    }

    /// The transport lower-bound table for `layer`, built on first use.
    fn transport_lb(&mut self, graph: &NetGraph, destination: usize, layer: usize) -> &[f64] {
        if let Some(table) = self.lent[layer] {
            return table;
        }
        let floor = self.m_floor[layer];
        if let Some(i) = self.lb_cache.iter().position(|(b, _)| *b == floor) {
            return &self.lb_cache[i].1;
        }
        let table = message_distance_to(graph, destination, floor);
        self.lb_cache.push((floor, table));
        &self.lb_cache.last().expect("just pushed").1
    }

    /// True when a state at `node` with modules `..layer` placed and cost
    /// `cost` provably cannot complete better than the upper bound.  The
    /// bound gets a one-part-in-10¹² slack: the upper bound sums the same
    /// terms as the recursion in a different association order, so without
    /// slack an optimal state could lose to its own completion by an ulp.
    fn dominated(
        &mut self,
        graph: &NetGraph,
        destination: usize,
        cost: f64,
        layer: usize,
        node: usize,
    ) -> bool {
        if !self.upper_bound.is_finite() {
            // Nothing can be dominated yet; skip building any bound table.
            return false;
        }
        let upper_bound = self.upper_bound;
        let slack = 1e-12 * upper_bound.abs().max(1.0);
        let suffix = self.suffix_min_proc[layer];
        cost + suffix + self.transport_lb(graph, destination, layer)[node] > upper_bound + slack
    }

    /// Tighten the upper bound with the completion "finish every remaining
    /// module on the destination" from the given destination cost.
    fn observe_destination(&mut self, cost_at_destination: f64, next_layer: usize) {
        if cost_at_destination.is_finite() {
            self.upper_bound = self
                .upper_bound
                .min(cost_at_destination + self.tail_at_destination[next_layer]);
        }
    }
}

/// Shortest distance from every node to `destination` along directed links,
/// where crossing a link costs `transfer_time(bytes)`: a lower bound on
/// the remaining transport cost of any completion whose messages are all
/// at least `bytes` large.
pub(crate) fn message_distance_to(graph: &NetGraph, destination: usize, bytes: f64) -> Vec<f64> {
    #[cfg(test)]
    TABLES_BUILT.with(|built| built.set(built.get() + 1));
    let mut init = vec![f64::INFINITY; graph.node_count()];
    init[destination] = 0.0;
    let (dist, _) = dijkstra(
        graph,
        &init,
        EdgeDir::Incoming,
        |link| link.transfer_time(bytes),
        |_, _| true,
    );
    dist
}

#[cfg(test)]
thread_local! {
    /// Bound tables this thread has built, for the tests that count them.
    pub(crate) static TABLES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`optimize`] with explicit [`DpOptions`], also returning work counters.
///
/// # Dominance pruning
///
/// With `options.prune` the solver maintains an upper bound `U` (the
/// cheapest known *feasible completion*: reach the destination after some
/// prefix of modules and run every remaining module there) and a per-state
/// lower bound `L(j, v) = cost(j, v) + Σ_{k>j} min_u proc(k, u) +
/// transport_lb(j, v → v_d)` (shortest path to the destination charging
/// each link the smallest message the pipeline can still emit).  Both
/// suffix terms truly lower-bound any
/// completion's remaining cost, so a state with `L > U` cannot lie on an
/// optimal walk and is discarded before its relaxations.  Pruning uses a
/// strict inequality, so at least one optimal solution always survives and
/// the returned objective is **identical** to the unpruned recursion's (the
/// cross-check tests assert this exactly).
pub fn optimize_with(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    destination: usize,
    options: &DpOptions,
) -> (Option<OptimizedMapping>, DpStats) {
    solve(pipeline, graph, source, destination, options, None, None)
}

/// Warm-started re-solve: the previous solution (`incumbent`) seeds the
/// pruner's upper bound, so the re-solve discards provably-worse states
/// from the very first layer instead of waiting for the recursion to reach
/// the destination.  The incumbent is first re-validated and re-priced on
/// the *current* graph — a stale mapping that is no longer feasible simply
/// contributes no bound.  The optimum returned is identical to a cold
/// [`optimize_with`] (the bound only discards states that cannot beat a
/// known feasible solution); what changes is the work, which the adaptive
/// re-mapping controller and the sweep records quantify.
pub fn optimize_warm(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    destination: usize,
    options: &DpOptions,
    incumbent: &Mapping,
) -> (Option<OptimizedMapping>, DpStats) {
    solve(
        pipeline,
        graph,
        source,
        destination,
        options,
        Some(incumbent),
        None,
    )
}

/// The solver behind [`optimize_with`] (no incumbent) and
/// [`optimize_warm`].  With `shared`, the pruner takes its transport lower
/// bounds from the lent tables where they hold one for this destination
/// and floor, and builds its own on `graph` otherwise; the caller vouches
/// that the tables were built on a graph no slower than `graph` (see
/// [`BoundTables`]).
pub(crate) fn solve(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    destination: usize,
    options: &DpOptions,
    incumbent: Option<&Mapping>,
    shared: Option<&BoundTables>,
) -> (Option<OptimizedMapping>, DpStats) {
    let mut stats = DpStats::default();
    let n_modules = pipeline.message_count();
    let n_nodes = graph.node_count();
    if n_modules == 0 || source >= n_nodes || destination >= n_nodes {
        return (None, stats);
    }
    let feasible = |module: usize, node: usize| -> bool {
        !pipeline.modules[module].needs_graphics || graph.node(node).has_graphics
    };
    let mut pruner = if options.prune {
        match Pruner::build(pipeline, graph, destination, &feasible, shared) {
            Some(p) => Some(p),
            // Some module is feasible nowhere: no placement exists.
            None => return (None, stats),
        }
    } else {
        None
    };
    if let (Some(p), Some(m)) = (pruner.as_mut(), incumbent) {
        // Warm start: a still-feasible incumbent is a known complete
        // solution, so its (slightly inflated, see WARM_START_SLACK)
        // evaluated delay upper-bounds the optimum from the outset.  The
        // incumbent must lie in the *searched* space: a relay mapping
        // (forwarding hops = empty groups beyond the source) can be
        // cheaper than every pure walk, and seeding a walk search with it
        // would prune away all walk solutions.
        let in_space = options.relay || m.groups.iter().skip(1).all(|g| !g.is_empty());
        if in_space && validate_mapping(pipeline, graph, m).is_ok() {
            let cost = evaluate_mapping(pipeline, graph, m).total;
            if cost.is_finite() {
                p.upper_bound = cost * (1.0 + WARM_START_SLACK);
            }
        }
    }
    if options.relay {
        relay_dp(
            pipeline,
            graph,
            source,
            destination,
            &feasible,
            pruner.as_mut(),
            &mut stats,
        )
    } else {
        walk_dp(
            pipeline,
            graph,
            source,
            destination,
            &feasible,
            pruner.as_mut(),
            &mut stats,
        )
    }
}

/// The paper-faithful recursion: each message crosses at most one link.
fn walk_dp(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    destination: usize,
    feasible: &impl Fn(usize, usize) -> bool,
    mut pruner: Option<&mut Pruner<'_>>,
    stats: &mut DpStats,
) -> (Option<OptimizedMapping>, DpStats) {
    let n_modules = pipeline.message_count();
    let n_nodes = graph.node_count();

    // cost[j][v] = T^{j+1}(v) (0-based j over modules).
    let mut cost = vec![vec![f64::INFINITY; n_nodes]; n_modules];
    // parent[j][v] = node hosting module j-1 in the optimal sub-solution.
    let mut parent = vec![vec![usize::MAX; n_nodes]; n_modules];

    // Base case: place the first processing module either on the source
    // itself or on a direct neighbour of the source.
    for v in 0..n_nodes {
        if !feasible(0, v) {
            continue;
        }
        let proc = pipeline.processing_time(0, graph.node(v).power);
        if v == source {
            cost[0][v] = proc;
            parent[0][v] = source;
        } else if let Some(link) = graph.link_between(source, v) {
            cost[0][v] = proc + link.transfer_time(pipeline.source_bytes);
            parent[0][v] = source;
        }
    }
    if let Some(p) = pruner.as_deref_mut() {
        p.observe_destination(cost[0][destination], 1);
    }

    // Recursion over the remaining modules, relaxing push-style out of each
    // live predecessor state so pruned states cost nothing.
    for j in 1..n_modules {
        let message_bytes = pipeline.input_bytes(j);
        let proc: Vec<f64> = (0..n_nodes)
            .map(|v| pipeline.processing_time(j, graph.node(v).power))
            .collect();
        let module_feasible: Vec<bool> = (0..n_nodes).map(|v| feasible(j, v)).collect();
        let (prev_layers, rest) = cost.split_at_mut(j);
        let prev = &prev_layers[j - 1];
        let next = &mut rest[0];
        for u in 0..n_nodes {
            if !prev[u].is_finite() {
                continue;
            }
            if let Some(p) = pruner.as_deref_mut() {
                if p.dominated(graph, destination, prev[u], j, u) {
                    stats.states_pruned += 1;
                    continue;
                }
            }
            stats.states_expanded += 1;
            // Sub-case 1: inherit (module j stays on the same node as j-1).
            if module_feasible[u] {
                let candidate = prev[u] + proc[u];
                if candidate < next[u] {
                    next[u] = candidate;
                    parent[j][u] = u;
                }
            }
            // Sub-case 2: push the message across an outgoing link.
            for &lid in graph.outgoing_links(u) {
                let link = graph.link(lid);
                let v = link.to;
                if !module_feasible[v] {
                    continue;
                }
                let candidate = prev[u] + proc[v] + link.transfer_time(message_bytes);
                if candidate < next[v] {
                    next[v] = candidate;
                    parent[j][v] = u;
                }
            }
        }
        if let Some(p) = pruner.as_deref_mut() {
            p.observe_destination(cost[j][destination], j + 1);
        }
    }

    let objective = cost[n_modules - 1][destination];
    if !objective.is_finite() {
        return (None, *stats);
    }

    // Backtrack the node hosting each module.
    let mut hosts = vec![0usize; n_modules];
    hosts[n_modules - 1] = destination;
    for j in (1..n_modules).rev() {
        hosts[j - 1] = parent[j][hosts[j]];
    }
    let first_parent = parent[0][hosts[0]];

    // Convert the per-module host list into a path + group decomposition.
    let mut path = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if first_parent != hosts[0] {
        // The source serves the raw data but runs no module.
        path.push(first_parent);
        groups.push(Vec::new());
    }
    for (module, &host) in hosts.iter().enumerate() {
        if path.last() != Some(&host) {
            path.push(host);
            groups.push(Vec::new());
        }
        groups
            .last_mut()
            .expect("path is non-empty by construction")
            .push(module);
    }

    finish(pipeline, graph, path, groups, objective, stats)
}

/// The relay-extended recursion: before each module placement (and after
/// the last one) the current message may traverse a minimum-cost chain of
/// pure-forwarding nodes.  Implemented as a multi-source Dijkstra closure
/// of each DP layer with edge weight `transfer_time(message)`.
fn relay_dp(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    destination: usize,
    feasible: &impl Fn(usize, usize) -> bool,
    mut pruner: Option<&mut Pruner<'_>>,
    stats: &mut DpStats,
) -> (Option<OptimizedMapping>, DpStats) {
    let n_modules = pipeline.message_count();
    let n_nodes = graph.node_count();

    let mut cost: Vec<Vec<f64>> = Vec::with_capacity(n_modules);
    // relay_parent[j][v]: predecessor of v in the relay chain that carried
    // message m_j towards module j's host (MAX at the chain's seed).
    let mut relay_parent: Vec<Vec<usize>> = Vec::with_capacity(n_modules);

    let mut seed = vec![f64::INFINITY; n_nodes];
    seed[source] = 0.0;
    for j in 0..n_modules {
        let (closed, rp) = relay_closure(
            graph,
            &seed,
            pipeline.input_bytes(j),
            j,
            destination,
            pruner.as_deref_mut(),
            stats,
        );
        let mut layer = vec![f64::INFINITY; n_nodes];
        for v in 0..n_nodes {
            if feasible(j, v) && closed[v].is_finite() {
                layer[v] = closed[v] + pipeline.processing_time(j, graph.node(v).power);
            }
        }
        if let Some(p) = pruner.as_deref_mut() {
            p.observe_destination(layer[destination], j + 1);
        }
        seed = layer.clone();
        cost.push(layer);
        relay_parent.push(rp);
    }
    // The finished image may still be forwarded to the client.
    let trailing_bytes = pipeline
        .modules
        .last()
        .expect("pipelines are non-empty")
        .output_bytes;
    let (final_closure, final_rp) = relay_closure(
        graph,
        &cost[n_modules - 1],
        trailing_bytes,
        n_modules,
        destination,
        pruner,
        stats,
    );
    let objective = final_closure[destination];
    if !objective.is_finite() {
        return (None, *stats);
    }

    // Backtrack: find each module's host by walking the relay chains from
    // the destination backwards.
    let chain_of = |rp: &[usize], end: usize| -> Vec<usize> {
        let mut chain = vec![end];
        let mut at = end;
        while rp[at] != usize::MAX {
            at = rp[at];
            chain.push(at);
        }
        chain.reverse(); // seed .. end
        chain
    };
    let mut hosts = vec![0usize; n_modules];
    hosts[n_modules - 1] = chain_of(&final_rp, destination)[0];
    for j in (1..n_modules).rev() {
        hosts[j - 1] = chain_of(&relay_parent[j], hosts[j])[0];
    }

    // Assemble the walk: relay nodes carry empty groups.
    let mut path: Vec<usize> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let push_node = |path: &mut Vec<usize>, groups: &mut Vec<Vec<usize>>, node: usize| {
        if path.last() != Some(&node) {
            path.push(node);
            groups.push(Vec::new());
        }
    };
    for (j, &host) in hosts.iter().enumerate() {
        for node in chain_of(&relay_parent[j], host) {
            push_node(&mut path, &mut groups, node);
        }
        groups
            .last_mut()
            .expect("path is non-empty by construction")
            .push(j);
    }
    for node in chain_of(&final_rp, destination) {
        push_node(&mut path, &mut groups, node);
    }

    finish(pipeline, graph, path, groups, objective, stats)
}

/// Multi-source Dijkstra closure: starting from per-node costs `seed`,
/// the cheapest cost of having the message of size `bytes` available at
/// every node after any chain of forwarding hops.  `layer` is the index of
/// the next module to place (used by the pruning bound).
fn relay_closure(
    graph: &NetGraph,
    seed: &[f64],
    bytes: f64,
    layer: usize,
    destination: usize,
    mut pruner: Option<&mut Pruner<'_>>,
    stats: &mut DpStats,
) -> (Vec<f64>, Vec<usize>) {
    // Extraction-time dominance: any solution whose relay chain passes
    // through a settled node at this layer costs at least its distance plus
    // the remaining lower bounds, so a dominated node need not relax out —
    // chains through it are provably not optimal.
    dijkstra(
        graph,
        seed,
        EdgeDir::Outgoing,
        |link| link.transfer_time(bytes),
        |u, d| {
            if let Some(p) = pruner.as_deref_mut() {
                if p.dominated(graph, destination, d, layer, u) {
                    stats.states_pruned += 1;
                    return false;
                }
            }
            stats.states_expanded += 1;
            true
        },
    )
}

/// Shared tail: wrap a backtracked walk into an [`OptimizedMapping`].
fn finish(
    pipeline: &Pipeline,
    graph: &NetGraph,
    path: Vec<usize>,
    groups: Vec<Vec<usize>>,
    objective: f64,
    stats: &mut DpStats,
) -> (Option<OptimizedMapping>, DpStats) {
    let mapping = Mapping { path, groups };
    let delay = evaluate_mapping(pipeline, graph, &mapping);
    (
        Some(OptimizedMapping {
            mapping,
            delay,
            objective,
        }),
        *stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::validate_mapping;
    use crate::pipeline::ModuleSpec;
    use crate::testutil::{random_instance, XorShift};

    /// The three-stage pipeline and three-node network from the delay tests:
    /// a weak source, a powerful middle node, and the client.
    fn setup() -> (Pipeline, NetGraph) {
        let pipeline = Pipeline::new(
            "test",
            1_000_000.0,
            vec![
                ModuleSpec::new("filter", 1e-8, 1_000_000.0),
                ModuleSpec::new("extract", 1e-7, 200_000.0),
                ModuleSpec::new("render", 5e-8, 50_000.0).requiring_graphics(),
            ],
        );
        let mut g = NetGraph::new();
        let src = g.add_node("src", 1.0, false);
        let mid = g.add_node("mid", 8.0, true);
        let dst = g.add_node("dst", 1.0, true);
        g.add_bidirectional(src, mid, 1e6, 0.01);
        g.add_bidirectional(mid, dst, 2e6, 0.01);
        g.add_bidirectional(src, dst, 0.25e6, 0.03);
        (pipeline, g)
    }

    #[test]
    fn optimizer_finds_a_valid_mapping_ending_at_the_client() {
        let (p, g) = setup();
        let opt = optimize(&p, &g, 0, 2).expect("a feasible mapping exists");
        assert_eq!(*opt.mapping.path.first().unwrap(), 0);
        assert_eq!(*opt.mapping.path.last().unwrap(), 2);
        assert!((opt.objective - opt.delay.total).abs() < 1e-6);
        // The optimizer must not be worse than the plain client/server
        // mapping it could always fall back to.
        let client_server = Mapping {
            path: vec![0, 2],
            groups: vec![vec![], vec![0, 1, 2]],
        };
        let cs = evaluate_mapping(&p, &g, &client_server);
        assert!(opt.delay.total <= cs.total + 1e-9);
    }

    #[test]
    fn optimizer_uses_the_powerful_intermediate_node_for_heavy_extraction() {
        // With the default (cheap) extraction the optimizer correctly keeps
        // everything on the source/client pair; once extraction is made
        // compute-heavy, offloading to the 8x-faster cluster must win.
        let (_, g) = setup();
        let heavy = Pipeline::new(
            "heavy",
            1_000_000.0,
            vec![
                ModuleSpec::new("filter", 1e-8, 1_000_000.0),
                ModuleSpec::new("extract", 1e-6, 200_000.0),
                ModuleSpec::new("render", 5e-8, 50_000.0).requiring_graphics(),
            ],
        );
        let opt = optimize(&heavy, &g, 0, 2).unwrap();
        assert!(
            opt.mapping.path.contains(&1),
            "expected the mid cluster in {:?}",
            opt.mapping.path
        );
        // The extraction module specifically must sit on the cluster.
        let extract_group = opt
            .mapping
            .groups
            .iter()
            .position(|grp| grp.contains(&1))
            .unwrap();
        assert_eq!(opt.mapping.path[extract_group], 1);
    }

    #[test]
    fn graphics_constraint_keeps_rendering_off_headless_nodes() {
        let (p, mut g) = setup();
        // Make even the destination headless except for a fourth node that
        // is the only graphics-capable host.
        let gpu = g.add_node("gpu", 2.0, true);
        g.add_bidirectional(2, gpu, 5e6, 0.005);
        // Destination remains node 2 (has graphics), so rendering may stay
        // there; but if we strip its graphics the render module must move to
        // the gpu node, which is not the destination -> the image is still
        // delivered to node 2 only if the model allows a trailing transfer,
        // which the DP (faithful to the paper) does not.  So instead verify
        // the optimizer simply refuses infeasible placements: make every
        // node except `gpu` headless and ask for destination `gpu`.
        let mut strict = NetGraph::new();
        let s = strict.add_node("src", 1.0, false);
        let m = strict.add_node("mid", 8.0, false);
        let d = strict.add_node("gpu-client", 1.0, true);
        strict.add_bidirectional(s, m, 1e6, 0.01);
        strict.add_bidirectional(m, d, 2e6, 0.01);
        let opt = optimize(&p, &strict, s, d).unwrap();
        // The render module (index 2) must be placed on the destination.
        let render_group = opt
            .mapping
            .groups
            .iter()
            .position(|grp| grp.contains(&2))
            .unwrap();
        assert_eq!(opt.mapping.path[render_group], d);
        let _ = gpu;
    }

    #[test]
    fn infeasible_instances_return_none() {
        let (p, _) = setup();
        // No graphics anywhere: the render module cannot be placed.
        let mut g = NetGraph::new();
        let a = g.add_node("a", 1.0, false);
        let b = g.add_node("b", 1.0, false);
        g.add_bidirectional(a, b, 1e6, 0.01);
        assert!(optimize(&p, &g, a, b).is_none());
        // Unreachable destination.
        let mut g2 = NetGraph::new();
        let a2 = g2.add_node("a", 1.0, true);
        let b2 = g2.add_node("b", 1.0, true);
        let _ = (a2, b2);
        assert!(optimize(&p, &g2, 0, 1).is_none());
        // Out-of-range nodes.
        let (_, g3) = setup();
        assert!(optimize(&p, &g3, 0, 99).is_none());
        // The same instances are infeasible in every option combination.
        for prune in [false, true] {
            for relay in [false, true] {
                let opts = DpOptions { prune, relay };
                assert!(optimize_with(&p, &g, a, b, &opts).0.is_none());
                assert!(optimize_with(&p, &g2, 0, 1, &opts).0.is_none());
            }
        }
    }

    #[test]
    fn single_node_network_runs_everything_locally() {
        let p = Pipeline::new(
            "local",
            1e6,
            vec![
                ModuleSpec::new("a", 1e-8, 1e5),
                ModuleSpec::new("b", 1e-8, 1e4),
            ],
        );
        let mut g = NetGraph::new();
        let only = g.add_node("only", 2.0, true);
        let opt = optimize(&p, &g, only, only).unwrap();
        assert_eq!(opt.mapping.path, vec![only]);
        assert_eq!(opt.delay.transport, 0.0);
        assert!((opt.delay.computing - (1e-8 * 1e6 + 1e-8 * 1e5) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn faster_direct_link_wins_when_intermediate_offers_no_benefit() {
        // If the client is as powerful as the intermediate node and the
        // direct link is fast, the optimal mapping is plain client/server.
        let p = Pipeline::new(
            "cheap",
            1e6,
            vec![
                ModuleSpec::new("a", 1e-9, 1e6),
                ModuleSpec::new("b", 1e-9, 1e5),
            ],
        );
        let mut g = NetGraph::new();
        let src = g.add_node("src", 1.0, true);
        let mid = g.add_node("mid", 1.0, true);
        let dst = g.add_node("dst", 1.0, true);
        g.add_bidirectional(src, mid, 1e6, 0.05);
        g.add_bidirectional(mid, dst, 1e6, 0.05);
        g.add_bidirectional(src, dst, 100e6, 0.001);
        let opt = optimize(&p, &g, src, dst).unwrap();
        assert_eq!(opt.mapping.path, vec![src, dst]);
    }

    #[test]
    fn larger_datasets_increase_the_optimal_delay_monotonically() {
        let (_, g) = setup();
        let delays: Vec<f64> = [16e6, 64e6, 108e6]
            .iter()
            .map(|&bytes| {
                let p = Pipeline::isosurface(bytes, 2e-9, 2.5e-8, 0.35, 6e-9, 1e6);
                optimize(&p, &g, 0, 2).unwrap().delay.total
            })
            .collect();
        assert!(delays[0] < delays[1]);
        assert!(delays[1] < delays[2]);
    }

    /// Dominance pruning must never change the optimum — in either walk or
    /// relay semantics.  Seeded, so every run checks the same instances.
    #[test]
    fn pruned_dp_equals_unpruned_dp_on_random_instances() {
        for relay in [false, true] {
            let mut feasible = 0;
            let mut pruned_any = false;
            for seed in 0u64..40 {
                let mut rng = XorShift::new(seed.wrapping_add(1000));
                let n_nodes = rng.index(4, 14);
                let n_modules = rng.index(2, 7);
                let density = 0.2 + 0.7 * rng.next();
                let (pipeline, g) = random_instance(&mut rng, n_nodes, n_modules, density);
                let pruned_opts = DpOptions { prune: true, relay };
                let unpruned_opts = DpOptions {
                    prune: false,
                    relay,
                };
                let (pruned, pstats) = optimize_with(&pipeline, &g, 0, n_nodes - 1, &pruned_opts);
                let (unpruned, ustats) =
                    optimize_with(&pipeline, &g, 0, n_nodes - 1, &unpruned_opts);
                assert_eq!(ustats.states_pruned, 0);
                pruned_any |= pstats.states_pruned > 0;
                match (pruned, unpruned) {
                    (Some(p), Some(u)) => {
                        feasible += 1;
                        assert_eq!(
                            p.objective, u.objective,
                            "relay={relay} seed {seed}: pruned {} != unpruned {}",
                            p.objective, u.objective
                        );
                        assert!((p.delay.total - u.delay.total).abs() <= 1e-9 * u.delay.total);
                        assert!(validate_mapping(&pipeline, &g, &p.mapping).is_ok());
                    }
                    (None, None) => {}
                    (p, u) => panic!(
                        "relay={relay} seed {seed}: feasibility mismatch: pruned={:?} unpruned={:?}",
                        p.is_some(),
                        u.is_some()
                    ),
                }
            }
            assert!(feasible >= 30, "only {feasible}/40 instances were feasible");
            assert!(
                pruned_any,
                "relay={relay}: pruning never fired — the bound is vacuous"
            );
        }
    }

    #[test]
    fn pruning_skips_work_on_a_large_sparse_instance() {
        let mut rng = XorShift::new(77);
        let (pipeline, g) = random_instance(&mut rng, 120, 4, 0.02);
        let (pruned, pstats) = optimize_with(&pipeline, &g, 0, 119, &DpOptions::relayed());
        let (unpruned, ustats) = optimize_with(
            &pipeline,
            &g,
            0,
            119,
            &DpOptions {
                prune: false,
                relay: true,
            },
        );
        let (p, u) = (pruned.unwrap(), unpruned.unwrap());
        assert_eq!(p.objective, u.objective);
        assert!(
            pstats.states_expanded < ustats.states_expanded,
            "pruned {} !< unpruned {}",
            pstats.states_expanded,
            ustats.states_expanded
        );
        assert!(pstats.states_pruned > 0);
    }

    #[test]
    fn relay_mode_reaches_destinations_beyond_the_module_count() {
        // A 6-node chain with a 2-module pipeline: the paper's walk
        // semantics cannot bridge 5 hops with 2 messages, the relay
        // extension can.
        let p = Pipeline::new(
            "short",
            1e6,
            vec![
                ModuleSpec::new("a", 1e-8, 1e5),
                ModuleSpec::new("b", 1e-8, 1e4),
            ],
        );
        let mut g = NetGraph::new();
        for i in 0..6 {
            g.add_node(format!("n{i}"), 1.0, true);
            if i > 0 {
                g.add_bidirectional(i - 1, i, 1e6, 0.01);
            }
        }
        assert!(optimize(&p, &g, 0, 5).is_none());
        let (relayed, _) = optimize_with(&p, &g, 0, 5, &DpOptions::relayed());
        let relayed = relayed.unwrap();
        assert_eq!(*relayed.mapping.path.first().unwrap(), 0);
        assert_eq!(*relayed.mapping.path.last().unwrap(), 5);
        assert!(validate_mapping(&p, &g, &relayed.mapping).is_ok());
        // Relay hops appear as empty groups.
        assert!(relayed.mapping.groups.iter().any(|grp| grp.is_empty()));
    }

    #[test]
    fn relay_mode_delivers_the_image_from_an_off_path_gpu() {
        // src - gpu - dst where only the middle node can render: walk
        // semantics place render at `gpu` only if it is the last hop; with
        // a headless destination the relay extension must still deliver.
        let p = Pipeline::new(
            "render-only",
            1e6,
            vec![ModuleSpec::new("render", 1e-8, 1e4).requiring_graphics()],
        );
        let mut g = NetGraph::new();
        let s = g.add_node("src", 1.0, false);
        let gpu = g.add_node("gpu", 4.0, true);
        let d = g.add_node("dst", 1.0, false);
        g.add_bidirectional(s, gpu, 1e6, 0.01);
        g.add_bidirectional(gpu, d, 1e6, 0.01);
        assert!(optimize(&p, &g, s, d).is_none());
        let (relayed, _) = optimize_with(&p, &g, s, d, &DpOptions::relayed());
        let relayed = relayed.unwrap();
        assert_eq!(relayed.mapping.path, vec![s, gpu, d]);
        assert_eq!(relayed.mapping.groups, vec![vec![], vec![0], vec![]]);
    }

    /// Warm-started re-solves must return the cold optimum exactly, on the
    /// same graph (incumbent == optimum) and after a parameter drift
    /// (incumbent stale), in both semantics — and the seeded bound must
    /// actually save work somewhere.
    #[test]
    fn warm_start_matches_cold_solve_and_saves_work() {
        for relay in [false, true] {
            let opts = DpOptions { prune: true, relay };
            let mut warm_saved_somewhere = false;
            for seed in 0u64..25 {
                let mut rng = XorShift::new(seed.wrapping_add(9000));
                let n_nodes = rng.index(5, 14);
                let n_modules = rng.index(2, 6);
                let (pipeline, mut g) = random_instance(&mut rng, n_nodes, n_modules, 0.4);
                let (cold, _) = optimize_with(&pipeline, &g, 0, n_nodes - 1, &opts);
                let Some(cold) = cold else { continue };
                // Same graph: the incumbent is the optimum itself.
                let (warm, _) = optimize_warm(&pipeline, &g, 0, n_nodes - 1, &opts, &cold.mapping);
                assert_eq!(
                    warm.expect("warm must stay feasible").objective,
                    cold.objective,
                    "relay={relay} seed={seed}: warm start changed the optimum"
                );
                // Drift every bandwidth (the adaptive re-mapping situation)
                // and compare warm vs cold on the perturbed graph.
                for i in 0..g.link_count() {
                    let factor = 0.3 + 0.9 * rng.next();
                    let link = *g.link(i);
                    g.set_measured(link.from, link.to, link.bandwidth * factor, link.delay);
                }
                let (cold2, cstats) = optimize_with(&pipeline, &g, 0, n_nodes - 1, &opts);
                let (warm2, wstats) =
                    optimize_warm(&pipeline, &g, 0, n_nodes - 1, &opts, &cold.mapping);
                match (cold2, warm2) {
                    (Some(c), Some(w)) => {
                        assert_eq!(
                            w.objective, c.objective,
                            "relay={relay} seed={seed}: stale incumbent changed the optimum"
                        );
                        assert!(wstats.states_expanded <= cstats.states_expanded);
                        warm_saved_somewhere |= wstats.states_expanded < cstats.states_expanded;
                    }
                    (None, None) => {}
                    (c, w) => panic!(
                        "relay={relay} seed={seed}: feasibility mismatch cold={:?} warm={:?}",
                        c.is_some(),
                        w.is_some()
                    ),
                }
            }
            assert!(
                warm_saved_somewhere,
                "relay={relay}: the warm bound never saved any work"
            );
        }
    }

    /// A relay incumbent must not poison a walk-only warm start: the guard
    /// skips seeding and the walk result equals the cold walk solve.
    #[test]
    fn relay_incumbent_does_not_poison_walk_warm_start() {
        let (p, g) = setup();
        let (relayed, _) = optimize_with(&p, &g, 0, 2, &DpOptions::relayed());
        let relayed = relayed.unwrap();
        let cold = optimize(&p, &g, 0, 2).unwrap();
        let (warm, _) = optimize_warm(&p, &g, 0, 2, &DpOptions::default(), &relayed.mapping);
        assert_eq!(warm.unwrap().objective, cold.objective);
    }

    #[test]
    fn relay_mode_never_worsens_the_walk_optimum() {
        for seed in 0u64..20 {
            let mut rng = XorShift::new(seed.wrapping_add(4000));
            let n_nodes = rng.index(4, 10);
            let n_modules = rng.index(2, 5);
            let (pipeline, g) = random_instance(&mut rng, n_nodes, n_modules, 0.5);
            let walk = optimize(&pipeline, &g, 0, n_nodes - 1);
            let (relayed, _) = optimize_with(&pipeline, &g, 0, n_nodes - 1, &DpOptions::relayed());
            if let Some(w) = walk {
                let r = relayed.expect("relay space is a superset");
                assert!(
                    r.objective <= w.objective + 1e-9,
                    "seed {seed}: relay {} worse than walk {}",
                    r.objective,
                    w.objective
                );
            }
        }
    }
}
