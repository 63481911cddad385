//! Fixed-mapping baselines.
//!
//! The paper compares its optimizer against (i) conventional client/server
//! ("PC–PC") deployments where a predetermined split of the pipeline is used
//! over the direct data-source → client link, and (ii) ParaView's manual
//! client / render-server / data-server (`-crs`) deployment (Fig. 10).

use crate::delay::{evaluate_mapping, validate_mapping, DelayBreakdown, Mapping};
use crate::network::NetGraph;
use crate::pipeline::Pipeline;

/// The best fixed client/server mapping over the direct `source → client`
/// link: every split point of the pipeline between the two hosts is
/// evaluated (respecting graphics feasibility) and the cheapest is returned.
/// Returns `None` when the two hosts are not directly connected or no split
/// is feasible.
pub fn client_server_mapping(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    client: usize,
) -> Option<(Mapping, DelayBreakdown)> {
    graph.link_between(source, client)?;
    best_split_on_path(pipeline, graph, &[source, client])
}

/// The best contiguous split of the pipeline across an explicit path of
/// nodes; `None` if the path is disconnected or no split is feasible.
pub fn best_split_on_path(
    pipeline: &Pipeline,
    graph: &NetGraph,
    path: &[usize],
) -> Option<(Mapping, DelayBreakdown)> {
    let n = pipeline.message_count();
    let q = path.len();
    if q == 0 {
        return None;
    }
    let mut best: Option<(Mapping, DelayBreakdown)> = None;
    // Enumerate every non-decreasing choice of q-1 split points in 0..=n
    // (allowing empty groups, e.g. a source that only serves data or a
    // client that only displays the image): C(n+q-1, q-1) of them.
    let mut splits = vec![0usize; q - 1];
    loop {
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(q);
        let mut start = 0usize;
        for &end in splits.iter().chain(std::iter::once(&n)) {
            groups.push((start..end).collect());
            start = end;
        }
        let mapping = Mapping {
            path: path.to_vec(),
            groups,
        };
        if validate_mapping(pipeline, graph, &mapping).is_ok() {
            let delay = evaluate_mapping(pipeline, graph, &mapping);
            if best
                .as_ref()
                .map(|(_, d)| delay.total < d.total)
                .unwrap_or(true)
            {
                best = Some((mapping, delay));
            }
        }
        // Advance an odometer whose first split turns fastest, skipping
        // decreasing vectors: bump the first split still below the next
        // one (or `n`), zero those before it.  Ties go to the split seen
        // first, so the visit order is part of the result.
        let mut i = 0;
        loop {
            if i == splits.len() {
                return best;
            }
            if splits[i] < splits.get(i + 1).copied().unwrap_or(n) {
                splits[i] += 1;
                break;
            }
            splits[i] = 0;
            i += 1;
        }
    }
}

/// The ParaView `-crs` deployment of Fig. 10: the first module (data
/// serving) on the data server, all remaining modules on the render server,
/// and the finished image delivered to the client.
///
/// ParaView's heavier general-purpose stack costs both extra processing and
/// extra bytes on the wire (serialization, protocol framing), which the
/// paper measured as ParaView running moderately slower than RICSA on the
/// identical mapping.  The model multiplies every message size and every
/// module complexity by `overhead` (clamped to at least 1) and evaluates the
/// mapping on that pipeline.  The inflated pipeline is returned with the
/// mapping and its delay, so a simulation of the deployment hosts exactly
/// what was predicted.
pub fn paraview_crs_mapping(
    pipeline: &Pipeline,
    graph: &NetGraph,
    data_server: usize,
    render_server: usize,
    client: usize,
    overhead: f64,
) -> Option<(Pipeline, Mapping, DelayBreakdown)> {
    let n = pipeline.message_count();
    if n < 2 {
        return None;
    }
    let overhead = overhead.max(1.0);
    let mut pipeline = pipeline.clone();
    pipeline.source_bytes *= overhead;
    for module in &mut pipeline.modules {
        module.complexity *= overhead;
        module.output_bytes *= overhead;
    }
    let mapping = Mapping {
        path: vec![data_server, render_server, client],
        groups: vec![vec![0], (1..n).collect(), Vec::new()],
    };
    validate_mapping(&pipeline, graph, &mapping).ok()?;
    let delay = evaluate_mapping(&pipeline, graph, &mapping);
    Some((pipeline, mapping, delay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::optimize;
    use crate::pipeline::ModuleSpec;
    use crate::testutil::{random_instance, XorShift};

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
    fn client_server_picks_the_best_feasible_split() {
        let (p, g) = setup();
        let (mapping, delay) = client_server_mapping(&p, &g, 0, 2).unwrap();
        assert_eq!(mapping.path, vec![0, 2]);
        // The source is headless, so the render module must sit on the
        // client; extraction may sit on either side, whichever is cheaper.
        assert!(mapping.groups[1].contains(&2));
        assert!(delay.total > 0.0);
        // No direct link -> no client/server mapping.
        let mut island = NetGraph::new();
        island.add_node("a", 1.0, true);
        island.add_node("b", 1.0, true);
        assert!(client_server_mapping(&p, &island, 0, 1).is_none());
    }

    #[test]
    fn dp_never_loses_to_the_baselines() {
        let (p, g) = setup();
        let dp = optimize(&p, &g, 0, 2).unwrap();
        if let Some((_, cs)) = client_server_mapping(&p, &g, 0, 2) {
            assert!(dp.delay.total <= cs.total + 1e-9);
        }
        if let Some((_, _, pv)) = paraview_crs_mapping(&p, &g, 0, 1, 2, 1.0) {
            assert!(dp.delay.total <= pv.total + 1e-9);
        }
    }

    #[test]
    fn paraview_overhead_scales_the_delay() {
        let (p, g) = setup();
        let (plain, mapping, base) = paraview_crs_mapping(&p, &g, 0, 1, 2, 1.0).unwrap();
        assert_eq!(plain, p);
        let (heavy_pipeline, heavy_mapping, heavy) =
            paraview_crs_mapping(&p, &g, 0, 1, 2, 1.4).unwrap();
        assert_eq!(heavy_mapping, mapping);
        // The delay is the plain model evaluated on the inflated pipeline:
        // every module reads 1.4x the bytes at 1.4x the cost per byte, and
        // every message carries 1.4x the bytes over links whose latency
        // does not grow.
        assert_eq!(heavy, evaluate_mapping(&heavy_pipeline, &g, &mapping));
        assert!((heavy.computing / base.computing - 1.4 * 1.4).abs() < 1e-9);
        assert!(heavy.transport > base.transport);
        assert!(heavy.transport < 1.4 * base.transport);
        // Overhead below 1 is clamped to 1 (ParaView is never modelled as
        // faster than the bare pipeline).
        let (clamped_pipeline, _, clamped) = paraview_crs_mapping(&p, &g, 0, 1, 2, 0.5).unwrap();
        assert_eq!(clamped_pipeline, p);
        assert_eq!(clamped, base);
    }

    #[test]
    fn best_split_on_longer_paths_uses_the_cluster() {
        let (p, g) = setup();
        let via_mid = best_split_on_path(&p, &g, &[0, 1, 2]).unwrap();
        let direct = best_split_on_path(&p, &g, &[0, 2]).unwrap();
        assert!(via_mid.1.total < direct.1.total);
        assert!(best_split_on_path(&p, &g, &[]).is_none());
    }

    /// The full `(n+1)^(q-1)` odometer with a non-decreasing filter: what
    /// `best_split_on_path` enumerated before it skipped the rest.  Also
    /// says whether a later split tied the best one so far exactly.
    fn best_split_by_full_odometer(
        pipeline: &Pipeline,
        graph: &NetGraph,
        path: &[usize],
    ) -> (Option<(Mapping, DelayBreakdown)>, bool) {
        let n = pipeline.message_count();
        let mut best: Option<(Mapping, DelayBreakdown)> = None;
        let mut tied = false;
        let mut splits = vec![0usize; path.len() - 1];
        loop {
            if splits.windows(2).all(|w| w[0] <= w[1]) {
                let mut groups = Vec::new();
                let mut start = 0;
                for &end in splits.iter().chain(std::iter::once(&n)) {
                    groups.push((start..end).collect());
                    start = end;
                }
                let mapping = Mapping {
                    path: path.to_vec(),
                    groups,
                };
                if validate_mapping(pipeline, graph, &mapping).is_ok() {
                    let delay = evaluate_mapping(pipeline, graph, &mapping);
                    tied |= best.as_ref().is_some_and(|(_, d)| delay.total == d.total);
                    if best.as_ref().is_none_or(|(_, d)| delay.total < d.total) {
                        best = Some((mapping, delay));
                    }
                }
            }
            let mut i = 0;
            loop {
                if i == splits.len() {
                    return (best, tied);
                }
                splits[i] += 1;
                if splits[i] <= n {
                    break;
                }
                splits[i] = 0;
                i += 1;
            }
        }
    }

    /// The non-decreasing enumeration picks what the full odometer picked,
    /// ties included, on seeded walks of 1–6 nodes.  Pass-through modules
    /// (no computing, output the size of the input) make exact ties common:
    /// moving one across a link changes no term.
    #[test]
    fn split_enumeration_matches_the_full_odometer() {
        let mut ties = 0;
        for seed in 0u64..200 {
            let mut rng = XorShift::new(seed.wrapping_add(31_000));
            let n_nodes = rng.index(3, 8);
            let n_modules = rng.index(1, 6);
            let (random, g) = random_instance(&mut rng, n_nodes, n_modules, 0.5);
            let mut bytes = random.source_bytes;
            let modules = random
                .modules
                .iter()
                .map(|m| {
                    if rng.next() < 0.4 {
                        ModuleSpec {
                            complexity: 0.0,
                            output_bytes: bytes,
                            ..m.clone()
                        }
                    } else {
                        bytes = m.output_bytes;
                        m.clone()
                    }
                })
                .collect();
            let pipeline = Pipeline::new("splits", random.source_bytes, modules);
            let mut path = vec![rng.index(0, n_nodes)];
            for _ in 1..rng.index(1, 7) {
                let out = g.outgoing_links(*path.last().unwrap());
                path.push(g.link(out[rng.index(0, out.len())]).to);
            }
            let (full, tied) = best_split_by_full_odometer(&pipeline, &g, &path);
            assert_eq!(
                best_split_on_path(&pipeline, &g, &path),
                full,
                "seed {seed}: path {path:?}"
            );
            ties += usize::from(tied);
        }
        assert!(ties >= 20, "only {ties} instances had a tie to break");
    }

    #[test]
    fn paraview_requires_at_least_two_modules() {
        let single = Pipeline::new("one", 1e6, vec![ModuleSpec::new("only", 1e-9, 1e5)]);
        let (_, g) = setup();
        assert!(paraview_crs_mapping(&single, &g, 0, 1, 2, 1.0).is_none());
    }
}
