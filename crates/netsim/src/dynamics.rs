//! Time-varying network scenarios: scheduled link mutations.
//!
//! The paper measures the WAN once and maps the pipeline once; real
//! wide-area paths drift.  This module turns every static topology into a
//! family of *dynamic* ones: a [`DynamicScenario`] is a seeded,
//! deterministic schedule of [`LinkEvent`]s — bandwidth ramps,
//! cross-traffic bursts, and deep degradation/recovery episodes — that the
//! simulator applies to link parameters at their scheduled virtual
//! timestamps (one [`crate::sim::Simulator::schedule_link_change`] per
//! event).
//!
//! Determinism contract: the same `(parameters, link count, seed)` always
//! produce a byte-identical event schedule (the tests compare serialized
//! JSON, not merely `PartialEq`), so adaptive-control experiments are
//! exactly reproducible.
//!
//! Changes are expressed *relative to the link's original specification*
//! ([`LinkChange::ScaleBandwidth`] multiplies the original bandwidth, and
//! [`LinkChange::Restore`] reverts to it), so schedules compose without
//! accumulating drift: applying `ScaleBandwidth { factor: 0.1 }` twice
//! still leaves the link at 10 % of its original capacity.  The flip side
//! of never stacking: a `Restore` reverts the *whole* original spec, so a
//! recovery event on a link cancels any earlier ramp on that link too —
//! each link's state is always "original spec, modified by its most
//! recent event".
//!
//! What a change does is defined once, by the simulator's link
//! ([`crate::link::Link::apply_change`]).  A controller that needs the true
//! current network reads it from the running simulator
//! ([`crate::sim::Simulator::link_spec`]) rather than replaying the
//! schedule itself.

use crate::crosstraffic::CrossTraffic;
use crate::link::LinkId;
use crate::rng::SimRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A mutation applied to one directed link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinkChange {
    /// Set the link's raw bandwidth to `factor` × its *original* value
    /// (values < 1 degrade, values > 1 upgrade; clamped to stay positive).
    ScaleBandwidth {
        /// Multiplier applied to the original bandwidth.
        factor: f64,
    },
    /// Replace the link's cross-traffic process (e.g. a burst of competing
    /// traffic arriving, or ceasing).
    SetCrossTraffic {
        /// The new cross-traffic model.
        model: CrossTraffic,
    },
    /// Restore the link's original specification (bandwidth and cross
    /// traffic) — the recovery half of a degradation/recovery episode.
    Restore,
}

/// One scheduled link mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkEvent {
    /// Virtual time at which the change takes effect.
    pub at: SimTime,
    /// The directed link affected.
    pub link: LinkId,
    /// What happens to it.
    pub change: LinkChange,
}

/// A deterministic schedule of link mutations over a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicScenario {
    /// Human-readable description (kind mix, horizon, seed).
    pub label: String,
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// Events in non-decreasing time order.
    pub events: Vec<LinkEvent>,
}

impl DynamicScenario {
    /// An empty (static) scenario.
    pub fn empty() -> Self {
        DynamicScenario {
            label: "static".into(),
            seed: 0,
            events: Vec::new(),
        }
    }

    /// The time of the first scheduled event, if any.
    pub fn first_event_at(&self) -> Option<SimTime> {
        self.events.first().map(|e| e.at)
    }
}

/// Parameters of the seeded schedule generator ([`generate_schedule`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleParams {
    /// Virtual-time horizon covered by the schedule, seconds.
    pub horizon: f64,
    /// Mean gap between consecutive events, seconds (exponential).
    pub mean_gap: f64,
    /// Relative weight of *ramp* events: a bandwidth rescale that lasts
    /// until the link's next event.  Note that [`LinkChange::Restore`]
    /// (the recovery half of a later burst/degradation episode on the
    /// same link) reverts to the *original* specification, cancelling an
    /// earlier ramp — all changes are expressed relative to the original
    /// spec, never stacked.
    pub ramp_weight: f64,
    /// Relative weight of *burst* events: a cross-traffic burst followed by
    /// a recovery after an exponential outage time.
    pub burst_weight: f64,
    /// Relative weight of *degradation* events: a deep bandwidth drop
    /// followed by a recovery after an exponential outage time.
    pub degrade_weight: f64,
    /// Bandwidth scale range sampled for ramps (e.g. `(0.4, 0.9)`).
    pub ramp_range: (f64, f64),
    /// Bandwidth scale range sampled for degradations (e.g. `(0.05, 0.3)`).
    pub degrade_range: (f64, f64),
    /// Cross-traffic load range sampled for bursts, in `[0, 0.95)`.
    pub burst_load: (f64, f64),
    /// Mean outage duration before a burst/degradation recovers, seconds.
    pub mean_outage: f64,
}

impl Default for ScheduleParams {
    fn default() -> Self {
        ScheduleParams {
            horizon: 120.0,
            mean_gap: 15.0,
            ramp_weight: 1.0,
            burst_weight: 1.0,
            degrade_weight: 1.0,
            ramp_range: (0.4, 0.9),
            degrade_range: (0.05, 0.3),
            burst_load: (0.5, 0.9),
            mean_outage: 20.0,
        }
    }
}

/// Generate a deterministic event schedule for a topology with
/// `link_count` directed links.  The same `(params, link_count, seed)`
/// always produce an identical schedule; recovery events are emitted for
/// every burst/degradation (possibly beyond the horizon, so an episode
/// started inside the horizon always ends).
pub fn generate_schedule(link_count: usize, params: &ScheduleParams, seed: u64) -> DynamicScenario {
    let mut rng = SimRng::new(seed ^ 0xD1_9A_0C_5E);
    let mut events: Vec<LinkEvent> = Vec::new();
    if link_count > 0 {
        let total_weight =
            (params.ramp_weight + params.burst_weight + params.degrade_weight).max(1e-12);
        let mut t = 0.0;
        loop {
            t += rng.exponential(params.mean_gap.max(1e-6)).max(1e-3);
            if t >= params.horizon {
                break;
            }
            let link = LinkId(rng.index(link_count));
            let kind = rng.uniform() * total_weight;
            if kind < params.ramp_weight {
                let factor = rng.uniform_range(params.ramp_range.0, params.ramp_range.1);
                events.push(LinkEvent {
                    at: SimTime::from_secs(t),
                    link,
                    change: LinkChange::ScaleBandwidth { factor },
                });
            } else {
                let outage = rng.exponential(params.mean_outage.max(1e-6)).max(0.5);
                let change = if kind < params.ramp_weight + params.burst_weight {
                    LinkChange::SetCrossTraffic {
                        model: CrossTraffic::Constant {
                            load: rng.uniform_range(params.burst_load.0, params.burst_load.1),
                        },
                    }
                } else {
                    LinkChange::ScaleBandwidth {
                        factor: rng.uniform_range(params.degrade_range.0, params.degrade_range.1),
                    }
                };
                events.push(LinkEvent {
                    at: SimTime::from_secs(t),
                    link,
                    change,
                });
                events.push(LinkEvent {
                    at: SimTime::from_secs(t + outage),
                    link,
                    change: LinkChange::Restore,
                });
            }
        }
    }
    events.sort_by(|a, b| {
        a.at.as_secs()
            .partial_cmp(&b.at.as_secs())
            .expect("event times are finite")
            .then(a.link.0.cmp(&b.link.0))
    });
    DynamicScenario {
        label: format!(
            "dynamic[links={link_count},horizon={:.0}s,seed={seed}]",
            params.horizon
        ),
        seed,
        events,
    }
}

/// Derive the seed of family member `index` from one base seed.  The mix
/// (splitmix-style multiply + xor) decorrelates adjacent members while
/// keeping the whole family reproducible from the single base seed a sweep
/// record names.
pub fn family_member_seed(base_seed: u64, index: u64) -> u64 {
    let mixed = base_seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    mixed ^ (mixed >> 31)
}

/// Generate a *family* of `count` dynamic scenarios for a topology with
/// `link_count` directed links, all keyed off one `base_seed`: member `i`
/// uses [`family_member_seed`]`(base_seed, i)`, so a sweep can report a
/// single seed per WAN and still enumerate many independent schedules.
/// Each member is individually byte-deterministic (it is a plain
/// [`generate_schedule`] call) and the family as a whole reproduces from
/// `(params, link_count, base_seed, count)`.
pub fn generate_schedule_family(
    link_count: usize,
    params: &ScheduleParams,
    base_seed: u64,
    count: usize,
) -> Vec<DynamicScenario> {
    (0..count as u64)
        .map(|i| generate_schedule(link_count, params, family_member_seed(base_seed, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_byte_identical_schedules() {
        let params = ScheduleParams::default();
        let a = generate_schedule(10, &params, 42);
        let b = generate_schedule(10, &params, 42);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "same seed must reproduce the schedule bytes");
        let c = generate_schedule(10, &params, 43);
        assert_ne!(
            ja,
            serde_json::to_string(&c).unwrap(),
            "different seeds must differ"
        );
        assert!(!a.events.is_empty(), "default params produce events");
    }

    #[test]
    fn schedules_are_time_ordered_and_episodes_always_recover() {
        let scenario = generate_schedule(6, &ScheduleParams::default(), 7);
        for pair in scenario.events.windows(2) {
            assert!(pair[0].at.as_secs() <= pair[1].at.as_secs());
        }
        // Every burst/degradation episode has a matching Restore later on
        // the same link.
        for (i, e) in scenario.events.iter().enumerate() {
            let episodic = matches!(e.change, LinkChange::SetCrossTraffic { .. })
                || (matches!(e.change, LinkChange::ScaleBandwidth { factor } if factor < 0.4)
                    && scenario.events[..i]
                        .iter()
                        .all(|p| p.link != e.link || !matches!(p.change, LinkChange::Restore)));
            if episodic {
                assert!(
                    scenario.events[i + 1..]
                        .iter()
                        .any(|r| r.link == e.link && matches!(r.change, LinkChange::Restore)),
                    "episode on {} never recovers",
                    e.link
                );
            }
        }
    }

    #[test]
    fn schedule_families_reproduce_and_members_decorrelate() {
        let params = ScheduleParams::default();
        let a = generate_schedule_family(10, &params, 9, 4);
        let b = generate_schedule_family(10, &params, 9, 4);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                serde_json::to_string(x).unwrap(),
                serde_json::to_string(y).unwrap(),
                "family must be byte-deterministic per base seed"
            );
        }
        // Members are distinct schedules, and each matches the plain
        // generator called with its derived seed.
        assert_ne!(a[0], a[1]);
        assert_ne!(a[1], a[2]);
        for (i, member) in a.iter().enumerate() {
            let derived = family_member_seed(9, i as u64);
            assert_eq!(member.seed, derived);
            assert_eq!(member, &generate_schedule(10, &params, derived));
        }
        // A different base seed yields a different family.
        let c = generate_schedule_family(10, &params, 10, 4);
        assert_ne!(a[0], c[0]);
    }

    #[test]
    fn empty_link_set_produces_no_events() {
        let scenario = generate_schedule(0, &ScheduleParams::default(), 1);
        assert!(scenario.events.is_empty());
        assert_eq!(DynamicScenario::empty().first_event_at(), None);
    }
}
