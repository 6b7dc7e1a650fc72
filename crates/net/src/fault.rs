//! Deterministic link-fault injection: seeded drop/delay/duplicate/partition.
//!
//! Chaos scenarios must be reproducible — a flaky soak that cannot be
//! replayed is worse than no soak at all. A [`FaultPlan`] is a pure
//! description (seed + probabilities + partition windows); `LinkFaults`
//! turns it into per-call decisions with a `splitmix64` stream, so the same
//! plan over the same call sequence always injects the same faults.
//!
//! Time, for partitions, is **simulation ticks**, not wall clock: the fleet
//! backend publishes its tick through a shared [`FaultClock`], and a
//! partition window `[from_tick, to_tick)` cuts the link during exactly those
//! ticks of the run. This keeps chaos runs deterministic regardless of host
//! scheduling jitter.
//!
//! Injected *drops* are modelled as synthetic timeouts that fail the attempt
//! immediately instead of holding the caller for the full deadline — the
//! retry/backoff/fallback machinery exercises identically, and a 10 %-drop
//! soak finishes in seconds rather than minutes. Injected *delays* are real
//! sleeps, so deadline enforcement is exercised for real.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::splitmix64;
use recharge_units::RackId;

/// Shared simulation-tick clock between a fleet backend (writer) and the
/// fault layer (reader).
#[derive(Debug, Clone, Default)]
pub struct FaultClock(Arc<AtomicU64>);

impl FaultClock {
    /// A clock at tick 0.
    #[must_use]
    pub fn new() -> Self {
        FaultClock::default()
    }

    /// The current simulation tick.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advances the clock by `ticks`.
    pub fn advance(&self, ticks: u64) {
        self.0.fetch_add(ticks, Ordering::AcqRel);
    }
}

/// Which racks a partition cuts off.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PartitionScope {
    /// The whole link: every rack behind it is unreachable.
    #[default]
    All,
    /// Only the shard links hosting one of the listed racks are cut:
    /// [`FaultPlan::for_shard`] turns this into a whole-link cut on every
    /// shard it intersects and drops it from the rest. A link carries no
    /// rack address, so on an unprojected link it cuts everything.
    Racks(Vec<RackId>),
}

/// A half-open window of simulation ticks during which the link is cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// First tick of the partition (inclusive).
    pub from_tick: u64,
    /// First tick after the partition (exclusive).
    pub to_tick: u64,
    /// Which racks the partition affects.
    pub scope: PartitionScope,
}

impl Partition {
    /// A whole-link partition over `[from_tick, to_tick)`.
    #[must_use]
    pub fn all(from_tick: u64, to_tick: u64) -> Self {
        Partition {
            from_tick,
            to_tick,
            scope: PartitionScope::All,
        }
    }

    /// A partition cutting only `racks` over `[from_tick, to_tick)`.
    #[must_use]
    pub fn racks(from_tick: u64, to_tick: u64, racks: Vec<RackId>) -> Self {
        Partition {
            from_tick,
            to_tick,
            scope: PartitionScope::Racks(racks),
        }
    }

    fn cuts(&self, tick: u64) -> bool {
        (self.from_tick..self.to_tick).contains(&tick)
    }
}

/// A reproducible schedule of link faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-call fault stream.
    pub seed: u64,
    /// Probability an attempt's request frame is dropped.
    pub drop_request: f64,
    /// Probability an attempt's response frame is dropped.
    pub drop_response: f64,
    /// Probability an attempt's request frame is duplicated on the wire.
    pub duplicate: f64,
    /// Probability an attempt is delayed before sending.
    pub delay_prob: f64,
    /// Typical injected delay (drawn for most delayed attempts).
    pub delay_typical: Duration,
    /// Tail injected delay (drawn for roughly 1-in-50 delayed attempts, so
    /// it lands near the p99 of the overall delay distribution).
    pub delay_p99: Duration,
    /// Tick windows during which the link is cut.
    pub partitions: Vec<Partition>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x0005_eed1_u64,
            drop_request: 0.0,
            drop_response: 0.0,
            duplicate: 0.0,
            delay_prob: 0.0,
            delay_typical: Duration::from_millis(1),
            delay_p99: Duration::from_millis(50),
            partitions: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that only injects partitions (no probabilistic faults).
    #[must_use]
    pub fn partitions_only(partitions: Vec<Partition>) -> Self {
        FaultPlan {
            partitions,
            ..FaultPlan::default()
        }
    }

    /// The seeded chaos profile used by the soak: `drop` request-drop
    /// probability, 50 ms p99 delay on 20 % of attempts, plus `partitions`.
    #[must_use]
    pub fn chaos(seed: u64, drop: f64, partitions: Vec<Partition>) -> Self {
        FaultPlan {
            seed,
            drop_request: drop,
            drop_response: drop / 2.0,
            duplicate: drop / 2.0,
            delay_prob: 0.2,
            delay_typical: Duration::from_millis(1),
            delay_p99: Duration::from_millis(50),
            partitions,
        }
    }

    /// Projects this plan onto one shard's link.
    ///
    /// Each shard gets its own derived seed (so fault streams across shards
    /// are independent but still reproducible) and only the partitions that
    /// touch `shard_racks`. A shard's link is one connection: a partition
    /// whose rack scope intersects the shard cuts the **whole** shard link
    /// (promoted to [`PartitionScope::All`]), because batched calls carry no
    /// rack address to scope by. Partitions disjoint from the shard are
    /// dropped entirely.
    #[must_use]
    pub fn for_shard(&self, shard: usize, shard_racks: &[RackId]) -> Self {
        let mut state = self.seed ^ ((shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let seed = splitmix64(&mut state);
        let partitions = self
            .partitions
            .iter()
            .filter_map(|p| match &p.scope {
                PartitionScope::All => Some(p.clone()),
                PartitionScope::Racks(racks) => {
                    if racks.iter().any(|r| shard_racks.contains(r)) {
                        Some(Partition::all(p.from_tick, p.to_tick))
                    } else {
                        None
                    }
                }
            })
            .collect();
        FaultPlan {
            seed,
            partitions,
            ..self.clone()
        }
    }
}

/// What the fault layer decided for one call attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultDecision {
    /// Delay to sleep before sending (zero for most attempts).
    pub delay: Duration,
    /// Drop the request frame: the attempt times out without sending.
    pub drop_request: bool,
    /// Drop the response frame: the request is delivered (and takes effect on
    /// the server) but the attempt still times out.
    pub drop_response: bool,
    /// Send the request frame twice.
    pub duplicate: bool,
}

/// Mutable fault state for one link: the plan plus its random stream.
#[derive(Debug)]
pub(crate) struct LinkFaults {
    plan: FaultPlan,
    clock: FaultClock,
    rng: u64,
}

impl LinkFaults {
    /// Binds a plan to the tick clock it watches for partitions.
    #[must_use]
    pub fn new(plan: FaultPlan, clock: FaultClock) -> Self {
        let rng = plan.seed ^ 0x9e37_79b9_7f4a_7c15;
        LinkFaults { plan, clock, rng }
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        // 53 high bits → uniform in [0, 1).
        let x = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        x < p
    }

    /// Whether an active partition cuts this link right now.
    #[must_use]
    pub fn partitioned(&self) -> bool {
        let tick = self.clock.tick();
        self.plan.partitions.iter().any(|p| p.cuts(tick))
    }

    /// Draws the fault decision for one attempt. Consumes a fixed number of
    /// random draws per attempt so decisions depend only on the attempt
    /// sequence number, not on which faults earlier attempts triggered.
    pub fn decide(&mut self) -> FaultDecision {
        let drop_request = self.chance(self.plan.drop_request);
        let drop_response = self.chance(self.plan.drop_response);
        let duplicate = self.chance(self.plan.duplicate);
        let delayed = self.chance(self.plan.delay_prob);
        let tail = self.chance(0.02);
        let delay = if delayed {
            if tail {
                self.plan.delay_p99
            } else {
                self.plan.delay_typical
            }
        } else {
            Duration::ZERO
        };
        FaultDecision {
            delay,
            drop_request,
            drop_response,
            duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::chaos(7, 0.1, Vec::new());
        let mut a = LinkFaults::new(plan.clone(), FaultClock::new());
        let mut b = LinkFaults::new(plan, FaultClock::new());
        for _ in 0..1_000 {
            assert_eq!(a.decide(), b.decide());
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan {
            drop_request: 0.1,
            ..FaultPlan::default()
        };
        let mut faults = LinkFaults::new(plan, FaultClock::new());
        let n = 20_000;
        let drops = (0..n).filter(|_| faults.decide().drop_request).count();
        let rate = drops as f64 / f64::from(n);
        assert!((rate - 0.1).abs() < 0.01, "drop rate {rate}");
    }

    #[test]
    fn clean_plan_never_injects() {
        let mut faults = LinkFaults::new(FaultPlan::default(), FaultClock::new());
        for _ in 0..100 {
            let clean = FaultDecision {
                delay: Duration::ZERO,
                drop_request: false,
                drop_response: false,
                duplicate: false,
            };
            assert_eq!(faults.decide(), clean);
            assert!(!faults.partitioned());
        }
    }

    #[test]
    fn partition_windows_follow_the_tick_clock() {
        let clock = FaultClock::new();
        let faults = LinkFaults::new(
            FaultPlan::partitions_only(vec![Partition::all(10, 20)]),
            clock.clone(),
        );
        assert!(!faults.partitioned());
        clock.advance(10);
        assert!(faults.partitioned());
        clock.advance(9); // tick 19: last cut tick
        assert!(faults.partitioned());
        clock.advance(1); // tick 20: healed
        assert!(!faults.partitioned());
    }

    #[test]
    fn scoped_partition_cuts_only_listed_racks() {
        // Scoping works at shard granularity: the window cuts the link of the
        // shard hosting rack 1 and leaves the other shard's link up.
        let clock = FaultClock::new();
        let plan = FaultPlan::partitions_only(vec![Partition::racks(0, 5, vec![RackId::new(1)])]);
        let link = |shard: usize, racks: &[RackId]| {
            LinkFaults::new(plan.for_shard(shard, racks), clock.clone())
        };
        let hit = link(0, &[RackId::new(0), RackId::new(1)]);
        let spared = link(1, &[RackId::new(2), RackId::new(3)]);
        assert!(hit.partitioned());
        assert!(!spared.partitioned());
        clock.advance(5);
        assert!(!hit.partitioned());
    }

    #[test]
    fn shard_projection_scopes_partitions_and_derives_seeds() {
        let plan = FaultPlan::chaos(
            42,
            0.1,
            vec![
                Partition::all(10, 20),
                Partition::racks(30, 40, vec![RackId::new(1), RackId::new(5)]),
                Partition::racks(50, 60, vec![RackId::new(9)]),
            ],
        );
        let shard0 = plan.for_shard(0, &[RackId::new(0), RackId::new(1)]);
        let shard1 = plan.for_shard(1, &[RackId::new(2), RackId::new(3)]);

        // Whole-link partitions survive everywhere; the rack-scoped one that
        // intersects shard 0 is promoted to the whole shard link; the one
        // touching rack 9 reaches neither shard.
        assert_eq!(
            shard0.partitions,
            vec![Partition::all(10, 20), Partition::all(30, 40)]
        );
        assert_eq!(shard1.partitions, vec![Partition::all(10, 20)]);

        // Derived seeds are distinct per shard and stable across calls.
        assert_ne!(shard0.seed, shard1.seed);
        assert_ne!(shard0.seed, plan.seed);
        assert_eq!(
            shard0.seed,
            plan.for_shard(0, &[RackId::new(0), RackId::new(1)]).seed
        );

        // Probabilistic knobs carry over untouched.
        assert_eq!(shard0.drop_request, plan.drop_request);
        assert_eq!(shard0.delay_p99, plan.delay_p99);
    }

    #[test]
    fn delay_distribution_has_a_tail() {
        let plan = FaultPlan {
            delay_prob: 1.0,
            delay_typical: Duration::from_millis(1),
            delay_p99: Duration::from_millis(50),
            ..FaultPlan::default()
        };
        let mut faults = LinkFaults::new(plan, FaultClock::new());
        let decisions: Vec<FaultDecision> = (0..10_000).map(|_| faults.decide()).collect();
        let tail = decisions
            .iter()
            .filter(|d| d.delay == Duration::from_millis(50))
            .count();
        let typical = decisions
            .iter()
            .filter(|d| d.delay == Duration::from_millis(1))
            .count();
        assert_eq!(tail + typical, decisions.len());
        let tail_rate = tail as f64 / decisions.len() as f64;
        assert!((tail_rate - 0.02).abs() < 0.01, "tail rate {tail_rate}");
    }
}
