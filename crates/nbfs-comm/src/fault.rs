//! Deterministic fault injection for the simulated collectives.
//!
//! A [`FaultPlan`] is a seeded description of adversarial behaviour: which
//! transfers drop, arrive late, duplicate, reorder, and which ranks stall
//! or crash. Fates are *pure functions* of `(plan seed, fault site,
//! attempt)` via the counter-based RNG ([`nbfs_util::rng::counter_f64`]),
//! so the same plan replayed against the same communication schedule fires
//! the same faults, on worlds of any size. That determinism is what makes
//! chaos runs diffable: the conformance suite replays a seed and asserts
//! byte-identical fault logs.
//!
//! The one-shot BSP collectives are the plan's one consumer: the walk
//! that prices a collective's rounds also lists its transfers as
//! [`FaultEdge`]s, and [`inject_collective`] charges retry penalties
//! (bounded retry + exponential backoff on drops) for them into the
//! level's communication time without touching the data movement, so
//! recovered runs stay bit-identical to fault-free runs by construction.
//! [`inject_rank_faults`] resolves whole-rank stalls and crashes per level.
//!
//! Exhausted budgets and crashes degrade to structured errors
//! ([`NbfsError::Fault`] / [`NbfsError::RankFailed`]) carrying the failing
//! edge and level.

use nbfs_trace::{CollectiveKind, CollectiveStats, CommCost, FaultKind, FaultOp, FaultRecord};
use nbfs_util::{rng, NbfsError, SimTime};

/// Tag field of whole-rank fault sites. Fault fates hash the site,
/// including this field, so changing it would reshuffle every seeded
/// chaos schedule.
const COLLECTIVE_SITE: u64 = 0;

/// Which transfers a [`FaultSpec`] applies to. `None` fields match
/// anything, so `FaultScope::default()` scopes to every site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultScope {
    /// Only edges leaving this rank.
    pub src: Option<usize>,
    /// Only edges entering this rank.
    pub dst: Option<usize>,
    /// Only this collective round index.
    pub tag: Option<u64>,
    /// Only this operation (one collective kind, or rank fates).
    pub op: Option<FaultOp>,
    /// Only this BFS level.
    pub level: Option<usize>,
}

impl FaultScope {
    /// Matches every site.
    pub fn any() -> FaultScope {
        FaultScope::default()
    }

    /// Restricts to edges leaving `src`.
    #[must_use]
    pub fn src(mut self, src: usize) -> FaultScope {
        self.src = Some(src);
        self
    }

    /// Restricts to edges entering `dst`.
    #[must_use]
    pub fn dst(mut self, dst: usize) -> FaultScope {
        self.dst = Some(dst);
        self
    }

    /// Restricts to one collective round index.
    #[must_use]
    pub fn tag(mut self, tag: u64) -> FaultScope {
        self.tag = Some(tag);
        self
    }

    /// Restricts to one operation.
    #[must_use]
    pub fn op(mut self, op: FaultOp) -> FaultScope {
        self.op = Some(op);
        self
    }

    /// Restricts to one BFS level.
    #[must_use]
    pub fn level(mut self, level: usize) -> FaultScope {
        self.level = Some(level);
        self
    }

    fn matches(&self, site: &FaultSite) -> bool {
        self.src.is_none_or(|s| s == site.src)
            && self.dst.is_none_or(|d| d == site.dst)
            && self.tag.is_none_or(|t| t == site.tag)
            && self.op.is_none_or(|o| o == site.op)
            && self.level.is_none_or(|l| l == site.level)
    }
}

/// One fault rule: a kind, where it applies, and how often it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// What the fault does.
    pub kind: FaultKind,
    /// Which sites it can hit.
    pub scope: FaultScope,
    /// Firing probability per `(site, attempt)` draw; `1.0` fires on every
    /// matching site (deterministically, like every other rate).
    pub rate: f64,
    /// If `false` (default), the fate only fires on the *first* delivery
    /// attempt — so a dropped transfer always recovers on retry. If
    /// `true`, retries re-roll the fate, and `rate = 1.0` deterministically
    /// exhausts the budget.
    pub every_attempt: bool,
}

impl FaultSpec {
    /// A first-attempt-only spec firing on every matching site.
    pub fn new(kind: FaultKind, scope: FaultScope) -> FaultSpec {
        FaultSpec {
            kind,
            scope,
            rate: 1.0,
            every_attempt: false,
        }
    }

    /// Sets the firing probability.
    #[must_use]
    pub fn rate(mut self, rate: f64) -> FaultSpec {
        self.rate = rate;
        self
    }

    /// Makes the fate re-roll on every retry (see [`FaultSpec`]).
    #[must_use]
    pub fn every_attempt(mut self) -> FaultSpec {
        self.every_attempt = true;
        self
    }
}

/// A seeded, deterministic fault plan plus the recovery budget.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the counter-based fate draws.
    pub seed: u64,
    /// Total delivery attempts before a dropped transfer gives up.
    pub max_attempts: u32,
    /// Backoff charged before retry `r` is `backoff_base * factor^r`.
    pub backoff_base: SimTime,
    /// Exponential backoff growth factor.
    pub backoff_factor: f64,
    /// Simulated penalty a delayed transfer is charged.
    pub delay_penalty: SimTime,
    /// Simulated penalty a stalled transfer or rank is charged.
    pub stall_penalty: SimTime,
    /// The fault rules, evaluated in order (first match fires).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the default recovery budget:
    /// 4 attempts, 10 µs base backoff doubling per retry, 50 µs delay
    /// penalty, 1 ms stall penalty.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            max_attempts: 4,
            backoff_base: SimTime::from_micros(10.0),
            backoff_factor: 2.0,
            delay_penalty: SimTime::from_micros(50.0),
            stall_penalty: SimTime::from_millis(1.0),
            specs: Vec::new(),
        }
    }

    /// Adds a fault rule.
    #[must_use]
    pub fn spec(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Overrides the retry budget (total attempts, minimum 1).
    #[must_use]
    pub fn max_attempts(mut self, attempts: u32) -> FaultPlan {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Overrides the exponential backoff schedule.
    #[must_use]
    pub fn backoff(mut self, base: SimTime, factor: f64) -> FaultPlan {
        self.backoff_base = base;
        self.backoff_factor = factor;
        self
    }

    /// Backoff charged before retry `retry` (0-based).
    fn backoff_for(&self, retry: u32) -> SimTime {
        SimTime::from_secs(self.backoff_base.as_secs() * self.backoff_factor.powi(retry as i32))
    }

    /// Whether any rule could hit `op` at all (cheap gate for hot paths).
    pub fn covers(&self, op: FaultOp) -> bool {
        self.specs
            .iter()
            .any(|s| s.scope.op.is_none_or(|o| o == op))
    }

    /// The fate of delivery attempt `attempt` (0-based) at `site`: the
    /// first rule that matches and draws under its rate. Pure in
    /// `(seed, site, attempt)`.
    fn fires(&self, site: &FaultSite, attempt: u32) -> Option<FaultKind> {
        for (index, spec) in self.specs.iter().enumerate() {
            if attempt > 0 && !spec.every_attempt {
                continue;
            }
            if !spec.scope.matches(site) {
                continue;
            }
            let key = site.key() ^ rng::splitmix64(0x5eed_fa17 ^ index as u64);
            if rng::counter_f64(self.seed, key, attempt) < spec.rate {
                return Some(spec.kind);
            }
        }
        None
    }
}

/// One place a fault can fire: an edge of an operation at one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// The operation.
    pub op: FaultOp,
    /// BFS level the operation runs in.
    pub level: usize,
    /// Source rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Collective round index (`0` for whole-rank sites).
    pub tag: u64,
}

impl FaultSite {
    /// Stable mixing key for the fate draw.
    fn key(&self) -> u64 {
        let op_code = match self.op {
            // Code 1 stays reserved (it keyed point-to-point sends).
            FaultOp::Rank => 2,
            FaultOp::Collective(kind) => kind
                .label()
                .bytes()
                .fold(16u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b))),
        };
        let mut h = rng::splitmix64(op_code);
        h = rng::splitmix64(h ^ self.level as u64);
        h = rng::splitmix64(h ^ (self.src as u64));
        h = rng::splitmix64(h ^ (self.dst as u64));
        h = rng::splitmix64(h ^ self.tag);
        // The final round is part of the pinned hash: dropping it would
        // reshuffle every seeded chaos schedule.
        rng::splitmix64(h)
    }
}

/// What a fault pass did to an operation: penalties to charge, records to
/// trace, and the structured failure if recovery was impossible. Records
/// survive even when `failure` is set, so a crashed collective still
/// reports what led up to it.
#[derive(Debug, Default)]
pub struct FaultAdjustment {
    /// Total simulated penalty (retransmits, backoff, delays, stalls).
    pub penalty: SimTime,
    /// One record per fault, in deterministic edge order.
    pub records: Vec<FaultRecord>,
    /// Set when the operation could not complete.
    pub failure: Option<NbfsError>,
}

impl FaultAdjustment {
    /// No faults fired.
    pub fn clean() -> FaultAdjustment {
        FaultAdjustment::default()
    }

    fn push(&mut self, record: FaultRecord) {
        self.penalty += record.penalty;
        self.records.push(record);
    }
}

/// One edge of a collective's round structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEdge {
    /// Round index (the collective-side analogue of a tag).
    pub round: u64,
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
}

impl FaultEdge {
    pub(crate) fn new(round: u64, src: usize, dst: usize) -> FaultEdge {
        FaultEdge { round, src, dst }
    }
}

/// Walks a collective's edge schedule under `plan`, resolving each edge's
/// fate with bounded retry + exponential backoff. A dropped edge is
/// charged one per-round retransmit (`cost.total() / rounds`) plus backoff
/// per retry; exhaustion or a crash aborts with a structured failure, with
/// the records gathered so far preserved.
pub fn inject_collective(
    plan: &FaultPlan,
    level: usize,
    kind: CollectiveKind,
    edges: &[FaultEdge],
    cost: &CommCost,
    stats: &CollectiveStats,
) -> FaultAdjustment {
    let mut adj = FaultAdjustment::clean();
    let op = FaultOp::Collective(kind);
    if !plan.covers(op) {
        return adj;
    }
    let per_round = if stats.rounds > 0 {
        cost.total() / stats.rounds as f64
    } else {
        SimTime::ZERO
    };
    for edge in edges {
        let site = FaultSite {
            op,
            level,
            src: edge.src,
            dst: edge.dst,
            tag: edge.round,
        };
        let record =
            |kind: FaultKind, attempts: u32, recovered: bool, penalty: SimTime| FaultRecord {
                level,
                kind,
                op,
                src: edge.src,
                dst: edge.dst,
                tag: edge.round,
                attempts,
                recovered,
                penalty,
            };
        let mut attempt: u32 = 0;
        let mut penalty = SimTime::ZERO;
        loop {
            let Some(fate) = plan.fires(&site, attempt) else {
                if attempt > 0 {
                    adj.push(record(FaultKind::Drop, attempt + 1, true, penalty));
                }
                break;
            };
            match fate {
                FaultKind::Drop => {
                    penalty += per_round + plan.backoff_for(attempt);
                    attempt += 1;
                    if attempt >= plan.max_attempts {
                        adj.push(record(FaultKind::Drop, attempt, false, penalty));
                        adj.failure = Some(edge_failure(FaultKind::Drop, op, edge, level, attempt));
                        return adj;
                    }
                }
                FaultKind::Delay => {
                    penalty += plan.delay_penalty;
                    adj.push(record(FaultKind::Delay, attempt + 1, true, penalty));
                    break;
                }
                FaultKind::Duplicate => {
                    // The duplicate transfer costs one extra round share.
                    penalty += per_round;
                    adj.push(record(FaultKind::Duplicate, attempt + 1, true, penalty));
                    break;
                }
                FaultKind::Reorder => {
                    // BSP collectives reassemble by rank index, so a
                    // reordered arrival is absorbed for free.
                    adj.push(record(FaultKind::Reorder, attempt + 1, true, penalty));
                    break;
                }
                FaultKind::Stall => {
                    penalty += plan.stall_penalty;
                    adj.push(record(FaultKind::Stall, attempt + 1, true, penalty));
                    break;
                }
                FaultKind::Crash => {
                    adj.push(record(FaultKind::Crash, attempt + 1, false, penalty));
                    adj.failure =
                        Some(edge_failure(FaultKind::Crash, op, edge, level, attempt + 1));
                    return adj;
                }
            }
        }
    }
    adj
}

/// Resolves whole-rank fates ([`FaultOp::Rank`] sites) for one level:
/// stalls charge the plan's stall penalty, a crash aborts the level with
/// [`NbfsError::RankFailed`]. Transfer kinds scoped to rank sites are
/// ignored (there is no transfer to perturb).
pub fn inject_rank_faults(plan: &FaultPlan, level: usize, world: usize) -> FaultAdjustment {
    let mut adj = FaultAdjustment::clean();
    if !plan.covers(FaultOp::Rank) {
        return adj;
    }
    for rank in 0..world {
        let site = FaultSite {
            op: FaultOp::Rank,
            level,
            src: rank,
            dst: rank,
            tag: COLLECTIVE_SITE,
        };
        match plan.fires(&site, 0) {
            Some(FaultKind::Stall) => {
                adj.push(FaultRecord {
                    level,
                    kind: FaultKind::Stall,
                    op: FaultOp::Rank,
                    src: rank,
                    dst: rank,
                    tag: COLLECTIVE_SITE,
                    attempts: 1,
                    recovered: true,
                    penalty: plan.stall_penalty,
                });
            }
            Some(FaultKind::Crash) => {
                adj.push(FaultRecord {
                    level,
                    kind: FaultKind::Crash,
                    op: FaultOp::Rank,
                    src: rank,
                    dst: rank,
                    tag: COLLECTIVE_SITE,
                    attempts: 1,
                    recovered: false,
                    penalty: SimTime::ZERO,
                });
                adj.failure = Some(NbfsError::RankFailed { rank });
                return adj;
            }
            _ => {}
        }
    }
    adj
}

fn edge_failure(
    kind: FaultKind,
    op: FaultOp,
    edge: &FaultEdge,
    level: usize,
    attempts: u32,
) -> NbfsError {
    NbfsError::Fault {
        op: op.label().to_string(),
        kind: kind.label().to_string(),
        src: edge.src,
        dst: edge.dst,
        tag: edge.round,
        level: Some(level),
        attempts,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    /// The flat ring's schedule over `np` ranks: every rank forwards to
    /// its successor in each of `np - 1` rounds.
    fn ring_edges(np: usize) -> Vec<FaultEdge> {
        (0..np.saturating_sub(1))
            .flat_map(|round| (0..np).map(move |i| FaultEdge::new(round as u64, i, (i + 1) % np)))
            .collect()
    }

    fn unit_cost(rounds: u64) -> (CommCost, CollectiveStats) {
        (
            CommCost::inter_only(SimTime::from_millis(rounds as f64)),
            CollectiveStats {
                rounds,
                flows: rounds,
                wire_bytes: 1024,
                shm_bytes: 0,
                raw_bytes: 1024,
            },
        )
    }

    /// A collective edge site (`tag` is the round index).
    fn edge_site(level: usize, src: usize, dst: usize, round: u64) -> FaultSite {
        FaultSite {
            op: FaultOp::Collective(CollectiveKind::AllgatherWords),
            level,
            src,
            dst,
            tag: round,
        }
    }

    #[test]
    fn fates_are_pure_functions_of_seed_site_attempt() {
        let plan =
            FaultPlan::new(7).spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()).rate(0.5));
        let site = edge_site(2, 3, 4, 11);
        for attempt in 0..4 {
            assert_eq!(plan.fires(&site, attempt), plan.fires(&site, attempt));
        }
        // Different seeds decorrelate.
        let other =
            FaultPlan::new(8).spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()).rate(0.5));
        let mut diverged = false;
        for s in 0..64u64 {
            let site = edge_site(0, 0, 1, s);
            if plan.fires(&site, 0) != other.fires(&site, 0) {
                diverged = true;
            }
        }
        assert!(diverged, "seeds 7 and 8 agree on 64 sites");
    }

    #[test]
    fn scopes_select_sites() {
        let words = FaultOp::Collective(CollectiveKind::AllgatherWords);
        let scope = FaultScope::any().src(1).tag(5).op(words);
        assert!(scope.matches(&edge_site(0, 1, 2, 5)));
        assert!(!scope.matches(&edge_site(0, 2, 2, 5)));
        assert!(!scope.matches(&edge_site(0, 1, 2, 6)));
        let rank_site = FaultSite {
            op: FaultOp::Rank,
            ..edge_site(0, 1, 2, 5)
        };
        assert!(!scope.matches(&rank_site), "op scope excludes rank sites");
        let level_scope = FaultScope::any().level(3);
        assert!(level_scope.matches(&edge_site(3, 0, 1, 0)));
        assert!(!level_scope.matches(&edge_site(2, 0, 1, 0)));
    }

    #[test]
    fn first_attempt_only_drops_always_recover() {
        let plan = FaultPlan::new(1).spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()));
        let edges = ring_edges(4);
        let (cost, stats) = unit_cost(3);
        let adj = inject_collective(
            &plan,
            0,
            CollectiveKind::AllgatherWords,
            &edges,
            &cost,
            &stats,
        );
        assert!(adj.failure.is_none());
        assert_eq!(adj.records.len(), edges.len(), "rate 1.0 hits every edge");
        assert!(adj.records.iter().all(|r| r.recovered && r.attempts == 2));
        assert!(adj.penalty > SimTime::ZERO);
    }

    #[test]
    fn every_attempt_drops_exhaust_the_budget() {
        let plan = FaultPlan::new(1)
            .spec(FaultSpec::new(FaultKind::Drop, FaultScope::any()).every_attempt())
            .max_attempts(3);
        let edges = ring_edges(4);
        let (cost, stats) = unit_cost(3);
        let adj = inject_collective(
            &plan,
            2,
            CollectiveKind::AllgatherWords,
            &edges,
            &cost,
            &stats,
        );
        match adj.failure {
            Some(NbfsError::Fault {
                level, attempts, ..
            }) => {
                assert_eq!(level, Some(2));
                assert_eq!(attempts, 3);
            }
            other => panic!("expected Fault, got {other:?}"),
        }
        // The failing edge is recorded, unrecovered.
        let last = adj.records.last().unwrap();
        assert!(!last.recovered);
        // Backoff is exponential: attempt budget of 3 charges base*(1+2).
        let backoff: f64 = (0..2).map(|r| plan.backoff_for(r).as_secs()).sum();
        assert!((backoff - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn crash_faults_abort_with_the_failing_edge() {
        let plan = FaultPlan::new(3).spec(FaultSpec::new(
            FaultKind::Crash,
            FaultScope::any().src(2).tag(1),
        ));
        let edges = ring_edges(4);
        let (cost, stats) = unit_cost(3);
        let adj = inject_collective(&plan, 1, CollectiveKind::Alltoallv, &edges, &cost, &stats);
        match adj.failure {
            Some(NbfsError::Fault {
                ref kind, src, tag, ..
            }) => {
                assert_eq!(kind, "crash");
                assert_eq!(src, 2);
                assert_eq!(tag, 1);
            }
            ref other => panic!("expected crash Fault, got {other:?}"),
        }
    }

    #[test]
    fn rank_faults_stall_and_crash() {
        let stall = FaultPlan::new(5).spec(FaultSpec::new(
            FaultKind::Stall,
            FaultScope::any().op(FaultOp::Rank).src(1),
        ));
        let adj = inject_rank_faults(&stall, 0, 4);
        assert!(adj.failure.is_none());
        assert_eq!(adj.records.len(), 1);
        assert_eq!(adj.penalty, stall.stall_penalty);

        let crash = FaultPlan::new(5).spec(FaultSpec::new(
            FaultKind::Crash,
            FaultScope::any().op(FaultOp::Rank).src(3),
        ));
        let adj = inject_rank_faults(&crash, 0, 4);
        assert!(matches!(
            adj.failure,
            Some(NbfsError::RankFailed { rank: 3 })
        ));
    }

    #[test]
    fn uncovered_ops_short_circuit() {
        let plan = FaultPlan::new(9).spec(FaultSpec::new(
            FaultKind::Drop,
            FaultScope::any().op(FaultOp::Collective(CollectiveKind::Expand2d)),
        ));
        let edges = ring_edges(8);
        let (cost, stats) = unit_cost(7);
        let adj = inject_collective(
            &plan,
            0,
            CollectiveKind::AllgatherWords,
            &edges,
            &cost,
            &stats,
        );
        assert!(adj.records.is_empty() && adj.failure.is_none());
        let rank = inject_rank_faults(&plan, 0, 8);
        assert!(rank.records.is_empty() && rank.failure.is_none());
    }
}
