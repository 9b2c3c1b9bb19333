//! Mini-loom: an exhaustive-interleaving model checker for `AtomicBitmap`.
//!
//! The shared `out_queue`/summary structures (paper §IV, shared
//! communication) are only correct if concurrent word updates linearize.
//! This checker enumerates *every* schedule of 2–3 simulated threads
//! running short op sequences over a small [`AtomicBitmap`] pair
//! (queue + summary), and asserts each interleaving's observations and
//! final state are reachable by some sequential order of the same ops on
//! the scalar [`Bitmap`] model — linearizability by witness enumeration.
//!
//! Two engines:
//! * [`Engine::Atomic`] drives the real `AtomicBitmap` methods, one
//!   indivisible step per op;
//! * [`Engine::LostUpdateMutant`] deliberately regresses word merges to a
//!   non-atomic load/OR/store pair (two steps). The checker must catch
//!   the lost update this opens up — a regression corpus of specific
//!   schedules pins the exact interleavings that expose it.

use nbfs_util::{AtomicBitmap, Bitmap};

/// Which of the two modeled bitmaps an op touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// The shared frontier (`out_queue`) bitmap.
    Queue,
    /// The per-node summary bitmap.
    Summary,
}

/// One operation of a thread's program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `fetch_set(bit)` — parent election; observes "was I first?".
    FetchSet { target: Target, bit: usize },
    /// `set(bit)` — fire-and-forget publish (summary updates).
    Set { target: Target, bit: usize },
    /// `load_word(word)` — reader-side observation.
    GetWord { target: Target, word: usize },
    /// `fetch_or_word(word, mask)` — word-granular frontier merge;
    /// observes the previous word value.
    MergeWord {
        target: Target,
        word: usize,
        mask: u64,
    },
}

/// How ops execute on the concurrent side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The real thing: every op is one indivisible step.
    Atomic,
    /// Word merges regressed to read-modify-write: `MergeWord` becomes
    /// two steps (load into a thread-local register, then store of
    /// `register | mask`), opening the classic lost-update window.
    LostUpdateMutant,
}

impl Engine {
    /// Number of schedulable micro-steps `op` takes under this engine.
    fn steps(self, op: &Op) -> usize {
        match (self, op) {
            (Engine::LostUpdateMutant, Op::MergeWord { .. }) => 2,
            _ => 1,
        }
    }
}

/// A named concurrent test case.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: &'static str,
    /// Bitmap size in bits (both queue and summary).
    pub bits: usize,
    /// One op program per simulated thread (2–3 threads).
    pub threads: Vec<Vec<Op>>,
    /// Word presets applied to both models before any op runs.
    pub initial: Vec<(Target, usize, u64)>,
}

/// Everything observable about one execution: per-thread op results in
/// program order, plus the final words of both bitmaps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub observations: Vec<Vec<u64>>,
    pub queue_words: Vec<u64>,
    pub summary_words: Vec<u64>,
}

/// A schedule whose outcome no sequential order can produce.
#[derive(Clone, Debug)]
pub struct Violation {
    pub scenario: &'static str,
    /// The offending schedule, as a sequence of thread ids (one per step).
    pub schedule: Vec<usize>,
    pub outcome: Outcome,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario `{}`: schedule {:?} produced non-linearizable outcome \
             (queue={:?}, summary={:?}, obs={:?})",
            self.scenario,
            self.schedule,
            self.outcome.queue_words,
            self.outcome.summary_words,
            self.outcome.observations
        )
    }
}

/// Result of exhaustively checking one scenario under one engine.
#[derive(Clone, Debug)]
pub enum CheckOutcome {
    /// Every enumerated schedule linearized.
    Linearizable { schedules: usize, witnesses: usize },
    /// At least one schedule did not.
    Violation(Violation),
    /// The scenario's schedule space exceeds `cap` — shrink it or raise
    /// the cap; silently sampling would defeat "exhaustive".
    CapExceeded { needed: usize, cap: usize },
}

impl Scenario {
    fn word_len(&self) -> usize {
        self.bits.div_ceil(64)
    }

    /// Total micro-steps under `engine`, per thread.
    fn step_counts(&self, engine: Engine) -> Vec<usize> {
        self.threads
            .iter()
            .map(|ops| ops.iter().map(|op| engine.steps(op)).sum())
            .collect()
    }

    /// Number of distinct schedules = multinomial(total; counts).
    fn schedule_count(&self, engine: Engine) -> usize {
        let counts = self.step_counts(engine);
        let mut n = 0usize;
        let mut result = 1usize;
        for c in counts {
            for k in 1..=c {
                n += 1;
                result = result * n / k; // binomial(n, k) stays integral
            }
        }
        result
    }
}

/// Runs one schedule of `scenario` under `engine` on real `AtomicBitmap`s.
///
/// Panics if `schedule` is not a valid step sequence (wrong multiplicity
/// per thread) — schedules come from the enumerator or the pinned
/// regression corpus, so a mismatch is a checker bug.
pub fn run_schedule(scenario: &Scenario, engine: Engine, schedule: &[usize]) -> Outcome {
    let words = scenario.word_len();
    let queue = AtomicBitmap::new(scenario.bits);
    let summary = AtomicBitmap::new(scenario.bits);
    for &(target, w, value) in &scenario.initial {
        match target {
            Target::Queue => queue.store_word(w, value),
            Target::Summary => summary.store_word(w, value),
        }
    }
    let pick = |t: Target| -> &AtomicBitmap {
        match t {
            Target::Queue => &queue,
            Target::Summary => &summary,
        }
    };

    let nthreads = scenario.threads.len();
    let mut pc = vec![0usize; nthreads];
    let mut mid_merge = vec![false; nthreads];
    let mut reg = vec![0u64; nthreads];
    let mut observations: Vec<Vec<u64>> = vec![Vec::new(); nthreads];

    for &t in schedule {
        let op = scenario.threads[t][pc[t]];
        match (engine, op) {
            (_, Op::FetchSet { target, bit }) => {
                observations[t].push(u64::from(pick(target).fetch_set(bit)));
                pc[t] += 1;
            }
            (_, Op::Set { target, bit }) => {
                pick(target).set(bit);
                observations[t].push(0);
                pc[t] += 1;
            }
            (_, Op::GetWord { target, word }) => {
                observations[t].push(pick(target).load_word(word));
                pc[t] += 1;
            }
            (Engine::Atomic, Op::MergeWord { target, word, mask }) => {
                observations[t].push(pick(target).fetch_or_word(word, mask));
                pc[t] += 1;
            }
            (Engine::LostUpdateMutant, Op::MergeWord { target, word, mask }) => {
                if !mid_merge[t] {
                    // Step 1: the non-atomic read of read-modify-write.
                    reg[t] = pick(target).load_word(word);
                    mid_merge[t] = true;
                } else {
                    // Step 2: blind store — concurrent writes since step 1
                    // are overwritten. This is the bug the checker exists
                    // to catch.
                    pick(target).store_word(word, reg[t] | mask);
                    observations[t].push(reg[t]);
                    mid_merge[t] = false;
                    pc[t] += 1;
                }
            }
        }
    }
    assert!(
        pc.iter()
            .zip(&scenario.threads)
            .all(|(&p, ops)| p == ops.len()),
        "schedule did not run every op to completion"
    );

    let mut queue_words = vec![0u64; words];
    let mut summary_words = vec![0u64; words];
    queue.export_words(0, &mut queue_words);
    summary.export_words(0, &mut summary_words);
    Outcome {
        observations,
        queue_words,
        summary_words,
    }
}

/// All outcomes reachable by running the ops in *some* sequential order
/// (program order preserved per thread) on the scalar [`Bitmap`] model —
/// the linearizability witness set.
pub fn sequential_outcomes(scenario: &Scenario) -> Vec<Outcome> {
    let op_counts: Vec<usize> = scenario.threads.iter().map(Vec::len).collect();
    let mut outcomes: Vec<Outcome> = Vec::new();
    for_each_schedule(&op_counts, &mut |schedule| {
        let outcome = run_sequential(scenario, schedule);
        if !outcomes.contains(&outcome) {
            outcomes.push(outcome);
        }
        true
    });
    outcomes
}

fn run_sequential(scenario: &Scenario, schedule: &[usize]) -> Outcome {
    let words = scenario.word_len();
    let mut queue = Bitmap::new(scenario.bits);
    let mut summary = Bitmap::new(scenario.bits);
    for &(target, w, value) in &scenario.initial {
        let bm = match target {
            Target::Queue => &mut queue,
            Target::Summary => &mut summary,
        };
        bm.words_mut()[w] = value;
    }

    let nthreads = scenario.threads.len();
    let mut pc = vec![0usize; nthreads];
    let mut observations: Vec<Vec<u64>> = vec![Vec::new(); nthreads];
    for &t in schedule {
        let op = scenario.threads[t][pc[t]];
        pc[t] += 1;
        let target = match op {
            Op::FetchSet { target, .. }
            | Op::Set { target, .. }
            | Op::GetWord { target, .. }
            | Op::MergeWord { target, .. } => target,
        };
        let bmref: &mut Bitmap = match target {
            Target::Queue => &mut queue,
            Target::Summary => &mut summary,
        };
        match op {
            Op::FetchSet { bit, .. } => {
                let newly = !bmref.get(bit);
                bmref.set(bit);
                observations[t].push(u64::from(newly));
            }
            Op::Set { bit, .. } => {
                bmref.set(bit);
                observations[t].push(0);
            }
            Op::GetWord { word, .. } => {
                observations[t].push(bmref.words()[word]);
            }
            Op::MergeWord { word, mask, .. } => {
                let prev = bmref.words()[word];
                bmref.words_mut()[word] = prev | mask;
                observations[t].push(prev);
            }
        }
    }

    Outcome {
        observations,
        queue_words: queue.words()[..words].to_vec(),
        summary_words: summary.words()[..words].to_vec(),
    }
}

/// Calls `f` with every interleaving of per-thread step counts, in
/// lexicographic order. `f` returning `false` aborts the enumeration.
fn for_each_schedule(counts: &[usize], f: &mut dyn FnMut(&[usize]) -> bool) {
    fn recurse(
        remaining: &mut [usize],
        prefix: &mut Vec<usize>,
        f: &mut dyn FnMut(&[usize]) -> bool,
    ) -> bool {
        if remaining.iter().all(|&r| r == 0) {
            return f(prefix);
        }
        for t in 0..remaining.len() {
            if remaining[t] > 0 {
                remaining[t] -= 1;
                prefix.push(t);
                let keep_going = recurse(remaining, prefix, f);
                prefix.pop();
                remaining[t] += 1;
                if !keep_going {
                    return false;
                }
            }
        }
        true
    }
    let mut remaining = counts.to_vec();
    recurse(&mut remaining, &mut Vec::new(), f);
}

/// Exhaustively checks `scenario` under `engine`: every schedule's outcome
/// must appear in the sequential witness set.
pub fn check_scenario(scenario: &Scenario, engine: Engine, cap: usize) -> CheckOutcome {
    let needed = scenario.schedule_count(engine);
    if needed > cap {
        return CheckOutcome::CapExceeded { needed, cap };
    }
    let witnesses = sequential_outcomes(scenario);
    let counts = scenario.step_counts(engine);
    let mut checked = 0usize;
    let mut violation: Option<Violation> = None;
    for_each_schedule(&counts, &mut |schedule| {
        checked += 1;
        let outcome = run_schedule(scenario, engine, schedule);
        if witnesses.contains(&outcome) {
            true
        } else {
            violation = Some(Violation {
                scenario: scenario.name,
                schedule: schedule.to_vec(),
                outcome,
            });
            false
        }
    });
    match violation {
        Some(v) => CheckOutcome::Violation(v),
        None => CheckOutcome::Linearizable {
            schedules: checked,
            witnesses: witnesses.len(),
        },
    }
}

const Q: Target = Target::Queue;
const S: Target = Target::Summary;

/// The fast-profile corpus: every shape of contention the BFS frontier
/// path actually has, small enough to enumerate in milliseconds.
pub fn corpus() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "two_writers_same_bit",
            bits: 128,
            threads: vec![
                vec![Op::FetchSet { target: Q, bit: 5 }],
                vec![Op::FetchSet { target: Q, bit: 5 }],
            ],
            initial: vec![],
        },
        Scenario {
            name: "word_merge_disjoint_masks",
            bits: 128,
            threads: vec![
                vec![Op::MergeWord {
                    target: Q,
                    word: 0,
                    mask: 0x0f,
                }],
                vec![Op::MergeWord {
                    target: Q,
                    word: 0,
                    mask: 0xf0,
                }],
            ],
            initial: vec![],
        },
        Scenario {
            name: "merge_with_observer",
            bits: 128,
            threads: vec![
                vec![Op::MergeWord {
                    target: Q,
                    word: 0,
                    mask: 0b11,
                }],
                vec![
                    Op::GetWord { target: Q, word: 0 },
                    Op::GetWord { target: Q, word: 0 },
                ],
            ],
            initial: vec![(Q, 0, 0b100)],
        },
        Scenario {
            name: "fetch_set_vs_word_merge",
            bits: 128,
            threads: vec![
                vec![Op::FetchSet { target: Q, bit: 2 }],
                vec![Op::MergeWord {
                    target: Q,
                    word: 0,
                    mask: 0b1000,
                }],
            ],
            initial: vec![],
        },
        Scenario {
            name: "summary_and_queue_publish",
            bits: 128,
            threads: vec![
                vec![
                    Op::FetchSet { target: Q, bit: 70 },
                    Op::Set { target: S, bit: 1 },
                ],
                vec![
                    Op::GetWord { target: S, word: 0 },
                    Op::GetWord { target: Q, word: 1 },
                ],
            ],
            initial: vec![],
        },
        Scenario {
            name: "cross_word_independence",
            bits: 128,
            threads: vec![
                vec![
                    Op::MergeWord {
                        target: Q,
                        word: 0,
                        mask: 0x1,
                    },
                    Op::MergeWord {
                        target: Q,
                        word: 1,
                        mask: 0x2,
                    },
                ],
                vec![
                    Op::MergeWord {
                        target: Q,
                        word: 1,
                        mask: 0x4,
                    },
                    Op::MergeWord {
                        target: Q,
                        word: 0,
                        mask: 0x8,
                    },
                ],
            ],
            initial: vec![],
        },
        Scenario {
            name: "three_way_contention",
            bits: 128,
            threads: vec![
                vec![Op::MergeWord {
                    target: Q,
                    word: 0,
                    mask: 0x1,
                }],
                vec![Op::MergeWord {
                    target: Q,
                    word: 0,
                    mask: 0x2,
                }],
                vec![Op::FetchSet { target: Q, bit: 0 }],
            ],
            initial: vec![],
        },
        // The multi-source expand phase: two frontier vertices claim
        // *overlapping* lane sets in one vertex's lane word through
        // `fetch_or_word`, with some lanes already reached (the initial
        // word). Each claimer derives "lanes I newly discovered" from the
        // previous-word observation, so a shared lane must read as fresh
        // to exactly one of them; the observer models a settle-phase read.
        Scenario {
            name: "lane_word_overlapping_claims",
            bits: 128,
            threads: vec![
                vec![Op::MergeWord {
                    target: Q,
                    word: 0,
                    mask: 0b0111,
                }],
                vec![Op::MergeWord {
                    target: Q,
                    word: 0,
                    mask: 0b1110,
                }],
                vec![Op::GetWord { target: Q, word: 0 }],
            ],
            initial: vec![(Q, 0, 0b1000_0000)],
        },
    ]
}

/// The larger scenarios only the `--ignored` full profile enumerates.
pub fn full_profile_corpus() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "full_two_threads_mixed_program",
            bits: 128,
            threads: vec![
                vec![
                    Op::FetchSet { target: Q, bit: 0 },
                    Op::MergeWord {
                        target: Q,
                        word: 0,
                        mask: 0xff00,
                    },
                    Op::Set { target: S, bit: 0 },
                    Op::GetWord { target: Q, word: 0 },
                ],
                vec![
                    Op::MergeWord {
                        target: Q,
                        word: 0,
                        mask: 0x00f1,
                    },
                    Op::FetchSet { target: Q, bit: 9 },
                    Op::GetWord { target: S, word: 0 },
                    Op::MergeWord {
                        target: Q,
                        word: 1,
                        mask: 0x3,
                    },
                ],
            ],
            initial: vec![],
        },
        Scenario {
            name: "full_three_threads_shared_word",
            bits: 128,
            threads: vec![
                vec![
                    Op::MergeWord {
                        target: Q,
                        word: 0,
                        mask: 0x11,
                    },
                    Op::GetWord { target: Q, word: 0 },
                    Op::Set { target: S, bit: 0 },
                ],
                vec![
                    Op::MergeWord {
                        target: Q,
                        word: 0,
                        mask: 0x22,
                    },
                    Op::FetchSet { target: Q, bit: 6 },
                    Op::GetWord { target: S, word: 0 },
                ],
                vec![
                    Op::FetchSet { target: Q, bit: 0 },
                    Op::MergeWord {
                        target: Q,
                        word: 0,
                        mask: 0x44,
                    },
                    Op::GetWord { target: Q, word: 0 },
                ],
            ],
            initial: vec![],
        },
    ]
}

/// Pinned (scenario, schedule) pairs that *must* expose the lost-update
/// mutant. If `AtomicBitmap::fetch_or_word` ever regressed to a plain
/// load/store pair, these exact interleavings are the proof.
pub fn regression_corpus() -> Vec<(Scenario, Vec<usize>)> {
    let all = corpus();
    let merge = all[1].clone(); // word_merge_disjoint_masks
    let fetch_vs_merge = all[3].clone(); // fetch_set_vs_word_merge
    let lane_claims = all[7].clone(); // lane_word_overlapping_claims
    vec![
        // T0 loads, T1 loads, T0 stores, T1 stores: T1's blind store
        // erases T0's mask — the canonical lost update.
        (merge.clone(), vec![0, 1, 0, 1]),
        // The mirror image.
        (merge, vec![1, 0, 1, 0]),
        // The merge's read/store window swallows a concurrent fetch_set
        // on a different bit of the same word.
        (fetch_vs_merge, vec![1, 0, 1]),
        // Overlapping lane claims: T1's blind store erases T0's
        // exclusive lane (bit 0), so the final lane word is missing a
        // claim no sequential order can lose — and the observer sees it.
        (lane_claims, vec![0, 1, 0, 1, 2]),
    ]
}

/// Cap for the fast profile (CI default).
pub const FAST_CAP: usize = 20_000;
/// Cap for the full exhaustive profile (`--ignored` tests).
pub const FULL_CAP: usize = 250_000;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    #[test]
    fn fast_corpus_is_linearizable_under_atomic_engine() {
        for s in corpus() {
            match check_scenario(&s, Engine::Atomic, FAST_CAP) {
                CheckOutcome::Linearizable { schedules, .. } => {
                    assert!(schedules > 0, "{}: no schedules enumerated", s.name);
                }
                other => panic!("{}: expected linearizable, got {other:?}", s.name),
            }
        }
    }

    #[test]
    fn mutant_is_caught_by_exhaustive_search() {
        let s = &corpus()[1]; // word_merge_disjoint_masks
        match check_scenario(s, Engine::LostUpdateMutant, FAST_CAP) {
            CheckOutcome::Violation(v) => {
                assert_eq!(v.scenario, "word_merge_disjoint_masks");
            }
            other => panic!("mutant must be detected, got {other:?}"),
        }
    }

    #[test]
    fn lane_word_claims_linearize_atomically_and_expose_the_mutant() {
        let s = corpus()
            .into_iter()
            .find(|s| s.name == "lane_word_overlapping_claims")
            .expect("scenario registered");
        assert!(matches!(
            check_scenario(&s, Engine::Atomic, FAST_CAP),
            CheckOutcome::Linearizable { .. }
        ));
        match check_scenario(&s, Engine::LostUpdateMutant, FAST_CAP) {
            CheckOutcome::Violation(v) => {
                assert_eq!(v.scenario, "lane_word_overlapping_claims");
            }
            other => panic!("overlapping lane claims must expose the mutant, got {other:?}"),
        }
    }

    #[test]
    fn regression_schedules_pin_the_lost_update() {
        for (scenario, schedule) in regression_corpus() {
            let witnesses = sequential_outcomes(&scenario);
            let outcome = run_schedule(&scenario, Engine::LostUpdateMutant, &schedule);
            assert!(
                !witnesses.contains(&outcome),
                "{}: schedule {schedule:?} must be non-linearizable under the mutant",
                scenario.name
            );
            // Sanity: the same schedule under the real engine needs the
            // mutant's step multiplicity, so compare at op granularity
            // instead: the atomic engine passes the full check.
            assert!(matches!(
                check_scenario(&scenario, Engine::Atomic, FAST_CAP),
                CheckOutcome::Linearizable { .. }
            ));
        }
    }

    #[test]
    fn schedule_count_matches_enumeration() {
        let s = &corpus()[5]; // cross_word_independence: 2+2 steps
        assert_eq!(s.schedule_count(Engine::Atomic), 6); // C(4,2)
        let mut seen = 0;
        for_each_schedule(&s.step_counts(Engine::Atomic), &mut |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 6);
        // Mutant doubles merge steps: 4+4 -> C(8,4) = 70.
        assert_eq!(s.schedule_count(Engine::LostUpdateMutant), 70);
    }

    #[test]
    fn cap_refuses_rather_than_samples() {
        let s = &full_profile_corpus()[1];
        assert!(matches!(
            check_scenario(s, Engine::Atomic, 10),
            CheckOutcome::CapExceeded { .. }
        ));
    }

    #[test]
    #[ignore = "full exhaustive profile; run with: cargo test --release -p nbfs-util --test atomic_bitmap_linearizability -- --ignored"]
    fn full_profile_is_linearizable_under_atomic_engine() {
        for s in full_profile_corpus() {
            match check_scenario(&s, Engine::Atomic, FULL_CAP) {
                CheckOutcome::Linearizable { schedules, .. } => {
                    // The smaller scenario enumerates C(8,4) = 70 schedules,
                    // the larger one 1680; anything below the smaller count
                    // means the enumerator degenerated.
                    assert!(schedules >= 70, "{}: suspiciously few schedules", s.name);
                }
                other => panic!("{}: expected linearizable, got {other:?}", s.name),
            }
        }
    }

    #[test]
    #[ignore = "full exhaustive profile; run with: cargo test --release -p nbfs-util --test atomic_bitmap_linearizability -- --ignored"]
    fn full_profile_catches_mutant_in_every_merge_scenario() {
        for s in full_profile_corpus() {
            assert!(
                matches!(
                    check_scenario(&s, Engine::LostUpdateMutant, FULL_CAP),
                    CheckOutcome::Violation(_)
                ),
                "{}: mutant must be detected",
                s.name
            );
        }
    }
}
