//! BFS-as-a-service: a long-lived, embeddable query engine.
//!
//! A [`QueryEngine`] holds one shared graph (through its backend) plus a
//! pool of recyclable per-query workspaces, and admits roots through a
//! batching queue: concurrent [`QueryEngine::query`] callers park on a
//! ticket, one of them becomes the *leader* of the next wave, drains up
//! to [`MAX_LANES`] pending roots, and executes them as **one** fused
//! traversal — the bit-parallel kernel of [`crate::multi`] for the
//! shared-memory backend, a parallel sweep of per-root runs for the
//! distributed ones. Followers sleep on a condvar until the leader posts
//! their answers. The shared-memory backend answers a wave of one root
//! with [`crate::par`]'s one-bit-per-vertex kernel instead: lanes only pay
//! when they share a sweep, and a lone lane would move a `u64` per vertex
//! where `par` moves a bit.
//!
//! Determinism is the contract the differential suite pins: an answer is
//! a function of (graph, root) only. Batch composition, admission order
//! and pool recycling never change a single parent word, because both
//! kernels elect the minimum frontier neighbour (see [`crate::multi`]),
//! the same tree no matter which lanes, if any, share the wave.
//!
//! [`Graph500Harness`](crate::harness::Graph500Harness) rides the same
//! machinery: its 64-root campaign is a [`QueryEngine::run_batch`] over a
//! [`SearchBackend`] of any engine, so the measurement loop and the
//! service path cannot drift apart.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use rayon::prelude::*;

use nbfs_graph::{Csr, GraphView};
use nbfs_util::{ArenaPool, NbfsError};

use crate::direction::SwitchPolicy;
use crate::engine::{DistributedBfs, HostClock, NoClock, Search};
use crate::engine2d::TwoDimBfs;
use crate::multi::{multi_source_bfs_in, LaneAnswer, MultiWorkspace, MAX_LANES};
use crate::par::bfs_hybrid_parallel;

/// One wave executor behind a [`QueryEngine`].
///
/// A backend owns the shared graph state and turns a slice of admitted
/// roots into one answer per root, in root order. Implementations must
/// be pure in the differential sense: the answer for a root must not
/// depend on which other roots share the wave.
pub trait QueryBackend: Sync {
    /// What one query returns.
    type Answer: Send;

    /// Checks one root in the submitting thread's own frame, before
    /// [`QueryEngine::query`] enqueues it. A backend with no error answer
    /// for a bad root must refuse it here (by panicking): once enqueued,
    /// the root would fail whichever thread leads its wave. The default
    /// admits every root.
    fn admit(&self, _root: usize) {}

    /// Executes one wave; `roots` holds 1..=[`MAX_LANES`] entries.
    fn run_wave(&self, roots: &[usize]) -> Vec<Self::Answer>;
}

/// The shared-memory backend: waves of two or more roots run the
/// bit-parallel multi-source kernel, recycling [`MultiWorkspace`]s through
/// an [`ArenaPool`] so a sustained query stream reuses its lane tables; a
/// wave allocates its answers and their level vectors (see
/// [`MultiWorkspace`]). A wave of one root runs
/// [`bfs_hybrid_parallel`] on the current pool and takes no workspace.
pub struct BitParallelBackend<'g> {
    graph: &'g Csr,
    pool: ArenaPool<MultiWorkspace>,
}

impl<'g> BitParallelBackend<'g> {
    /// A backend over `graph` with an empty workspace pool.
    pub fn new(graph: &'g Csr) -> Self {
        Self {
            graph,
            pool: ArenaPool::new(),
        }
    }

    /// The graph this backend serves.
    pub fn graph(&self) -> &'g Csr {
        self.graph
    }
}

impl QueryBackend for BitParallelBackend<'_> {
    type Answer = LaneAnswer;

    /// # Panics
    /// If `root` is not a vertex: the bit-parallel kernel has no error
    /// answer, so the caller that passed it is the one that fails.
    fn admit(&self, root: usize) {
        let n = self.graph.num_vertices();
        assert!(root < n, "root {root} is not a vertex (graph has {n})");
    }

    fn run_wave(&self, roots: &[usize]) -> Vec<LaneAnswer> {
        if let &[root] = roots {
            let run = bfs_hybrid_parallel(self.graph, root, SwitchPolicy::default());
            return vec![LaneAnswer::from_run(root, run)];
        }
        let mut ws = self.pool.acquire_with(MultiWorkspace::new);
        multi_source_bfs_in(self.graph, roots, &mut ws).lanes
    }
}

/// A distributed engine a [`SearchBackend`] can sweep: the 1-D
/// [`DistributedBfs`] or the 2-D [`TwoDimBfs`].
pub trait SearchEngine: Sync {
    /// One search from `root` (see [`DistributedBfs::search`]).
    ///
    /// # Errors
    /// As [`DistributedBfs::search`].
    fn search(&self, root: usize, clock: &dyn HostClock) -> Result<Search, NbfsError>;
}

impl<G: GraphView> SearchEngine for DistributedBfs<'_, G> {
    fn search(&self, root: usize, clock: &dyn HostClock) -> Result<Search, NbfsError> {
        DistributedBfs::search(self, root, clock)
    }
}

impl<G: GraphView> SearchEngine for TwoDimBfs<'_, G> {
    fn search(&self, root: usize, clock: &dyn HostClock) -> Result<Search, NbfsError> {
        TwoDimBfs::search(self, root, clock)
    }
}

/// Distributed backend: one wave is a rayon sweep of independent
/// searches, each yielding its run plus its [`TraceReport`] (per the
/// engine scenario's trace configuration, fault records included) or a
/// structured error — a bad root, or a fault the scenario's plan made
/// unrecoverable. The Graph500 harness batches its campaign through this
/// and stops at the first error; the chaos matrix batches a wave through
/// an engine with injected faults and compares the recoverable cells bit
/// for bit against a fault-free wave.
///
/// [`TraceReport`]: nbfs_trace::TraceReport
pub struct SearchBackend<'e, E: ?Sized> {
    engine: &'e E,
}

impl<'e, E: SearchEngine + ?Sized> SearchBackend<'e, E> {
    /// Wraps a prepared engine.
    pub fn new(engine: &'e E) -> Self {
        Self { engine }
    }
}

impl<E: SearchEngine + ?Sized> QueryBackend for SearchBackend<'_, E> {
    type Answer = Result<Search, NbfsError>;

    fn run_wave(&self, roots: &[usize]) -> Vec<Self::Answer> {
        roots
            .par_iter()
            .map(|&root| self.engine.search(root, &NoClock))
            .collect()
    }
}

/// Lifetime counters of a [`QueryEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Waves executed.
    pub waves: u64,
    /// Queries answered (one root = one query; a wave serves up to 64).
    pub queries: u64,
}

/// Admission queue shared by all submitter threads.
struct Admission<A> {
    next_ticket: u64,
    /// FIFO of `(ticket, root)` awaiting a wave.
    pending: VecDeque<(u64, usize)>,
    /// Answers posted by wave leaders, keyed by ticket. A `BTreeMap`
    /// keeps draining deterministic and needs no hasher.
    done: BTreeMap<u64, A>,
    /// Whether some thread is currently off executing a wave.
    leader_busy: bool,
    /// Waves started.
    waves: u64,
    /// Queries answered.
    served: u64,
}

/// The service: one backend plus a leader/follower batching queue.
///
/// See the module docs for the admission protocol; [`QueryEngine::query`]
/// is the concurrent path, [`QueryEngine::run_batch`] the bulk path used
/// by the harness and the benchmarks' sequential baseline.
pub struct QueryEngine<B: QueryBackend> {
    backend: B,
    batch_limit: usize,
    state: Mutex<Admission<B::Answer>>,
    progress: Condvar,
}

impl<B: QueryBackend> QueryEngine<B> {
    /// An engine fusing up to [`MAX_LANES`] roots per wave.
    pub fn new(backend: B) -> Self {
        Self::with_batch_limit(backend, MAX_LANES)
    }

    /// An engine fusing at most `batch_limit` roots per wave (clamped to
    /// `1..=MAX_LANES`).
    fn with_batch_limit(backend: B, batch_limit: usize) -> Self {
        let batch_limit = batch_limit.clamp(1, MAX_LANES);
        Self {
            backend,
            batch_limit,
            state: Mutex::new(Admission {
                next_ticket: 0,
                pending: VecDeque::new(),
                done: BTreeMap::new(),
                leader_busy: false,
                waves: 0,
                served: 0,
            }),
            progress: Condvar::new(),
        }
    }

    /// The backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        let st = self.lock();
        EngineStats {
            waves: st.waves,
            queries: st.served,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Admission<B::Answer>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(
        &self,
        guard: MutexGuard<'a, Admission<B::Answer>>,
    ) -> MutexGuard<'a, Admission<B::Answer>> {
        self.progress
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one batch of roots directly: chunks of at most
    /// `batch_limit` roots each execute as one wave, bypassing
    /// the admission queue (the caller already holds the whole batch).
    /// Each chunk takes the admission lock once, to count itself. Answers
    /// come back in root order.
    pub fn run_batch(&self, roots: &[usize]) -> Vec<B::Answer> {
        let mut answers = Vec::with_capacity(roots.len());
        for chunk in roots.chunks(self.batch_limit) {
            {
                let mut st = self.lock();
                st.served += chunk.len() as u64;
                st.waves += 1;
            }
            answers.extend(self.backend.run_wave(chunk));
        }
        answers
    }

    /// Admits one root and blocks until its answer is ready.
    ///
    /// The calling thread parks on a ticket. Whenever no wave is in
    /// flight, one waiter promotes itself to leader, drains up to
    /// `batch_limit` pending roots (FIFO, oldest first) and runs
    /// them as a single wave; everyone else sleeps until the leader posts
    /// the answers. Concurrent submitters therefore fuse into shared
    /// waves automatically, and a lone submitter degenerates to a direct
    /// call with one lock round-trip.
    ///
    /// # Panics
    /// If the backend refuses `root` ([`QueryBackend::admit`]) — in this
    /// thread, before the root reaches any wave.
    pub fn query(&self, root: usize) -> B::Answer {
        self.backend.admit(root);
        let ticket = {
            let mut st = self.lock();
            let t = st.next_ticket;
            st.next_ticket += 1;
            st.pending.push_back((t, root));
            t
        };
        let mut st = self.lock();
        loop {
            if let Some(answer) = st.done.remove(&ticket) {
                return answer;
            }
            if !st.leader_busy && !st.pending.is_empty() {
                st.leader_busy = true;
                let take = st.pending.len().min(self.batch_limit);
                st.waves += 1;
                let mut leading = Leading {
                    engine: self,
                    ticket,
                    batch: st.pending.drain(..take).collect(),
                };
                drop(st);
                let mut wave_roots = Vec::with_capacity(take);
                wave_roots.extend(leading.batch.iter().map(|&(_, r)| r));
                let answers = self.backend.run_wave(&wave_roots);
                debug_assert_eq!(answers.len(), take);
                let mut posted = self.lock();
                for ((t, _), answer) in leading.batch.drain(..).zip(answers) {
                    posted.done.insert(t, answer);
                }
                posted.leader_busy = false;
                posted.served += take as u64;
                self.progress.notify_all();
                st = posted;
                continue;
            }
            st = self.wait(st);
        }
    }
}

/// A wave in flight, held by its leader across [`QueryBackend::run_wave`].
///
/// If the wave unwinds (a panicking piece of a parallel kernel is re-raised
/// on the thread that dispatched it), the drop hands the unanswered
/// tickets back to the *front* of the queue in ticket order, frees the
/// leader seat and wakes every waiter, so the next one leads — and, if
/// the fault repeats, fails in its own frame. Nobody sleeps on a leader
/// that is gone. The dead leader's own ticket is dropped with it: no
/// thread is left to collect that answer.
struct Leading<'e, B: QueryBackend> {
    engine: &'e QueryEngine<B>,
    /// The leader's own ticket.
    ticket: u64,
    /// Tickets drained for this wave and not yet answered; empty once the
    /// answers are posted.
    batch: Vec<(u64, usize)>,
}

impl<B: QueryBackend> Drop for Leading<'_, B> {
    fn drop(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let mut st = self.engine.lock();
        for &pair in self.batch.iter().rev() {
            st.pending.push_front(pair);
        }
        st.pending.retain(|&(t, _)| t != self.ticket);
        st.leader_busy = false;
        drop(st);
        self.engine.progress.notify_all();
    }
}

impl<'g> QueryEngine<BitParallelBackend<'g>> {
    /// A shared-memory service over `graph`, fusing up to 64 concurrent
    /// queries per bit-parallel wave; a query that finds no company runs
    /// alone on `par`'s kernel.
    pub fn bit_parallel(graph: &'g Csr) -> Self {
        Self::new(BitParallelBackend::new(graph))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::engine::Scenario;
    use crate::opt::OptLevel;
    use crate::seq::bfs_top_down;
    use nbfs_graph::GraphBuilder;
    use nbfs_topology::MachineConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn graph() -> Csr {
        GraphBuilder::rmat(11, 16).seed(41).build()
    }

    /// The serial top-down run from `root`, as a lane's answer.
    fn oracle(g: &Csr, root: usize) -> LaneAnswer {
        LaneAnswer::from_run(root, bfs_top_down(g, root))
    }

    fn roots(g: &Csr, count: usize, seed: u64) -> Vec<usize> {
        let mut rng = nbfs_util::rng::Xoroshiro128::new(seed);
        let mut out = Vec::new();
        while out.len() < count {
            let v = rng.next_below(g.num_vertices() as u64) as usize;
            if g.degree(v) > 0 {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn concurrent_queries_fuse_into_shared_waves_and_match_reference() {
        let g = graph();
        let keys = roots(&g, 16, 1);
        let engine = QueryEngine::bit_parallel(&g);
        let answers: Vec<LaneAnswer> = std::thread::scope(|scope| {
            let handles: Vec<_> = keys
                .iter()
                .map(|&root| {
                    let engine = &engine;
                    scope.spawn(move || engine.query(root))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (answer, &root) in answers.iter().zip(&keys) {
            assert_eq!(answer, &oracle(&g, root), "root {root}");
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 16);
        assert!(
            stats.waves >= 1 && stats.waves <= 16,
            "waves={}",
            stats.waves
        );
    }

    #[test]
    fn run_batch_chunks_by_batch_limit_and_preserves_root_order() {
        let g = graph();
        let keys = roots(&g, 11, 3);
        let engine = QueryEngine::with_batch_limit(BitParallelBackend::new(&g), 4);
        assert_eq!(engine.batch_limit, 4);
        let answers = engine.run_batch(&keys);
        assert_eq!(answers.len(), keys.len());
        for (answer, &root) in answers.iter().zip(&keys) {
            assert_eq!(answer.root, root);
            assert_eq!(answer, &oracle(&g, root));
        }
        // 11 roots at limit 4 → ceil(11/4) = 3 waves.
        assert_eq!(
            engine.stats(),
            EngineStats {
                waves: 3,
                queries: 11
            }
        );
    }

    #[test]
    fn answers_are_independent_of_batch_composition() {
        let g = graph();
        let keys = roots(&g, 9, 7);
        let solo = QueryEngine::bit_parallel(&g);
        let fused = QueryEngine::bit_parallel(&g);
        let fused_answers = fused.run_batch(&keys);
        for (&root, fused_answer) in keys.iter().zip(&fused_answers) {
            assert_eq!(&solo.query(root), fused_answer, "root {root}");
        }
    }

    #[test]
    fn workspaces_recycle_through_the_pool() {
        let g = graph();
        let keys = roots(&g, 8, 5);
        let engine = QueryEngine::bit_parallel(&g);
        assert_eq!(engine.backend().pool.idle_len(), 0);
        engine.run_batch(&keys);
        assert_eq!(engine.backend().pool.idle_len(), 1);
        // Sequential waves reuse the parked workspace instead of growing
        // the pool.
        engine.run_batch(&keys);
        engine.run_batch(&keys[..3]);
        assert_eq!(engine.backend().pool.idle_len(), 1);
    }

    #[test]
    fn solo_queries_run_on_the_bitmap_kernel_and_match_reference() {
        let g = graph();
        let engine = QueryEngine::bit_parallel(&g);
        for root in roots(&g, 6, 23) {
            assert_eq!(engine.query(root), oracle(&g, root));
        }
        let isolated = (0..g.num_vertices()).find(|&v| g.degree(v) == 0).unwrap();
        let lone = engine.query(isolated);
        assert_eq!(lone, oracle(&g, isolated));
        assert_eq!((lone.visited, &lone.level_discovered[..]), (1, &[0][..]));
        // A one-root wave never takes a lane workspace.
        assert_eq!(engine.backend().pool.idle_len(), 0);
        assert_eq!(
            engine.stats(),
            EngineStats {
                waves: 7,
                queries: 7
            }
        );
    }

    #[test]
    fn a_one_root_tail_chunk_matches_its_root_inside_a_full_wave() {
        let g = graph();
        let keys = roots(&g, MAX_LANES + 1, 29);
        let engine = QueryEngine::bit_parallel(&g);
        // 65 roots at the default limit: one 64-lane wave, then the last
        // root alone on the bitmap kernel.
        let tail = engine.run_batch(&keys).pop().unwrap();
        assert_eq!(engine.stats().waves, 2);
        assert_eq!(tail.root, keys[MAX_LANES]);
        // The same root as the last lane of a full wave, then as the first.
        let mut inside = keys[1..].to_vec();
        assert_eq!(tail, engine.run_batch(&inside)[MAX_LANES - 1]);
        inside.rotate_right(1);
        assert_eq!(tail, engine.run_batch(&inside)[0]);
    }

    #[test]
    fn distributed_backend_batches_match_per_root_runs() {
        let g = graph();
        let scenario = Scenario::new(MachineConfig::small_test_cluster(2, 4), OptLevel::ShareAll);
        let bfs = DistributedBfs::new(&g, &scenario);
        let keys = roots(&g, 6, 9);
        let engine = QueryEngine::new(SearchBackend::new(&bfs));
        let batched = engine.run_batch(&keys);
        for (&root, answer) in keys.iter().zip(&batched) {
            let run = &answer.as_ref().unwrap().run;
            let solo = bfs.run(root);
            assert_eq!(run.parent, solo.parent, "root {root}");
            assert_eq!(run.visited, solo.visited);
        }
        assert_eq!(
            engine.stats(),
            EngineStats {
                waves: 1,
                queries: 6
            }
        );
    }

    #[test]
    fn a_root_that_is_not_a_vertex_is_an_answer_not_a_panic() {
        // `query` forwards caller-supplied roots to the wave leader; a bad
        // one must come back as that caller's error and leave the wave's
        // other answers (and the service) intact.
        let g = graph();
        let scenario = Scenario::new(MachineConfig::small_test_cluster(2, 4), OptLevel::ShareAll);
        let one = DistributedBfs::new(&g, &scenario);
        let two = TwoDimBfs::new(&g, &scenario);
        let n = g.num_vertices();
        let good = roots(&g, 1, 13)[0];
        let wave = QueryEngine::new(SearchBackend::new(&one)).run_batch(&[good, n]);
        assert_eq!(wave[0].as_ref().unwrap().run.parent, one.run(good).parent);
        assert!(
            matches!(wave[1], Err(NbfsError::Config(_))),
            "{:?}",
            wave[1]
        );
        let service = QueryEngine::new(SearchBackend::new(&two));
        assert!(matches!(service.query(n + 7), Err(NbfsError::Config(_))));
        assert_eq!(
            service.query(good).unwrap().run.parent,
            two.run(good).parent
        );
    }

    /// A backend whose first wave panics, as a parallel kernel does when
    /// one of its pieces panicked.
    struct FirstWavePanics<'g> {
        inner: BitParallelBackend<'g>,
        tripped: AtomicBool,
    }

    impl QueryBackend for FirstWavePanics<'_> {
        type Answer = LaneAnswer;

        fn run_wave(&self, roots: &[usize]) -> Vec<LaneAnswer> {
            assert!(
                self.tripped.swap(true, Ordering::Relaxed),
                "injected wave fault"
            );
            self.inner.run_wave(roots)
        }
    }

    #[test]
    fn a_dying_wave_leader_does_not_strand_its_followers() {
        let g = graph();
        let keys = roots(&g, 8, 17);
        let expect = QueryEngine::bit_parallel(&g).run_batch(&keys);
        let engine = QueryEngine::new(FirstWavePanics {
            inner: BitParallelBackend::new(&g),
            tripped: AtomicBool::new(false),
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let outcomes: Vec<bool> = std::thread::scope(|scope| {
            let submitters: Vec<_> = keys
                .iter()
                .enumerate()
                .map(|(i, &root)| {
                    let (tx, engine) = (tx.clone(), &engine);
                    scope.spawn(move || tx.send((i, engine.query(root))).unwrap())
                })
                .collect();
            // Whoever led the first wave is gone; every other submitter is
            // answered by a later leader, in bounded time.
            for _ in 0..keys.len() - 1 {
                let (i, answer) = rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .expect("a follower was stranded behind the dead leader");
                assert_eq!(answer, expect[i], "submitter {i}");
            }
            submitters.into_iter().map(|t| t.join().is_ok()).collect()
        });
        assert_eq!(outcomes.iter().filter(|&&ok| !ok).count(), 1);
        assert!(rx.try_recv().is_err(), "the dead leader sent an answer");
    }

    #[test]
    fn a_bad_root_fails_only_the_caller_that_passed_it() {
        let g = graph();
        let n = g.num_vertices();
        let keys = roots(&g, 7, 19);
        let expect = QueryEngine::bit_parallel(&g).run_batch(&keys);
        let engine = QueryEngine::bit_parallel(&g);
        // Hold the leader seat so that a bad root, were it enqueued, could
        // only be drained by one of the valid submitters below.
        engine.lock().leader_busy = true;
        std::thread::scope(|scope| {
            let engine = &engine;
            let bad = scope.spawn(move || engine.query(n));
            while !bad.is_finished() && engine.lock().pending.is_empty() {
                std::thread::yield_now();
            }
            // Free the seat without waking anyone: the next valid
            // submitter leads.
            engine.lock().leader_busy = false;
            let good: Vec<_> = keys
                .iter()
                .map(|&root| scope.spawn(move || engine.query(root)))
                .collect();
            for (i, (h, want)) in good.into_iter().zip(&expect).enumerate() {
                let answer = h.join().expect("a valid submitter died");
                assert_eq!(&answer, want, "submitter {i}");
            }
            assert!(bad.join().is_err(), "the bad root was answered");
        });
        assert_eq!(engine.stats().queries, 7);
    }
}
