//! Deterministic sharded worker pool — the one sanctioned concurrency
//! entry point in the workspace (`clippy.toml` disallows `thread::spawn`
//! and `thread::scope` everywhere else).
//!
//! The model is a seed-stable map-reduce: the input is split into
//! ordered shards whose boundaries depend only on the item count and an
//! explicit shard size — never on the thread count. Each shard carries
//! its own RNG seed, derived as [`splitmix64`]`(master_seed,
//! shard_index)`, so any randomized per-shard work draws from a stream
//! that is a pure function of the shard index. Workers take shard
//! indexes in plan order, never more than a fixed window past the next
//! shard to fold, and each result is folded into the caller's
//! accumulator in shard order, as soon as every earlier shard has been
//! folded ([`Pool::fold_shards`]). Together these three properties make
//! the folded output **byte-identical across thread counts** —
//! `ROUTERGEO_THREADS=1`, `=2`, and `=8` produce the same bytes for the
//! same seed.
//!
//! A worker panic is captured, attributed to its shard, and re-raised
//! on the calling thread as a `String` payload of the form
//! `"routergeo-pool worker panicked in shard N: <original message>"`.

use std::any::Any;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Environment variable overriding the worker count picked by
/// [`Pool::from_env`].
pub const THREADS_ENV: &str = "ROUTERGEO_THREADS";

/// How many shards, counting the next one to fold, may be mapped or
/// mapping but not yet folded. A worker that would map past the window
/// waits for the fold, so a fold slower than the maps holds at most
/// this many results, not the rest of the plan.
const WINDOW: usize = 16;

/// The `index`-th output of a SplitMix64 stream seeded with `seed`.
///
/// This is the shard-seed derivation: `splitmix64(master, i)` equals
/// what `SplitMix64::new(master)` would produce on its `i+1`-th call,
/// but is computed in O(1) from the index so shards can be seeded out
/// of order. The constants are the reference SplitMix64 finalizer
/// (Steele, Lea & Flood 2014); golden values are pinned by unit tests
/// so a refactor cannot silently change every downstream stream.
#[must_use]
pub fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One contiguous slice of the input, with its private RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position of this shard in the plan (and in the fold order).
    pub index: usize,
    /// Seed for this shard's RNG stream: `splitmix64(master, index)`.
    pub seed: u64,
    /// First item covered (inclusive).
    pub start: usize,
    /// One past the last item covered (exclusive).
    pub end: usize,
}

impl Shard {
    /// Number of items this shard covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard covers no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split `items` positions into ordered shards of at most `shard_size`
/// items each, seeding every shard from `master_seed`.
///
/// Boundaries are a pure function of `(items, shard_size)` — the thread
/// count never enters — which is the invariant that keeps parallel
/// output identical to serial output. A `shard_size` of zero is
/// clamped to one; zero items yield an empty plan.
#[must_use]
pub fn plan_shards(master_seed: u64, items: usize, shard_size: usize) -> Vec<Shard> {
    let size = shard_size.max(1);
    let mut shards = Vec::with_capacity(items.div_ceil(size));
    let mut start = 0usize;
    while start < items {
        let index = shards.len();
        shards.push(Shard {
            index,
            seed: splitmix64(master_seed, index as u64),
            start,
            end: (start + size).min(items),
        });
        start = (start + size).min(items);
    }
    shards
}

/// A fixed-width scoped worker pool. Holds no threads between calls —
/// each [`fold_shards`](Pool::fold_shards) spins up scoped workers and
/// joins them before returning, so borrows of caller state are fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A single-threaded pool: every shard runs inline on the caller.
    #[must_use]
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// Thread count from the environment: `ROUTERGEO_THREADS` when set
    /// to a positive integer, otherwise
    /// [`std::thread::available_parallelism`] (1 if unknown).
    #[must_use]
    pub fn from_env() -> Self {
        let from_var = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let threads = from_var.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        Pool::new(threads)
    }

    /// Number of worker threads this pool will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `map` once per shard of a `plan_shards(master_seed,
    /// items.len(), shard_size)` plan and hand each result to `fold`
    /// **in shard order**, as soon as every earlier shard has been
    /// folded.
    ///
    /// The fold runs on whichever worker completed that prefix, one
    /// shard at a time, while the other workers keep mapping. No worker
    /// maps more than sixteen shards past the next one to fold: it
    /// waits for the fold instead, so a caller that accumulates into
    /// one structure never holds more than sixteen results the fold
    /// has not yet reached. `fold` sees the same sequence at every
    /// thread count. With one thread (or at most one shard) everything
    /// runs inline on the caller.
    ///
    /// If `map` or `fold` panics, the first panic (by completion order)
    /// is re-raised here with its shard index prepended; workers stop
    /// pulling new shards and nothing more is folded once a panic is
    /// observed.
    pub fn fold_shards<T, R, M, F>(
        &self,
        master_seed: u64,
        items: &[T],
        shard_size: usize,
        map: M,
        fold: F,
    ) where
        T: Sync,
        R: Send,
        M: Fn(&Shard, &[T]) -> R + Sync,
        F: FnMut(&Shard, R) + Send,
    {
        let shards = plan_shards(master_seed, items.len(), shard_size);
        self.fold_plan(
            shards,
            |shard| map(shard, &items[shard.start..shard.end]),
            fold,
        );
    }

    /// [`fold_shards`](Pool::fold_shards) over `items` positions with
    /// no slice behind them: for work whose items each shard draws for
    /// itself from its seed.
    pub fn fold_count<R, M, F>(
        &self,
        master_seed: u64,
        items: usize,
        shard_size: usize,
        map: M,
        fold: F,
    ) where
        R: Send,
        M: Fn(&Shard) -> R + Sync,
        F: FnMut(&Shard, R) + Send,
    {
        self.fold_plan(plan_shards(master_seed, items, shard_size), map, fold);
    }

    /// Map and fold `shards` on up to `threads` workers: the one place
    /// that spawns them.
    fn fold_plan<R, M, F>(&self, shards: Vec<Shard>, map: M, fold: F)
    where
        R: Send,
        M: Fn(&Shard) -> R + Sync,
        F: FnMut(&Shard, R) + Send,
    {
        let workers = self.threads.min(shards.len());
        let job = Job::new(shards, map, fold);
        if workers <= 1 {
            job.work();
        } else {
            #[expect(
                clippy::disallowed_methods,
                reason = "the pool owns the workspace's worker threads"
            )]
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| job.work());
                }
            });
        }
        job.finish();
    }
}

/// One map/fold over a shard plan, shared by its workers.
struct Job<R, M, F> {
    shards: Vec<Shard>,
    map: M,
    state: Mutex<FoldState<R, F>>,
    /// Signalled when the fold moves on or a worker fails: what a
    /// worker waiting at the window's edge waits for.
    folded: Condvar,
    /// Caller's span at plan time: the parent of every shard span.
    parent: u64,
    /// Started at plan time; `queue_us` of a `pool.shard` span is when
    /// a worker picked the shard up.
    clock: routergeo_obs::Stopwatch,
    observe: bool,
    shards_run: routergeo_obs::Counter,
}

/// What the workers of a [`Job`] coordinate through.
struct FoldState<R, F> {
    /// Next shard to hand to a worker.
    next_map: usize,
    /// Next shard to fold.
    next_fold: usize,
    /// Mapped results waiting for every earlier shard to be folded,
    /// with a stopwatch started when each was mapped.
    ready: Vec<Option<(R, routergeo_obs::Stopwatch)>>,
    /// The fold closure: `None` while a worker is folding, and for
    /// good once a fold has panicked.
    fold: Option<F>,
    /// The first panic, by shard: the stop flag.
    failure: Option<(usize, String)>,
}

impl<R, M, F> Job<R, M, F>
where
    M: Fn(&Shard) -> R,
    F: FnMut(&Shard, R),
{
    fn new(shards: Vec<Shard>, map: M, fold: F) -> Self {
        // Observability: both counters are registered here on the
        // calling thread (deterministic registration order), and shard
        // spans are parented under whatever span the caller has open.
        routergeo_obs::counter("pool.shards_planned").add(shards.len() as u64);
        let shards_run = routergeo_obs::counter("pool.shards_run");
        let state = FoldState {
            next_map: 0,
            next_fold: 0,
            ready: shards.iter().map(|_| None).collect(),
            fold: Some(fold),
            failure: None,
        };
        Job {
            shards,
            map,
            state: Mutex::new(state),
            folded: Condvar::new(),
            parent: routergeo_obs::current_span(),
            clock: routergeo_obs::stopwatch(),
            observe: routergeo_obs::enabled(),
            shards_run,
        }
    }

    fn lock(&self) -> MutexGuard<'_, FoldState<R, F>> {
        // Map and fold run with the lock released and every update
        // under it is a single store, so a poisoned state is still
        // consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The worker loop: wait until the next shard is inside the window,
    /// take it, map it, park the result, then fold the completed prefix
    /// unless another worker already is.
    fn work(&self) {
        let mut st = self.lock();
        loop {
            // The shard at the window's edge is taken, so the next to
            // fold is being mapped or folded: the fold will move on.
            while st.failure.is_none() && st.next_map >= st.next_fold + WINDOW {
                // xtask-allow: RG011 a Condvar wait releases the guard while it blocks and retakes it to return
                st = (self.folded.wait(st)).unwrap_or_else(PoisonError::into_inner);
            }
            if st.failure.is_some() {
                return;
            }
            let Some(shard) = self.shards.get(st.next_map) else {
                return;
            };
            st.next_map += 1;
            drop(st);
            let mapped = catch_unwind(AssertUnwindSafe(|| self.map_one(shard)));
            st = self.lock();
            match mapped {
                Ok(r) => st.ready[shard.index] = Some((r, routergeo_obs::stopwatch())),
                Err(payload) => {
                    st.fail(shard.index, &*payload);
                    self.folded.notify_all();
                    return;
                }
            }
            let Some(mut fold) = st.fold.take() else {
                continue;
            };
            while st.failure.is_none() {
                let ix = st.next_fold;
                let Some((r, mapped_at)) = st.ready.get_mut(ix).and_then(Option::take) else {
                    break;
                };
                drop(st);
                let folded = catch_unwind(AssertUnwindSafe(|| {
                    self.fold_one(&mut fold, &self.shards[ix], r, mapped_at);
                }));
                st = self.lock();
                if let Err(payload) = folded {
                    st.fail(ix, &*payload);
                    self.folded.notify_all();
                    return;
                }
                st.next_fold += 1;
                self.folded.notify_all();
            }
            st.fold = Some(fold);
        }
    }

    fn map_one(&self, shard: &Shard) -> R {
        self.shards_run.incr();
        let _span = self.observe.then(|| {
            let attrs = vec![
                ("shard", shard.index.to_string()),
                ("items", shard.len().to_string()),
                ("queue_us", self.clock.elapsed_us().to_string()),
            ];
            routergeo_obs::span_under(self.parent, "pool.shard", attrs)
        });
        (self.map)(shard)
    }

    fn fold_one(&self, fold: &mut F, shard: &Shard, r: R, mapped_at: routergeo_obs::Stopwatch) {
        let _span = self.observe.then(|| {
            let attrs = vec![
                ("shard", shard.index.to_string()),
                ("lag_us", mapped_at.elapsed_us().to_string()),
            ];
            routergeo_obs::span_under(self.parent, "pool.fold", attrs)
        });
        fold(shard, r);
    }

    /// Re-raise the first worker panic on the caller.
    fn finish(self) {
        let st = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((ix, msg)) = st.failure {
            #[expect(
                clippy::panic,
                reason = "a worker panic resumes on the caller, attributed to its shard"
            )]
            panic_any(format!(
                "routergeo-pool worker panicked in shard {ix}: {msg}"
            ));
        }
    }
}

impl<R, F> FoldState<R, F> {
    fn fail(&mut self, shard: usize, payload: &(dyn Any + Send)) {
        if self.failure.is_none() {
            self.failure = Some((shard, payload_message(payload)));
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{RwLock, RwLockReadGuard};
    use std::time::Duration;

    // Reference SplitMix64 outputs for seed 0 (Steele et al. 2014, as
    // pinned by the JDK SplittableRandom and the xoshiro seeding code).
    #[test]
    fn splitmix64_golden_values() {
        assert_eq!(splitmix64(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0, 1), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(0, 2), 0x06C4_5D18_8009_454F);
        assert_eq!(splitmix64(20_170_301, 0), 0xFBAA_474C_E828_47E4);
        assert_eq!(splitmix64(20_170_301, 1), 0x7CE3_BE5B_D3B5_9CC9);
        assert_eq!(splitmix64(0xDEAD_BEEF, 7), 0xB30A_4CCF_430B_1B5A);
    }

    #[test]
    fn splitmix64_matches_sequential_stream_definition() {
        // splitmix64(seed, i) must be the i-th output of the canonical
        // sequential generator: state += GAMMA; out = mix(state).
        let seed = 0x1234_5678_9ABC_DEF0u64;
        let mut state = seed;
        for i in 0..100u64 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            assert_eq!(splitmix64(seed, i), z, "index {i}");
        }
    }

    #[test]
    fn plan_covers_input_exactly_once_in_order() {
        let shards = plan_shards(7, 10, 3);
        assert_eq!(shards.len(), 4);
        let spans: Vec<(usize, usize)> = shards.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(spans, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.seed, splitmix64(7, i as u64));
            assert!(!s.is_empty());
        }
        assert_eq!(shards[3].len(), 1);
    }

    #[test]
    fn plan_is_independent_of_thread_count_by_construction() {
        // The planner takes no thread count at all; pin boundary cases.
        assert!(plan_shards(1, 0, 16).is_empty());
        assert_eq!(plan_shards(1, 1, 16).len(), 1); // shards > items collapse
        assert_eq!(plan_shards(1, 16, 16).len(), 1);
        assert_eq!(plan_shards(1, 17, 16).len(), 2);
        assert_eq!(plan_shards(1, 5, 0).len(), 5); // zero size clamps to 1
    }

    /// Every pool call bumps the process-wide `pool.*` counters, and
    /// `cargo test` runs tests on parallel threads: tests that run the
    /// pool hold this shared, the counter test holds it exclusively.
    static COUNTERS: RwLock<()> = RwLock::new(());

    fn shared() -> RwLockReadGuard<'static, ()> {
        COUNTERS.read().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let _counters = shared();
        let pool = Pool::new(4);
        pool.fold_shards(1, &[] as &[u8], 8, |_, _| (), |_, ()| panic!("no shard"));
        pool.fold_count(1, 0, 8, |_| (), |_, ()| panic!("no shard"));
    }

    #[test]
    fn more_shards_than_items_and_more_threads_than_shards() {
        let _counters = shared();
        let pool = Pool::new(32);
        let items = [10u64, 20, 30];
        let mut out = Vec::new();
        let map = |shard: &Shard, chunk: &[u64]| {
            assert_eq!(chunk.len(), 1);
            chunk[0] + shard.index as u64
        };
        pool.fold_shards(9, &items, 1, map, |_, r| out.push(r));
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn fold_sees_every_shard_once_in_shard_order() {
        let _counters = shared();
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let mut order = Vec::new();
            let mut flat = Vec::new();
            Pool::new(threads).fold_shards(
                42,
                &items,
                7,
                |s, chunk| (s.index, chunk.to_vec()),
                |s, (index, chunk)| {
                    assert_eq!(s.index, index, "threads={threads}: result of another shard");
                    order.push(s.index);
                    flat.extend(chunk);
                },
            );
            assert_eq!(order, (0..143).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    /// How long a test gives a pool call before calling the pool wedged.
    const WATCHDOG: Duration = Duration::from_secs(30);

    /// Run `body` on a thread of its own and return its result, failing
    /// the test if it has not returned within [`WATCHDOG`]: a wedged
    /// pool fails its test instead of hanging the run.
    #[expect(
        clippy::disallowed_methods,
        reason = "a wedged pool must not take the test thread with it"
    )]
    fn watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || tx.send(body()));
        match rx.recv_timeout(WATCHDOG) {
            Err(RecvTimeoutError::Timeout) => panic!("the pool wedged: no result in {WATCHDOG:?}"),
            // A result, or a panic in `body`: the runner has ended.
            received => match runner.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(_) => received.expect("the runner sends before it returns"),
            },
        }
    }

    #[test]
    fn fold_keeps_shard_order_when_shards_finish_out_of_order() {
        // Shard 0 returns only after every other shard inside the window
        // has returned, so their results are parked until it lands; the
        // shards past the window wait until it is folded.
        let _counters = shared();
        let shards = 2 * WINDOW;
        for threads in [2, 3, 8] {
            let seen = watchdog(move || {
                let (done_tx, done_rx) = mpsc::channel::<usize>();
                let done_rx = Mutex::new(done_rx);
                let finished = AtomicUsize::new(0);
                let mut seen = Vec::new();
                Pool::new(threads).fold_shards(
                    0,
                    &vec![(); shards],
                    1,
                    |s, _| {
                        if s.index == 0 {
                            let rx = done_rx.lock().expect("only shard 0 receives");
                            for _ in 1..WINDOW {
                                rx.recv().expect("every other shard in the window reports");
                            }
                        }
                        let position = finished.fetch_add(1, Ordering::SeqCst);
                        if (1..WINDOW).contains(&s.index) {
                            done_tx.send(s.index).expect("shard 0 is listening");
                        }
                        position
                    },
                    |s, position| seen.push((s.index, position)),
                );
                seen
            });
            let order: Vec<usize> = seen.iter().map(|&(ix, _)| ix).collect();
            assert_eq!(order, (0..shards).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(
                seen[0].1,
                WINDOW - 1,
                "threads={threads}: shard 0 finished last in the window"
            );
        }
    }

    #[test]
    fn a_slow_fold_holds_no_more_than_the_window() {
        // Each fold waits until the maps have started every shard the
        // window lets in, so the maps always run ahead to its edge. A
        // map is counted when it starts and a fold when it ends, so
        // `started - folded` never exceeds what the pool itself has
        // mapped but not folded.
        let _counters = shared();
        let shards = 4 * WINDOW;
        for threads in [2, 3, 8] {
            let widest = watchdog(move || {
                let (started_tx, started_rx) = mpsc::channel::<()>();
                let [started, folded, widest] = [0; 3].map(AtomicUsize::new);
                // The fold owns the receiver and borrows the counter.
                let (folded, mut reported) = (&folded, 0);
                Pool::new(threads).fold_count(
                    0,
                    shards,
                    1,
                    |_| {
                        let claimed = started.fetch_add(1, Ordering::SeqCst) + 1;
                        let unfolded = claimed.saturating_sub(folded.load(Ordering::SeqCst));
                        widest.fetch_max(unfolded, Ordering::SeqCst);
                        started_tx.send(()).expect("the fold is listening");
                    },
                    move |shard, ()| {
                        while reported < (shard.index + WINDOW).min(shards) {
                            started_rx.recv().expect("every map reports");
                            reported += 1;
                        }
                        folded.fetch_add(1, Ordering::SeqCst);
                    },
                );
                widest.into_inner()
            });
            assert!(
                widest <= WINDOW,
                "threads={threads}: {widest} shards unfolded"
            );
            assert_eq!(
                widest, WINDOW,
                "threads={threads}: the maps filled the window"
            );
        }
    }

    #[test]
    fn shard_seeds_are_stable_across_thread_counts() {
        let _counters = shared();
        let seeds_at = |threads: usize| -> Vec<u64> {
            let mut seeds = Vec::new();
            Pool::new(threads).fold_count(0xFEED, 64, 4, |s| s.seed, |_, seed| seeds.push(seed));
            seeds
        };
        let one = seeds_at(1);
        assert_eq!(one, seeds_at(2));
        assert_eq!(one, seeds_at(8));
        assert_eq!(one[0], splitmix64(0xFEED, 0));
    }

    #[test]
    fn worker_panic_is_reraised_with_shard_attribution() {
        let _counters = shared();
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let in_map = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let map = |shard: &Shard| {
                    if shard.index == 3 {
                        panic!("boom in the middle");
                    }
                    shard.index
                };
                pool.fold_count(0, 10, 2, map, |_, _| ());
            }))
            .expect_err("the pool must propagate the map panic");
            let mut folded = Vec::new();
            let in_fold = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.fold_shards(
                    0,
                    &[0u8; 10],
                    2,
                    |shard, _| shard.index,
                    |_, ix| {
                        assert_ne!(ix, 2, "boom in the fold");
                        folded.push(ix);
                    },
                );
            }))
            .expect_err("the pool must propagate the fold panic");
            assert_eq!(
                folded,
                vec![0, 1],
                "threads={threads}: nothing folds after a panic"
            );
            for (caught, shard, what) in [
                (in_map, 3, "boom in the middle"),
                (in_fold, 2, "boom in the fold"),
            ] {
                let msg = caught
                    .downcast_ref::<String>()
                    .expect("pool panics carry a String payload");
                let prefix = format!("routergeo-pool worker panicked in shard {shard}: ");
                assert!(msg.starts_with(&prefix), "threads={threads}: {msg}");
                assert!(msg.contains(what), "threads={threads}: {msg}");
            }
        }
    }

    #[test]
    fn every_call_plans_once_and_runs_every_shard() {
        let _counters = COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
        let totals = || {
            let obs = routergeo_obs::global();
            (
                obs.counter_total("pool.shards_planned"),
                obs.counter_total("pool.shards_run"),
            )
        };
        let items = [0u8; 100];
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let calls: [(&str, &dyn Fn()); 2] = [
                ("fold_shards", &|| {
                    pool.fold_shards(0, &items, 7, |_, _| (), |_, ()| ())
                }),
                ("fold_count", &|| {
                    pool.fold_count(0, items.len(), 7, |_| (), |_, ()| ())
                }),
            ];
            for (name, call) in calls {
                let (planned0, run0) = totals();
                call();
                let (planned, run) = totals();
                assert_eq!(planned - planned0, 15, "{name} threads={threads}: one plan");
                assert_eq!(run - run0, 15, "{name} threads={threads}: every shard ran");
            }
        }
    }

    #[test]
    fn from_env_clamps_to_at_least_one() {
        assert!(Pool::from_env().threads() >= 1);
        assert_eq!(Pool::new(0).threads(), 1);
    }
}
