//! Micro-batching: pack concurrent queries into one scoring GEMM.
//!
//! Per-query frozen inference is already cheap, but under concurrency the
//! dominant cost is the `1 x d · d x H` scoring product plus per-call
//! overhead. The GEMM kernels amortize dramatically with batch height, so
//! the batcher runs a dedicated scoring thread: connection handlers
//! enqueue `(symptom set, k)` jobs and block on a channel; the scorer
//! drains whatever has accumulated (up to `max_batch`), optionally
//! lingering a few hundred microseconds to let stragglers join, scores
//! the whole batch with [`FrozenModel::rank_batch_timed`] and fans the
//! rankings back out.
//!
//! Each job pins a model [`Generation`] **at submission** (the server
//! passes the generation it already pinned for the whole request); the
//! scorer groups a drained batch by generation and runs one GEMM per
//! group. In steady state that is exactly one GEMM per drain; across a
//! hot swap the straddling drain splits in two — either way no GEMM
//! ever mixes weights, and no job is scored by weights it did not pin
//! (its validation, cache tag and herb names all agree with its score).
//!
//! Shutdown is cooperative: dropping the [`Batcher`] wakes the scorer,
//! which drains remaining jobs and exits.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::frozen::{FrozenError, FrozenModel};
use crate::server::ServingVocab;
use crate::slot::{Generation, ModelSlot};

/// Tuning knobs for the batching loop.
#[derive(Clone, Debug)]
pub struct BatcherConfig {
    /// Largest batch packed into one GEMM.
    pub max_batch: usize,
    /// How long the scorer waits for stragglers after the first job of a
    /// batch arrives. Zero disables lingering (drain-what's-there).
    pub linger: Duration,
    /// Most jobs allowed to wait for the scorer at once. A submission
    /// that would exceed the bound is rejected immediately with a
    /// retryable [`FrozenError::Overloaded`] instead of growing the
    /// queue (and every waiter's latency) without limit — under overload
    /// a fast structured "try another replica" beats a slow success.
    pub max_queue: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            linger: Duration::from_micros(200),
            max_queue: 4096,
        }
    }
}

/// A ranking plus the generation whose weights produced it.
type TaggedRanking = (Vec<u32>, Arc<Generation>);

/// A ranking, its generation, and where the time went.
type TimedRanking = (Vec<u32>, Arc<Generation>, ScoreTimings);

/// Stage durations of one job's trip through the scoring thread, the
/// raw material for `queue`/`batch`/`gemm`/`topk` trace spans and the
/// per-stage serving histograms.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScoreTimings {
    /// Submission to drain: queue wait including the linger window.
    pub queue_us: u64,
    /// Drain to GEMM start: grouping and per-job validation.
    pub batch_us: u64,
    /// The batched scoring product, selection excluded.
    pub gemm_us: u64,
    /// The batch's top-k selection, run on each tile of the product as
    /// the kernel stores it.
    pub topk_us: u64,
    /// Jobs scored in the same GEMM (this job included).
    pub batch_size: usize,
}

struct Job {
    set: Vec<u32>,
    k: usize,
    /// The generation pinned when the job was submitted; the scorer uses
    /// exactly these weights, so a request's validation, scoring, cache
    /// tag and rendered names all come from one generation even when a
    /// publish lands while the job is queued.
    generation: Arc<Generation>,
    submitted: Instant,
    /// The request's `deadline_ms` budget translated to a wall-clock
    /// instant at submission. A job whose deadline passes while it waits
    /// in the queue is shed at drain time, *before* it joins a GEMM —
    /// scoring a request the client has already abandoned is pure waste.
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<TimedRanking, FrozenError>>,
}

struct Shared {
    queue: Mutex<QueueState>,
    nonempty: Condvar,
    max_queue: usize,
}

struct QueueState {
    jobs: Vec<Job>,
    shutdown: bool,
}

/// Handle for submitting queries to the scoring thread.
pub struct Batcher {
    shared: Arc<Shared>,
    slot: Arc<ModelSlot>,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Spawns the scoring thread over a fixed `model` (no hot swap: the
    /// model is wrapped as a slot that never advances past generation 0).
    pub fn start(model: Arc<FrozenModel>, config: BatcherConfig) -> Self {
        Self::start_slot(
            Arc::new(ModelSlot::with_arc(model, ServingVocab::default())),
            config,
        )
    }

    /// Spawns the scoring thread over a hot-swappable [`ModelSlot`]. Each
    /// job is scored by the generation pinned at submission; a drained
    /// batch that straddles a publish is split into per-generation
    /// sub-batches so no GEMM ever mixes weights.
    pub fn start_slot(slot: Arc<ModelSlot>, config: BatcherConfig) -> Self {
        assert!(config.max_batch > 0, "Batcher: max_batch must be positive");
        assert!(config.max_queue > 0, "Batcher: max_queue must be positive");
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: Vec::new(),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
            max_queue: config.max_queue,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("smgcn-batcher".into())
            .spawn(move || scoring_loop(worker_shared, config))
            .expect("spawn batcher thread");
        Self {
            shared,
            slot,
            worker: Some(worker),
        }
    }

    /// Scores one query through the shared batch, blocking until its
    /// ranking is ready.
    pub fn recommend(&self, set: &[u32], k: usize) -> Result<Vec<u32>, FrozenError> {
        self.recommend_tagged(set, k).map(|(ranking, _)| ranking)
    }

    /// Like [`Batcher::recommend`], also returning the generation that
    /// scored the query — the hot-swap invariant callers rely on is that
    /// the ranking came from exactly this generation's weights. The
    /// generation is pinned here, at submission.
    pub fn recommend_tagged(&self, set: &[u32], k: usize) -> Result<TaggedRanking, FrozenError> {
        self.recommend_pinned(set, k, self.slot.load())
    }

    /// Scores one query against an explicitly pinned generation — the
    /// server pins once per request (name resolution, validation, cache
    /// tag) and passes that pin here, so a publish landing mid-request
    /// can never re-resolve the query's ids against a different
    /// vocabulary than the one they were validated under.
    pub fn recommend_pinned(
        &self,
        set: &[u32],
        k: usize,
        generation: Arc<Generation>,
    ) -> Result<TaggedRanking, FrozenError> {
        self.recommend_pinned_timed(set, k, generation)
            .map(|(ranking, generation, _)| (ranking, generation))
    }

    /// Like [`Batcher::recommend_pinned`], also returning where the
    /// job's time went ([`ScoreTimings`]) for trace spans and per-stage
    /// histograms.
    pub fn recommend_pinned_timed(
        &self,
        set: &[u32],
        k: usize,
        generation: Arc<Generation>,
    ) -> Result<TimedRanking, FrozenError> {
        self.recommend_pinned_deadline(set, k, generation, None)
    }

    /// Like [`Batcher::recommend_pinned_timed`] with a hard deadline: if
    /// the job is still queued when `deadline` passes, the drain sheds it
    /// with [`FrozenError::DeadlineExceeded`] instead of scoring it.
    /// `None` means no budget (legacy behaviour).
    pub fn recommend_pinned_deadline(
        &self,
        set: &[u32],
        k: usize,
        generation: Arc<Generation>,
        deadline: Option<Instant>,
    ) -> Result<TimedRanking, FrozenError> {
        let (reply, rx) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock().expect("batcher lock");
            if q.shutdown {
                return Err(FrozenError::Query("batcher is shutting down".into()));
            }
            if q.jobs.len() >= self.shared.max_queue {
                return Err(FrozenError::Overloaded(format!(
                    "scoring queue full ({} jobs waiting)",
                    q.jobs.len()
                )));
            }
            q.jobs.push(Job {
                set: set.to_vec(),
                k,
                generation,
                submitted: Instant::now(),
                deadline,
                reply,
            });
        }
        self.shared.nonempty.notify_one();
        rx.recv()
            .unwrap_or_else(|_| Err(FrozenError::Query("scoring thread exited".into())))
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        if let Ok(mut q) = self.shared.queue.lock() {
            q.shutdown = true;
        }
        self.shared.nonempty.notify_all();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

fn scoring_loop(shared: Arc<Shared>, config: BatcherConfig) {
    loop {
        let batch: Vec<Job> = {
            let mut q = shared.queue.lock().expect("batcher lock");
            while q.jobs.is_empty() && !q.shutdown {
                q = shared.nonempty.wait(q).expect("batcher wait");
            }
            if q.jobs.is_empty() && q.shutdown {
                return;
            }
            if !config.linger.is_zero() && q.jobs.len() < config.max_batch && !q.shutdown {
                // Give concurrent callers a moment to pile on. Each job
                // submission fires a notify, so loop until the full
                // linger window has elapsed (or the batch fills) rather
                // than admitting just the first straggler.
                let deadline = std::time::Instant::now() + config.linger;
                loop {
                    let now = std::time::Instant::now();
                    if now >= deadline || q.jobs.len() >= config.max_batch || q.shutdown {
                        break;
                    }
                    let (guard, _timeout) = shared
                        .nonempty
                        .wait_timeout(q, deadline - now)
                        .expect("batcher linger wait");
                    q = guard;
                }
            }
            let take = q.jobs.len().min(config.max_batch);
            q.jobs.drain(..take).collect()
        };
        let drained_at = Instant::now();
        // Score per pinned generation: in steady state every drained job
        // shares the current one (a single GEMM); a drain straddling a
        // publish splits into one sub-batch per generation, so no GEMM
        // mixes weights and no job is scored by weights it didn't pin.
        let mut groups: Vec<(Arc<Generation>, Vec<Job>)> = Vec::new();
        for job in batch {
            // Group by generation *identity*, not number: with the
            // experiment plane one batcher scores jobs pinned to several
            // variant slots, and two slots can be at the same generation
            // number with different weights. Pointer equality is exact.
            match groups
                .iter_mut()
                .find(|(g, _)| Arc::ptr_eq(g, &job.generation))
            {
                Some((_, jobs)) => jobs.push(job),
                None => groups.push((Arc::clone(&job.generation), vec![job])),
            }
        }
        for (generation, group) in groups {
            score_and_reply(&generation, group, drained_at);
        }
    }
}

fn score_and_reply(generation: &Arc<Generation>, batch: Vec<Job>, drained_at: Instant) {
    let model = &*generation.model;
    // Invalid sets (empty / out-of-range ids) would poison the whole
    // GEMM, so answer those individually and batch the rest. Expired
    // deadlines are shed here too — the last moment before the job
    // would cost a GEMM row.
    let mut valid: Vec<&Job> = Vec::with_capacity(batch.len());
    for job in &batch {
        if let Some(deadline) = job.deadline {
            if drained_at >= deadline {
                let waited = drained_at.duration_since(job.submitted).as_millis();
                let _ = job.reply.send(Err(FrozenError::DeadlineExceeded(format!(
                    "deadline_ms budget expired after {waited}ms in the scoring queue"
                ))));
                continue;
            }
        }
        match model.validate_query(&job.set) {
            Ok(()) => valid.push(job),
            Err(e) => {
                let _ = job.reply.send(Err(e));
            }
        }
    }
    if valid.is_empty() {
        return;
    }
    let sets: Vec<&[u32]> = valid.iter().map(|j| j.set.as_slice()).collect();
    let ks: Vec<usize> = valid.iter().map(|j| j.k).collect();
    let score_start = Instant::now();
    let batch_us = score_start.duration_since(drained_at).as_micros() as u64;
    match model.rank_batch_timed(&sets, &ks) {
        Ok((rankings, select)) => {
            // Selection runs inside the product, tile by tile: what the
            // visitor took is `topk`, the rest of the call is `gemm`, so
            // the two still partition the scored wall time.
            let topk_us = select.as_micros() as u64;
            let gemm_us = (score_start.elapsed().as_micros() as u64).saturating_sub(topk_us);
            let batch_size = valid.len();
            for (job, ranking) in valid.iter().zip(rankings) {
                let timings = ScoreTimings {
                    queue_us: drained_at.duration_since(job.submitted).as_micros() as u64,
                    batch_us,
                    gemm_us,
                    topk_us,
                    batch_size,
                };
                let _ = job
                    .reply
                    .send(Ok((ranking, Arc::clone(generation), timings)));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for job in valid {
                let _ = job.reply.send(Err(FrozenError::Query(msg.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_tensor::Matrix;

    fn model() -> Arc<FrozenModel> {
        let symptoms = Matrix::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let herbs = Matrix::from_fn(9, 4, |r, c| ((r * 5 + c * 11) % 7) as f32 - 3.0);
        Arc::new(FrozenModel::from_parts(symptoms, herbs, None).unwrap())
    }

    #[test]
    fn single_query_matches_direct_path() {
        let m = model();
        let batcher = Batcher::start(Arc::clone(&m), BatcherConfig::default());
        let got = batcher.recommend(&[0, 3, 5], 4).unwrap();
        assert_eq!(got, m.recommend(&[0, 3, 5], 4).unwrap());
    }

    #[test]
    fn concurrent_queries_all_answered_correctly() {
        let m = model();
        let batcher = Arc::new(Batcher::start(Arc::clone(&m), BatcherConfig::default()));
        let mut handles = Vec::new();
        for t in 0..16u32 {
            let batcher = Arc::clone(&batcher);
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    let set = vec![(t + i) % 6, (t * i + 1) % 6];
                    let k = 1 + ((t + i) % 5) as usize;
                    let got = batcher.recommend(&set, k).unwrap();
                    let want = m.recommend(&set, k).unwrap();
                    assert_eq!(got, want, "t={t} i={i}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn invalid_queries_fail_without_poisoning_batch() {
        let m = model();
        let batcher = Arc::new(Batcher::start(
            Arc::clone(&m),
            BatcherConfig {
                max_batch: 8,
                linger: Duration::from_millis(2),
                ..BatcherConfig::default()
            },
        ));
        let bad = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.recommend(&[999], 3))
        };
        let good = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.recommend(&[1, 2], 3))
        };
        assert!(bad.join().unwrap().is_err());
        assert_eq!(
            good.join().unwrap().unwrap(),
            m.recommend(&[1, 2], 3).unwrap()
        );
    }

    #[test]
    fn slot_swap_takes_effect_at_next_drain() {
        let old = model();
        let slot = Arc::new(ModelSlot::with_arc(
            Arc::clone(&old),
            ServingVocab::default(),
        ));
        let batcher = Batcher::start_slot(Arc::clone(&slot), BatcherConfig::default());
        let (r0, g0) = batcher.recommend_tagged(&[0, 1], 3).unwrap();
        assert_eq!(g0.number, 0);
        assert_eq!(r0, old.recommend(&[0, 1], 3).unwrap());
        // Publish a model with reversed herb preferences.
        let symptoms = Matrix::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let herbs = Matrix::from_fn(9, 4, |r, c| -(((r * 5 + c * 11) % 7) as f32 - 3.0));
        let new = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
        let expected_new = new.recommend(&[0, 1], 3).unwrap();
        slot.publish(new, ServingVocab::default());
        let (r1, g1) = batcher.recommend_tagged(&[0, 1], 3).unwrap();
        assert_eq!(g1.number, 1, "post-publish drains use the new generation");
        assert_eq!(r1, expected_new);
    }

    #[test]
    fn full_queue_sheds_with_retryable_error() {
        let m = model();
        // One-slot queue with a long linger: the first job sits in the
        // queue for the whole linger window, so a second submission in
        // that window must be shed, not parked.
        let batcher = Arc::new(Batcher::start(
            Arc::clone(&m),
            BatcherConfig {
                max_batch: 8,
                linger: Duration::from_millis(400),
                max_queue: 1,
            },
        ));
        let queued = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.recommend(&[0, 1], 3))
        };
        std::thread::sleep(Duration::from_millis(100));
        let shed = batcher.recommend(&[2, 3], 3);
        assert!(
            matches!(shed, Err(FrozenError::Overloaded(_))),
            "second job must be shed while the first lingers: {shed:?}"
        );
        // The queued job still completes correctly after the linger.
        assert_eq!(
            queued.join().unwrap().unwrap(),
            m.recommend(&[0, 1], 3).unwrap()
        );
        // And once the queue drains, submissions are accepted again.
        assert!(batcher.recommend(&[2, 3], 3).is_ok());
    }

    #[test]
    fn expired_deadline_is_shed_before_scoring() {
        let m = model();
        let slot = Arc::new(ModelSlot::with_arc(Arc::clone(&m), ServingVocab::default()));
        // A long linger guarantees the already-expired job waits in the
        // queue past its deadline before the drain examines it.
        let batcher = Batcher::start_slot(
            Arc::clone(&slot),
            BatcherConfig {
                max_batch: 8,
                linger: Duration::from_millis(20),
                ..BatcherConfig::default()
            },
        );
        let expired = Some(Instant::now() - Duration::from_millis(1));
        let got = batcher.recommend_pinned_deadline(&[0, 1], 3, slot.load(), expired);
        assert!(
            matches!(got, Err(FrozenError::DeadlineExceeded(_))),
            "expired job must be shed at drain: {got:?}"
        );
        // A generous deadline scores normally.
        let live = Some(Instant::now() + Duration::from_secs(5));
        let got = batcher
            .recommend_pinned_deadline(&[0, 1], 3, slot.load(), live)
            .unwrap();
        assert_eq!(got.0, m.recommend(&[0, 1], 3).unwrap());
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let batcher = Batcher::start(model(), BatcherConfig::default());
        let _ = batcher.recommend(&[1], 2).unwrap();
        drop(batcher); // must not hang or panic
    }
}
