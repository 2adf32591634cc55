//! Micro-batching: pack concurrent queries into one scoring GEMM.
//!
//! Per-query frozen inference is already cheap, but under concurrency the
//! dominant cost is the `1 x d · d x H` scoring product plus per-call
//! overhead. The GEMM kernels amortize dramatically with batch height, so
//! the batcher runs a dedicated scoring thread: connection handlers
//! enqueue `(symptom set, k)` jobs and block on a channel; the scorer
//! drains whatever has accumulated after lingering a fixed 200 µs for
//! stragglers to join, scores the whole batch with
//! [`FrozenModel::rank_batch_timed`](crate::FrozenModel::rank_batch_timed)
//! and fans the rankings back out.
//!
//! Neither the queue nor a batch has a bound of its own: a connection has
//! at most one request in flight and a fixed worker pool runs them, so
//! at most one job per worker waits here.
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

use crate::frozen::FrozenError;
use crate::slot::{Generation, ModelSlot};

/// How long the scorer waits for stragglers after the first job of a
/// batch arrives. Zero (drain what is there) is faster: a prototype
/// batcher with neither linger nor thread served `tcp_unique` at 18.7k
/// ops/s against 5.4k (2-core VM, the workload pinned to one core). But
/// the repository benchmark keeps every answer, so that speed took its
/// `peak_rss_mb` from 23.5 to 49.8 MB, past the metric's bound, and
/// `tcp_publish_write` p95 rose from ≈ 3 to 4.5 ms. The linger stays
/// until the benchmark's op log is bounded.
const LINGER: Duration = Duration::from_micros(200);

/// Settings of the batching loop; it has none. A batch is bounded by
/// the worker pool (one job per worker), so a cap could not bind.
#[derive(Clone, Debug, Default)]
pub struct BatcherConfig;

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
}

struct QueueState {
    jobs: Vec<Job>,
    shutdown: bool,
}

/// Handle for submitting queries to the scoring thread.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Spawns the scoring thread for jobs pinned to generations of a
    /// hot-swappable [`ModelSlot`]. Each job is scored by the generation
    /// it brings; a drained batch that straddles a publish is split into
    /// per-generation sub-batches so no GEMM ever mixes weights. Every
    /// pin comes with its job, so the batcher keeps no handle on the
    /// slot itself.
    pub fn start_slot(_slot: Arc<ModelSlot>, _config: BatcherConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: Vec::new(),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("smgcn-batcher".into())
            .spawn(move || scoring_loop(worker_shared))
            .expect("spawn batcher thread");
        Self {
            shared,
            worker: Some(worker),
        }
    }

    /// Scores one query against an explicitly pinned generation, also
    /// returning where the job's time went ([`ScoreTimings`]) for trace
    /// spans and per-stage histograms. The server pins once per request
    /// (name resolution, validation, cache tag) and passes that pin
    /// here, so a publish landing mid-request can never re-resolve the
    /// query's ids against a different vocabulary than the one they
    /// were validated under.
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
    /// `None` means no budget.
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

fn scoring_loop(shared: Arc<Shared>) {
    loop {
        let batch: Vec<Job> = {
            let mut q = shared.queue.lock().expect("batcher lock");
            while q.jobs.is_empty() && !q.shutdown {
                q = shared.nonempty.wait(q).expect("batcher wait");
            }
            if q.jobs.is_empty() && q.shutdown {
                return;
            }
            // Give concurrent callers a moment to pile on. Each job
            // submission fires a notify, so loop until the full linger
            // window has elapsed rather than admitting just the first
            // straggler.
            let deadline = Instant::now() + LINGER;
            loop {
                let now = Instant::now();
                if now >= deadline || q.shutdown {
                    break;
                }
                let (guard, _timeout) = shared
                    .nonempty
                    .wait_timeout(q, deadline - now)
                    .expect("batcher linger wait");
                q = guard;
            }
            q.jobs.drain(..).collect()
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
    use crate::frozen::FrozenModel;
    use crate::server::ServingVocab;
    use smgcn_tensor::Matrix;

    fn model() -> Arc<FrozenModel> {
        let symptoms = Matrix::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let herbs = Matrix::from_fn(9, 4, |r, c| ((r * 5 + c * 11) % 7) as f32 - 3.0);
        Arc::new(FrozenModel::from_parts(symptoms, herbs, None).unwrap())
    }

    /// A batcher over a fresh slot holding `model`.
    fn start(model: &Arc<FrozenModel>, config: BatcherConfig) -> (Arc<ModelSlot>, Batcher) {
        let slot = Arc::new(ModelSlot::with_arc(
            Arc::clone(model),
            ServingVocab::default(),
        ));
        let batcher = Batcher::start_slot(Arc::clone(&slot), config);
        (slot, batcher)
    }

    /// One query scored by the slot's current generation, as the server
    /// asks it.
    fn rank(
        batcher: &Batcher,
        slot: &ModelSlot,
        set: &[u32],
        k: usize,
    ) -> Result<Vec<u32>, FrozenError> {
        batcher
            .recommend_pinned_timed(set, k, slot.load())
            .map(|(ranking, _, _)| ranking)
    }

    #[test]
    fn single_query_matches_direct_path() {
        let m = model();
        let (slot, batcher) = start(&m, BatcherConfig);
        let got = rank(&batcher, &slot, &[0, 3, 5], 4).unwrap();
        assert_eq!(got, m.recommend(&[0, 3, 5], 4).unwrap());
    }

    #[test]
    fn concurrent_queries_all_answered_correctly() {
        let m = model();
        let (slot, batcher) = start(&m, BatcherConfig);
        std::thread::scope(|scope| {
            for t in 0..16u32 {
                let (batcher, slot, m) = (&batcher, &slot, &m);
                scope.spawn(move || {
                    for i in 0..25u32 {
                        let set = vec![(t + i) % 6, (t * i + 1) % 6];
                        let k = 1 + ((t + i) % 5) as usize;
                        let got = rank(batcher, slot, &set, k).unwrap();
                        let want = m.recommend(&set, k).unwrap();
                        assert_eq!(got, want, "t={t} i={i}");
                    }
                });
            }
        });
    }

    #[test]
    fn invalid_queries_fail_without_poisoning_batch() {
        let m = model();
        let (slot, batcher) = start(&m, BatcherConfig);
        let (bad, good) = std::thread::scope(|scope| {
            let bad = scope.spawn(|| rank(&batcher, &slot, &[999], 3));
            let good = scope.spawn(|| rank(&batcher, &slot, &[1, 2], 3));
            (bad.join().unwrap(), good.join().unwrap())
        });
        assert!(bad.is_err());
        assert_eq!(good.unwrap(), m.recommend(&[1, 2], 3).unwrap());
    }

    #[test]
    fn a_job_is_scored_by_the_generation_it_pins() {
        let old = model();
        let (slot, batcher) = start(&old, BatcherConfig);
        let (r0, g0, _) = batcher
            .recommend_pinned_timed(&[0, 1], 3, slot.load())
            .unwrap();
        assert_eq!(g0.number, 0);
        assert_eq!(r0, old.recommend(&[0, 1], 3).unwrap());
        // Publish a model with reversed herb preferences.
        let symptoms = Matrix::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let herbs = Matrix::from_fn(9, 4, |r, c| -(((r * 5 + c * 11) % 7) as f32 - 3.0));
        let new = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
        let expected_new = new.recommend(&[0, 1], 3).unwrap();
        slot.publish(new, ServingVocab::default());
        let (r1, g1, _) = batcher
            .recommend_pinned_timed(&[0, 1], 3, slot.load())
            .unwrap();
        assert_eq!(g1.number, 1, "a pin taken after the publish");
        assert_eq!(r1, expected_new);
        // The old pin still scores with the old weights.
        let (r0, _, _) = batcher.recommend_pinned_timed(&[0, 1], 3, g0).unwrap();
        assert_eq!(r0, old.recommend(&[0, 1], 3).unwrap());
    }

    /// Each generation's herbs and `W_mlp` live only as GEMM panels
    /// packed when the generation was built. A drain that holds jobs
    /// pinned to two generations must score each with its own panels.
    #[test]
    fn drain_straddling_a_publish_scores_each_job_with_its_own_panels() {
        // Distinct SI heads as well as distinct herb counts (19 -> 21,
        // both ending in a ragged panel), so both packed operands differ.
        let model = |g: usize| {
            let symptoms = Matrix::from_fn(6, 4, |r, c| ((r * 3 + c * g + g) % 7) as f32 - 2.5);
            let herbs = Matrix::from_fn(19 + 2 * g, 4, |r, c| {
                ((r * (3 + g) + c * 5) % 11) as f32 - 4.5
            });
            let w = Matrix::from_fn(4, 4, |r, c| ((r + c * (2 + g)) % 5) as f32 * 0.5 - 0.75);
            let b = Matrix::from_fn(1, 4, |_, c| (c + g) as f32 * 0.25 - 0.5);
            FrozenModel::from_parts(symptoms, herbs, Some((w, b))).unwrap()
        };
        let slot = Arc::new(ModelSlot::new(model(0), ServingVocab::default()));
        let batcher = Batcher::start_slot(Arc::clone(&slot), BatcherConfig);
        let old = slot.load();
        assert_eq!(slot.publish(model(1), ServingVocab::default()), 1);
        let new = slot.load();
        // All three jobs enter the queue under one lock hold, so the
        // scorer can only drain them together. Grouping then splits the
        // drain into one GEMM per generation: two jobs on the old
        // panels, one on the new.
        let jobs: [(&[u32], Arc<Generation>); 3] = [
            (&[0, 2, 3], Arc::clone(&old)),
            (&[1, 4], old),
            (&[0, 2, 3], new),
        ];
        let replies = {
            let mut q = batcher.shared.queue.lock().unwrap();
            jobs.clone().map(|(set, generation)| {
                let (reply, rx) = mpsc::channel();
                q.jobs.push(Job {
                    set: set.to_vec(),
                    k: 6,
                    generation,
                    submitted: Instant::now(),
                    deadline: None,
                    reply,
                });
                rx
            })
        };
        batcher.shared.nonempty.notify_one();
        for ((set, pinned), rx) in jobs.into_iter().zip(replies) {
            let (ranking, generation, timings) = rx.recv().unwrap().unwrap();
            let g = pinned.number as usize;
            assert!(Arc::ptr_eq(&generation, &pinned));
            assert_eq!(timings.batch_size, 2 - g, "generation {g}'s GEMM");
            assert_eq!(ranking, model(g).recommend(set, 6).unwrap());
        }
        assert_ne!(
            model(0).recommend(&[0, 2, 3], 6).unwrap(),
            model(1).recommend(&[0, 2, 3], 6).unwrap(),
            "the generations must rank differently"
        );
    }

    #[test]
    fn expired_deadline_is_shed_before_scoring() {
        let m = model();
        let (slot, batcher) = start(&m, BatcherConfig);
        // The deadline has passed before submission, so the drain
        // always finds it expired.
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
        let (slot, batcher) = start(&model(), BatcherConfig);
        let _ = rank(&batcher, &slot, &[1], 2).unwrap();
        drop(batcher); // must not hang or panic
    }
}
