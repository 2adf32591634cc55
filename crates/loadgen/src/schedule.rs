//! Deterministic request schedules.
//!
//! A schedule is the full list of operations a scenario will drive —
//! arrival offset plus payload — generated **up front, single-threaded,
//! from one seeded RNG**. Execution (N worker threads, OS jitter, real
//! latencies) never feeds back into the schedule, which is what makes
//! the determinism guarantee honest: the same seed yields a
//! byte-identical schedule regardless of how many threads later execute
//! it or how the run goes.
//!
//! Worker assignment is *derived* (queries round-robin by position,
//! ingests to a dedicated lane), never stored, so the canonical form is
//! independent of the executor's thread count.

/// One operation the load engine can issue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A recommendation query over a symptom-id set.
    Query {
        /// Sorted, deduplicated symptom ids.
        symptoms: Vec<u32>,
        /// Ranking depth.
        k: usize,
        /// Sticky client identity, sent as the request's `"client"`
        /// field. Experiment scenarios assign these so the split
        /// plan's sticky-key routing is observable across connections;
        /// `None` leaves the field (and the canonical form) untouched.
        client: Option<u32>,
    },
    /// A prescription ingested into the online pipeline.
    Ingest {
        /// Symptom ids.
        symptoms: Vec<u32>,
        /// Herb ids.
        herbs: Vec<u32>,
    },
}

/// One scheduled operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Arrival offset from scenario start, in microseconds.
    pub at_us: u64,
    /// The operation.
    pub op: Op,
}

/// The complete, ordered workload of one scenario run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Requests sorted by arrival offset (ties keep generation order).
    pub requests: Vec<Request>,
}

impl Schedule {
    /// Builds a schedule, sorting by arrival offset (stable, so equal
    /// offsets keep their generation order — determinism again).
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| r.at_us);
        Self { requests }
    }

    /// Number of query operations.
    pub fn query_count(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| matches!(r.op, Op::Query { .. }))
            .count()
    }

    /// Number of ingest operations.
    pub fn ingest_count(&self) -> usize {
        self.requests.len() - self.query_count()
    }

    /// Schedule horizon: the last arrival offset.
    pub fn horizon_us(&self) -> u64 {
        self.requests.last().map_or(0, |r| r.at_us)
    }

    /// The distinct query symptom sets (sorted), for precomputing
    /// expected rankings.
    pub fn distinct_query_sets(&self) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = self
            .requests
            .iter()
            .filter_map(|r| match &r.op {
                Op::Query { symptoms, .. } => Some(symptoms.clone()),
                Op::Ingest { .. } => None,
            })
            .collect();
        sets.sort();
        sets.dedup();
        sets
    }

    /// Indices of query requests for each of `workers` lanes
    /// (round-robin over queries in arrival order), preserving order
    /// within a lane. Ingests are excluded — they go to the ingest lane.
    pub fn query_lanes(&self, workers: usize) -> Vec<Vec<usize>> {
        let workers = workers.max(1);
        let mut lanes = vec![Vec::new(); workers];
        for (lane, idx) in self
            .requests
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.op, Op::Query { .. }))
            .map(|(i, _)| i)
            .enumerate()
            .map(|(q, i)| (q % workers, i))
        {
            lanes[lane].push(idx);
        }
        lanes
    }

    /// Indices of ingest requests, in arrival order.
    pub fn ingest_lane(&self) -> Vec<usize> {
        self.requests
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.op, Op::Ingest { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// The canonical text form: one line per request, fixed field order.
    /// Two schedules are identical iff their canonical forms are.
    pub fn canonical_string(&self) -> String {
        let mut out = String::with_capacity(self.requests.len() * 32);
        for r in &self.requests {
            match &r.op {
                Op::Query {
                    symptoms,
                    k,
                    client,
                } => match client {
                    None => out.push_str(&format!("{} q {:?} k={}\n", r.at_us, symptoms, k)),
                    Some(c) => {
                        out.push_str(&format!("{} q {:?} k={} c={}\n", r.at_us, symptoms, k, c));
                    }
                },
                Op::Ingest { symptoms, herbs } => {
                    out.push_str(&format!("{} i {:?} => {:?}\n", r.at_us, symptoms, herbs));
                }
            }
        }
        out
    }

    /// FNV-1a digest of the canonical form — the schedule fingerprint
    /// embedded in scenario reports so two runs are comparable at a
    /// glance.
    pub fn digest(&self) -> u64 {
        smgcn_experiment::fnv1a64(self.canonical_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule::new(vec![
            Request {
                at_us: 20,
                op: Op::Ingest {
                    symptoms: vec![1],
                    herbs: vec![2, 3],
                },
            },
            Request {
                at_us: 0,
                op: Op::Query {
                    symptoms: vec![0, 1],
                    k: 10,
                    client: None,
                },
            },
            Request {
                at_us: 10,
                op: Op::Query {
                    symptoms: vec![2],
                    k: 10,
                    client: Some(3),
                },
            },
            Request {
                at_us: 10,
                op: Op::Query {
                    symptoms: vec![0, 1],
                    k: 10,
                    client: None,
                },
            },
        ])
    }

    #[test]
    fn sorts_by_arrival_and_counts() {
        let s = sample();
        assert!(s.requests.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(s.query_count(), 3);
        assert_eq!(s.ingest_count(), 1);
        assert_eq!(s.horizon_us(), 20);
    }

    #[test]
    fn lanes_cover_all_queries_disjointly_for_any_worker_count() {
        let s = sample();
        for workers in 1..5 {
            let lanes = s.query_lanes(workers);
            let mut all: Vec<usize> = lanes.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all.len(), 3, "workers={workers}");
            all.dedup();
            assert_eq!(all.len(), 3, "workers={workers}: duplicated index");
        }
        assert_eq!(s.ingest_lane().len(), 1);
    }

    #[test]
    fn canonical_form_is_stable_and_digested() {
        let a = sample();
        let b = sample();
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert_eq!(a.digest(), b.digest());
        let mut c = sample();
        c.requests[0].at_us += 1;
        let c = Schedule::new(c.requests);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn distinct_sets_dedupe() {
        assert_eq!(sample().distinct_query_sets(), vec![vec![0, 1], vec![2]]);
    }
}
