//! Consistent-hash ring: symptom-set keys → replicas, with cache
//! affinity.
//!
//! The replica-side LRU is keyed by the sorted symptom-id set, so the
//! cluster's aggregate hit rate depends on the *same* clinic
//! presentation always landing on the *same* replica. A modulo
//! assignment would reshuffle almost every key when a replica joins or
//! leaves (flushing every cache in the fleet at once); a consistent-hash
//! ring moves only the keys owned by the changed replica — roughly
//! `1/N` of the keyspace — which is exactly the property the property
//! tests in `tests/ring_props.rs` pin down.
//!
//! Each replica owns [`HashRing::vnodes`] pseudo-random points on a
//! `u64` circle; a key routes to the first point at or after its hash
//! (wrapping). Virtual nodes smooth the per-replica share from the
//! high-variance one-point-per-replica split to within a few tens of
//! percent of uniform. [`HashRing::candidates`] enumerates *distinct*
//! replicas in ring order from the key's point — the router's failover
//! walk, which preserves affinity for the surviving replicas (every key
//! not owned by a dead replica keeps its owner).

use smgcn_experiment::{fnv1a64, splitmix64 as mix};

/// A consistent-hash ring over small integer replica ids.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, replica)` sorted by point.
    points: Vec<(u64, usize)>,
    /// Virtual nodes per replica.
    vnodes: usize,
    /// Number of distinct replicas on the ring.
    replicas: usize,
}

/// Hashes a sorted symptom-id set into a ring key. Callers must pass the
/// *canonical* (sorted, deduplicated) set so permutations of one clinic
/// presentation share a key — the same canonicalisation the replica
/// cache uses.
pub fn key_of_ids(sorted_ids: &[u32]) -> u64 {
    let mut h = 0x5a17_c0de_0b5e_0000u64;
    for &id in sorted_ids {
        h = mix(h ^ mix(u64::from(id) + 1));
    }
    h
}

/// Hashes a set of symptom *names* into a ring key, order-insensitively
/// (per-name hashes are sorted before folding). Name- and id-form
/// requests for the same set hash to different points — affinity is a
/// cache optimisation, not a correctness requirement, and clinic clients
/// stick to one form.
pub fn key_of_names<S: AsRef<str>>(names: &[S]) -> u64 {
    // FNV-1a, then mixed: stable across platforms and runs.
    let mut hashes: Vec<u64> = names
        .iter()
        .map(|n| mix(fnv1a64(n.as_ref().as_bytes())))
        .collect();
    hashes.sort_unstable();
    let mut h = 0x5a17_c0de_0b5e_0001u64;
    for v in hashes {
        h = mix(h ^ v);
    }
    h
}

impl HashRing {
    /// An empty ring with `vnodes` virtual nodes per replica.
    ///
    /// # Panics
    /// Panics if `vnodes` is zero.
    pub fn new(vnodes: usize) -> Self {
        assert!(vnodes > 0, "HashRing: vnodes must be positive");
        Self {
            points: Vec::new(),
            vnodes,
            replicas: 0,
        }
    }

    /// Ring with replicas `0..n` already added.
    pub fn with_replicas(n: usize, vnodes: usize) -> Self {
        let mut ring = Self::new(vnodes);
        for id in 0..n {
            ring.add(id);
        }
        ring
    }

    /// Number of distinct replicas on the ring.
    pub fn len(&self) -> usize {
        self.replicas
    }

    /// True when no replica has been added.
    pub fn is_empty(&self) -> bool {
        self.replicas == 0
    }

    /// Virtual nodes per replica.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Adds replica `id` (a no-op if already present).
    pub fn add(&mut self, id: usize) {
        if self.points.iter().any(|&(_, r)| r == id) {
            return;
        }
        for v in 0..self.vnodes {
            // Point = mix of (replica, vnode); deterministic so every
            // router instance in a fleet agrees on ownership.
            let point = mix(mix(id as u64 + 1) ^ (v as u64).wrapping_mul(0x9e37_79b9));
            self.points.push((point, id));
        }
        self.points.sort_unstable();
        self.replicas += 1;
    }

    /// Removes replica `id` (a no-op if absent).
    pub fn remove(&mut self, id: usize) {
        let before = self.points.len();
        self.points.retain(|&(_, r)| r != id);
        if self.points.len() != before {
            self.replicas -= 1;
        }
    }

    /// The replica owning `key`, or `None` on an empty ring.
    pub fn route(&self, key: u64) -> Option<usize> {
        self.successors(key).next()
    }

    /// All distinct replicas in ring order starting from `key`'s point:
    /// the owner first, then each failover candidate. The order depends
    /// only on (key, membership), so every router walks the same list.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        self.successors(key).collect()
    }

    fn successors(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.points.partition_point(|&(p, _)| p < key);
        let n = self.points.len();
        let mut seen_mask: Vec<bool> = Vec::new();
        self.points
            .iter()
            .cycle()
            .skip(start)
            .take(n)
            .filter_map(move |&(_, id)| {
                if seen_mask.len() <= id {
                    seen_mask.resize(id + 1, false);
                }
                if seen_mask[id] {
                    None
                } else {
                    seen_mask[id] = true;
                    Some(id)
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_deterministic_and_cover_all_replicas() {
        let ring = HashRing::with_replicas(3, 64);
        let mut owners = [0usize; 3];
        for i in 0..3000u64 {
            let key = mix(i);
            let a = ring.route(key).unwrap();
            assert_eq!(ring.route(key), Some(a), "routing must be stable");
            owners[a] += 1;
        }
        assert!(owners.iter().all(|&n| n > 0), "{owners:?}");
    }

    #[test]
    fn candidates_list_every_replica_once_owner_first() {
        let ring = HashRing::with_replicas(5, 16);
        for i in 0..200u64 {
            let key = mix(i ^ 0xabcd);
            let cands = ring.candidates(key);
            assert_eq!(cands.len(), 5);
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
            assert_eq!(cands[0], ring.route(key).unwrap());
        }
    }

    #[test]
    fn add_remove_round_trips() {
        let mut ring = HashRing::with_replicas(3, 32);
        let key = key_of_ids(&[1, 4, 9]);
        let owner = ring.route(key).unwrap();
        ring.remove(owner);
        assert_eq!(ring.len(), 2);
        let fallback = ring.route(key).unwrap();
        assert_ne!(fallback, owner);
        ring.add(owner);
        assert_eq!(ring.route(key), Some(owner), "re-adding restores ownership");
        ring.add(owner); // duplicate add is a no-op
        assert_eq!(ring.len(), 3);
        ring.remove(99); // absent remove is a no-op
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.route(42), None);
        assert!(ring.candidates(42).is_empty());
    }

    #[test]
    fn id_keys_are_canonical_name_keys_order_insensitive() {
        assert_eq!(key_of_ids(&[1, 2, 3]), key_of_ids(&[1, 2, 3]));
        assert_ne!(key_of_ids(&[1, 2, 3]), key_of_ids(&[1, 2, 4]));
        assert_eq!(
            key_of_names(&["fever", "cough"]),
            key_of_names(&["cough", "fever"])
        );
        assert_ne!(key_of_names(&["fever"]), key_of_names(&["cough"]));
    }
}
