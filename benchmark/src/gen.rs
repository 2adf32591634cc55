//! Seeded inputs: model weights, vocabulary names, symptom sets and
//! request lines. Everything a workload feeds the program comes from
//! here, so `--seed` fixes the inputs and nothing else.

use smgcn_serve::{FrozenModel, ServingVocab};
use smgcn_tensor::Matrix;

/// Ranking depth of every request.
pub const K: usize = 10;

/// SplitMix64: small, seedable, and the benchmark's own, so a change to
/// the repository's vendored `rand` cannot move the generated inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for an independent stream (a client thread, a model).
    /// Seed and stream each go through the mixer first: SplitMix states
    /// that differ by a small multiple of its increment would yield the
    /// same sequence a few steps apart.
    pub fn fork(seed: u64, stream: u64) -> Self {
        Self(Self(seed).next_u64() ^ Self(!stream).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn weights(&mut self, len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|_| self.unit() * scale).collect()
    }
}

/// A served model as plain weight vectors (row-major). The oracle scores
/// from these; [`Weights::frozen`] hands the same numbers to the program.
pub struct Weights {
    pub n_symptoms: usize,
    pub n_herbs: usize,
    pub dim: usize,
    pub symptoms: Vec<f32>,
    pub herbs: Vec<f32>,
    pub si_w: Vec<f32>,
    pub si_b: Vec<f32>,
}

impl Weights {
    /// Uniform weights, so that two herbs rarely score alike. The SI
    /// weights are scaled by `1/sqrt(d)` to keep about half the ReLUs on.
    pub fn seeded(seed: u64, stream: u64, n_symptoms: usize, n_herbs: usize, dim: usize) -> Self {
        let mut rng = Rng::fork(seed, stream);
        Self {
            n_symptoms,
            n_herbs,
            dim,
            symptoms: rng.weights(n_symptoms * dim, 1.0),
            herbs: rng.weights(n_herbs * dim, 1.0),
            si_w: rng.weights(dim * dim, 1.0 / (dim as f32).sqrt()),
            si_b: rng.weights(dim, 0.1),
        }
    }

    pub fn frozen(&self) -> FrozenModel {
        let d = self.dim;
        FrozenModel::from_parts(
            Matrix::from_vec(self.n_symptoms, d, self.symptoms.clone()),
            Matrix::from_vec(self.n_herbs, d, self.herbs.clone()),
            Some((
                Matrix::from_vec(d, d, self.si_w.clone()),
                Matrix::from_vec(1, d, self.si_b.clone()),
            )),
        )
        .expect("generated shapes agree")
    }

    /// Names in the corpus's style (a space and parentheses in each
    /// symptom name), index = id.
    pub fn vocab(&self) -> ServingVocab {
        ServingVocab::new(
            (0..self.n_symptoms).map(symptom_name).collect(),
            (0..self.n_herbs).map(|h| format!("herb{h:04}")).collect(),
        )
    }
}

fn symptom_name(id: usize) -> String {
    format!("zheng{id:04} (symptom)")
}

/// One ranking request: the symptom ids and the line that asks for
/// them, newline included, so that a client sends it in one write.
pub struct Query {
    pub ids: Vec<u32>,
    pub line: String,
}

/// A set of 3 to 9 distinct symptom ids, in drawing order.
pub fn symptom_set(rng: &mut Rng, n_symptoms: usize) -> Vec<u32> {
    let len = 3 + rng.below(7);
    let mut ids: Vec<u32> = Vec::with_capacity(len);
    while ids.len() < len {
        let id = rng.below(n_symptoms) as u32;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// Writes `{"symptoms":[names],"k":10}` and its newline for `ids` over
/// `line`.
pub fn write_request(line: &mut String, ids: &[u32]) {
    line.clear();
    line.push_str("{\"symptoms\":[");
    for (i, &id) in ids.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        line.push_str(&symptom_name(id as usize));
        line.push('"');
    }
    line.push_str(&format!("],\"k\":{K}}}\n"));
}

/// A request for a fresh random set.
pub fn query(rng: &mut Rng, n_symptoms: usize) -> Query {
    let ids = symptom_set(rng, n_symptoms);
    let mut line = String::new();
    write_request(&mut line, &ids);
    Query { ids, line }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> Vec<String> {
        let mut rng = Rng::fork(seed, 1);
        (0..50).map(|_| query(&mut rng, 360).line).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
        let a = Weights::seeded(7, 0, 20, 30, 8);
        let b = Weights::seeded(7, 0, 20, 30, 8);
        let c = Weights::seeded(8, 0, 20, 30, 8);
        let bits = |w: &Weights| -> Vec<u32> {
            [&w.symptoms, &w.herbs, &w.si_w, &w.si_b]
                .iter()
                .flat_map(|v| v.iter().map(|x| x.to_bits()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn sets_are_distinct_in_range_and_sized() {
        let mut rng = Rng::fork(3, 0);
        for _ in 0..500 {
            let set = symptom_set(&mut rng, 12);
            assert!((3..=9).contains(&set.len()));
            assert!(set.iter().all(|&s| s < 12));
            let mut sorted = set.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), set.len());
        }
    }
}
