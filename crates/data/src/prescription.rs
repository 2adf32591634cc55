//! The prescription record `p = ⟨sc, hc⟩` (§II).
//!
//! A prescription pairs a *symptom set* with the *herb set* that treated it.
//! Both sides are sets: ids are stored sorted and deduplicated, which also
//! gives cheap canonical equality.

use serde::{Deserialize, Serialize};

/// One prescription: a symptom set and the herb set prescribed for it.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prescription {
    symptoms: Vec<u32>,
    herbs: Vec<u32>,
}

impl Prescription {
    /// Builds a prescription, canonicalising both sides into sorted,
    /// deduplicated sets.
    ///
    /// # Panics
    /// Panics if either side is empty — the task is undefined without both
    /// a symptom set and a herb set.
    pub fn new(mut symptoms: Vec<u32>, mut herbs: Vec<u32>) -> Self {
        symptoms.sort_unstable();
        symptoms.dedup();
        herbs.sort_unstable();
        herbs.dedup();
        assert!(!symptoms.is_empty(), "Prescription: empty symptom set");
        assert!(!herbs.is_empty(), "Prescription: empty herb set");
        Self { symptoms, herbs }
    }

    /// The symptom set `sc`, sorted ascending.
    pub fn symptoms(&self) -> &[u32] {
        &self.symptoms
    }

    /// The herb set `hc`, sorted ascending.
    pub fn herbs(&self) -> &[u32] {
        &self.herbs
    }

    /// `(sc, hc)` view, the shape graph builders consume.
    pub fn as_record(&self) -> (&[u32], &[u32]) {
        (&self.symptoms, &self.herbs)
    }

    /// True when the herb set contains `h`.
    pub fn contains_herb(&self, h: u32) -> bool {
        self.herbs.binary_search(&h).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalises_sets() {
        let p = Prescription::new(vec![3, 1, 3, 2], vec![5, 5, 4]);
        assert_eq!(p.symptoms(), &[1, 2, 3]);
        assert_eq!(p.herbs(), &[4, 5]);
    }

    #[test]
    fn membership_queries() {
        let p = Prescription::new(vec![1, 2], vec![7]);
        assert!(p.contains_herb(7));
        assert!(!p.contains_herb(1));
    }

    #[test]
    fn equality_is_set_based() {
        let a = Prescription::new(vec![2, 1], vec![3, 4]);
        let b = Prescription::new(vec![1, 2, 2], vec![4, 3]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty symptom set")]
    fn rejects_empty_symptoms() {
        let _ = Prescription::new(vec![], vec![1]);
    }

    #[test]
    #[should_panic(expected = "empty herb set")]
    fn rejects_empty_herbs() {
        let _ = Prescription::new(vec![1], vec![]);
    }
}
