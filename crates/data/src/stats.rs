use crate::{AttributeId, Dataset};
use std::fmt;

/// Sample count of one group under one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCount {
    /// Group index within its attribute.
    pub group: u16,
    /// Number of samples.
    pub count: usize,
}

muffin_json::impl_json!(struct GroupCount { group, count });

/// Sample counts over the joint cells of one attribute pair, row-major
/// (cell `(g_a, g_b)` sits at index `g_a · num_groups_b + g_b`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointGroupCount {
    /// Index of the first attribute in the schema.
    pub attr_a: usize,
    /// Index of the second attribute in the schema (`attr_a < attr_b`).
    pub attr_b: usize,
    /// Per-cell counts; the `group` field holds the row-major cell id.
    pub cells: Vec<GroupCount>,
}

muffin_json::impl_json!(struct JointGroupCount { attr_a, attr_b, cells });

/// Descriptive statistics of a [`Dataset`]: per-attribute group counts and
/// the class distribution.
///
/// # Example
///
/// ```
/// use muffin_data::{DatasetStats, IsicLike};
/// use muffin_tensor::Rng64;
///
/// let ds = IsicLike::small().generate(&mut Rng64::seed(1));
/// let stats = DatasetStats::of(&ds);
/// assert_eq!(stats.class_counts().len(), 8);
/// assert_eq!(stats.group_counts(muffin_data::AttributeId::new(1)).len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct DatasetStats {
    class_counts: Vec<usize>,
    group_counts: Vec<Vec<GroupCount>>,
    joint_counts: Vec<JointGroupCount>,
    num_samples: usize,
}

muffin_json::impl_json!(struct DatasetStats { class_counts, group_counts, joint_counts, num_samples });

impl DatasetStats {
    /// Computes statistics for `dataset`.
    pub fn of(dataset: &Dataset) -> Self {
        let mut class_counts = vec![0usize; dataset.num_classes()];
        for &label in dataset.labels() {
            class_counts[label] += 1;
        }
        let group_counts = dataset
            .schema()
            .iter()
            .map(|(id, attr)| {
                let mut counts = vec![0usize; attr.num_groups()];
                for &g in dataset.groups(id) {
                    counts[g as usize] += 1;
                }
                counts
                    .into_iter()
                    .enumerate()
                    .map(|(g, count)| GroupCount { group: g as u16, count })
                    .collect()
            })
            .collect();
        let attrs: Vec<_> = dataset.schema().iter().collect();
        let mut joint_counts = Vec::new();
        for i in 0..attrs.len() {
            for j in (i + 1)..attrs.len() {
                let (id_a, attr_a) = &attrs[i];
                let (id_b, attr_b) = &attrs[j];
                let nb = attr_b.num_groups();
                let mut counts = vec![0usize; attr_a.num_groups() * nb];
                for (&ga, &gb) in dataset.groups(*id_a).iter().zip(dataset.groups(*id_b)) {
                    counts[ga as usize * nb + gb as usize] += 1;
                }
                joint_counts.push(JointGroupCount {
                    attr_a: i,
                    attr_b: j,
                    cells: counts
                        .into_iter()
                        .enumerate()
                        .map(|(c, count)| GroupCount { group: c as u16, count })
                        .collect(),
                });
            }
        }
        Self { class_counts, group_counts, joint_counts, num_samples: dataset.len() }
    }

    /// Samples per class.
    pub fn class_counts(&self) -> &[usize] {
        &self.class_counts
    }

    /// Samples per group of one attribute.
    ///
    /// # Panics
    ///
    /// Panics if `attr` is out of range.
    pub fn group_counts(&self, attr: AttributeId) -> &[GroupCount] {
        &self.group_counts[attr.index()]
    }

    /// Joint cell counts of one attribute pair, row-major over the second
    /// attribute's groups. Accepts the pair in either order; `None` if
    /// either attribute is out of range.
    pub fn joint_counts(&self, a: AttributeId, b: AttributeId) -> Option<&[GroupCount]> {
        let (lo, hi) = if a.index() <= b.index() {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        self.joint_counts
            .iter()
            .find(|jc| jc.attr_a == lo && jc.attr_b == hi)
            .map(|jc| jc.cells.as_slice())
    }

    /// Total number of samples.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} samples, {} classes", self.num_samples, self.class_counts.len())?;
        for (a, groups) in self.group_counts.iter().enumerate() {
            write!(f, "  attr#{a}:")?;
            for g in groups {
                write!(f, " {}:{}", g.group, g.count)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IsicLike;
    use muffin_tensor::Rng64;

    #[test]
    fn counts_sum_to_dataset_size() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(7));
        let stats = DatasetStats::of(&ds);
        assert_eq!(stats.class_counts().iter().sum::<usize>(), ds.len());
        for (id, _) in ds.schema().iter() {
            let total: usize = stats.group_counts(id).iter().map(|g| g.count).sum();
            assert_eq!(total, ds.len());
        }
    }

    #[test]
    fn display_lists_every_attribute() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(7));
        let text = DatasetStats::of(&ds).to_string();
        assert!(text.contains("attr#0"));
        assert!(text.contains("attr#2"));
    }

    #[test]
    fn joint_counts_cover_every_pair_and_sum_to_dataset_size() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(7));
        let stats = DatasetStats::of(&ds);
        let attrs = ds.schema().len();
        for a in 0..attrs {
            for b in a + 1..attrs {
                let cells = stats
                    .joint_counts(AttributeId::new(a), AttributeId::new(b))
                    .expect("every pair is counted");
                assert_eq!(cells.iter().map(|c| c.count).sum::<usize>(), ds.len());
            }
        }
    }

    #[test]
    fn joint_counts_lookup_is_order_insensitive() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(7));
        let stats = DatasetStats::of(&ds);
        let fwd = stats.joint_counts(AttributeId::new(0), AttributeId::new(1)).expect("pair");
        let rev = stats.joint_counts(AttributeId::new(1), AttributeId::new(0)).expect("pair");
        assert_eq!(fwd, rev);
        assert!(stats.joint_counts(AttributeId::new(0), AttributeId::new(9)).is_none());
    }
}
