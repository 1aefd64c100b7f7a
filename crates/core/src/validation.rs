//! Ground-truth validation of clusterings.
//!
//! §9.1 validates the Drosophila clustering by BLAST-mapping fragments
//! to the published genome and checking that "27,830 out of 28,185
//! clusters post-masking (98.7%) map to a single benchmark sequence".
//! With synthetic data we hold exact provenance, so the same statistic
//! is computed directly: a cluster is *region-consistent* when all its
//! members come from one genome and their true intervals merge (with a
//! gap tolerance) into a single region.

use crate::clustering::Clustering;
use pgasm_simgen::Provenance;

/// Validation summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ValidationReport {
    /// Non-singleton clusters examined.
    pub clusters: usize,
    /// Clusters whose members map to a single genomic region.
    pub single_region: usize,
    /// Clusters mixing reads from different genomes (environmental
    /// samples: different species).
    pub cross_genome: usize,
}

impl ValidationReport {
    /// Fraction of clusters mapping to one region (1.0 when no clusters).
    pub fn specificity(&self) -> f64 {
        if self.clusters == 0 {
            1.0
        } else {
            self.single_region as f64 / self.clusters as f64
        }
    }
}

/// Validate a clustering against read provenance.
///
/// `origin[f]` maps fragment `f` (clustering element) to its original
/// read index in `provenance`. `gap_tolerance` allows true intervals to
/// be merged across small uncovered gaps (sequencing is sampled, not
/// contiguous).
pub fn validate_clusters(
    clustering: &Clustering,
    origin: &[usize],
    provenance: &[Provenance],
    gap_tolerance: u32,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    for cluster in clustering.non_singletons() {
        report.clusters += 1;
        let mut intervals: Vec<(u32, u32, u32)> = cluster
            .iter()
            .map(|&f| {
                let p = &provenance[origin[f as usize]];
                (p.genome, p.start, p.end)
            })
            .collect();
        intervals.sort_unstable();
        let one_genome = intervals.windows(2).all(|w| w[0].0 == w[1].0);
        if !one_genome {
            report.cross_genome += 1;
            continue;
        }
        // Merge sorted intervals with tolerance; count regions.
        let mut regions = 1usize;
        let mut cur_end = intervals[0].2;
        for &(_, s, e) in &intervals[1..] {
            if s > cur_end.saturating_add(gap_tolerance) {
                regions += 1;
                cur_end = e;
            } else {
                cur_end = cur_end.max(e);
            }
        }
        if regions == 1 {
            report.single_region += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgasm_simgen::ReadKind;

    fn prov(genome: u32, start: u32, end: u32) -> Provenance {
        Provenance { genome, start, end, reverse: false, kind: ReadKind::Wgs }
    }

    #[test]
    fn single_region_cluster_passes() {
        let clustering = Clustering { clusters: vec![vec![0, 1, 2]] };
        let provenance = vec![prov(0, 0, 500), prov(0, 400, 900), prov(0, 800, 1300)];
        let origin = vec![0, 1, 2];
        let r = validate_clusters(&clustering, &origin, &provenance, 50);
        assert_eq!(r.clusters, 1);
        assert_eq!(r.single_region, 1);
        assert!((r.specificity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_regions_fail() {
        let clustering = Clustering { clusters: vec![vec![0, 1]] };
        let provenance = vec![prov(0, 0, 500), prov(0, 5_000, 5_500)];
        let origin = vec![0, 1];
        let r = validate_clusters(&clustering, &origin, &provenance, 100);
        assert_eq!(r.single_region, 0);
    }

    #[test]
    fn cross_genome_counted_separately() {
        let clustering = Clustering { clusters: vec![vec![0, 1]] };
        let provenance = vec![prov(0, 0, 500), prov(1, 0, 500)];
        let origin = vec![0, 1];
        let r = validate_clusters(&clustering, &origin, &provenance, 100);
        assert_eq!(r.cross_genome, 1);
        assert_eq!(r.single_region, 0);
    }

    #[test]
    fn gap_tolerance_merges_near_intervals() {
        let clustering = Clustering { clusters: vec![vec![0, 1]] };
        let provenance = vec![prov(0, 0, 500), prov(0, 540, 900)];
        let origin = vec![0, 1];
        assert_eq!(validate_clusters(&clustering, &origin, &provenance, 50).single_region, 1);
        assert_eq!(validate_clusters(&clustering, &origin, &provenance, 10).single_region, 0);
    }

    #[test]
    fn singletons_ignored() {
        let clustering = Clustering { clusters: vec![vec![0], vec![1]] };
        let provenance = vec![prov(0, 0, 500), prov(0, 5_000, 5_500)];
        let origin = vec![0, 1];
        let r = validate_clusters(&clustering, &origin, &provenance, 50);
        assert_eq!(r.clusters, 0);
        assert!((r.specificity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn origin_indirection_respected() {
        // Fragment 0 is read 1 and vice versa.
        let clustering = Clustering { clusters: vec![vec![0, 1]] };
        let provenance = vec![prov(0, 5_000, 5_500), prov(0, 0, 500)];
        let origin = vec![1, 0]; // fragment i → read origin[i]
        let r = validate_clusters(&clustering, &origin, &provenance, 6_000);
        assert_eq!(r.single_region, 1);
    }
}
