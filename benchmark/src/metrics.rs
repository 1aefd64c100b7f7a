//! The metric tables: the same names, units, directions and bounds as
//! `BENCHMARK.json` (a unit test holds the two together).

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether `unit` is a unit of time: such a sample is divided by the
/// pace of its repetition (see `pace.rs`) before anything is made of it.
pub fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "us" | "ns")
}

/// The value a metric reports for the repetitions of one run: a timing
/// (and the throughput derived from one) the trimmed mean, everything
/// else (RSS, ratios, counts) the median. `results.json` keeps every
/// sample beside the value.
pub fn reported(unit: &str, samples: &[f64]) -> f64 {
    if is_time(unit) || unit == "kbases/s" {
        crate::stats::trimmed_mean(samples)
    } else {
        crate::stats::median(samples)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "warm_wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "kbases_per_s", unit: "kbases/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "disk_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "contig_kmer_precision", unit: "ratio", better: Better::Higher, bound: 0.12 },
    EndToEnd { name: "genome_kmer_recall", unit: "ratio", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "contig_n50", unit: "bp", better: Better::Higher, bound: 0.15 },
];

/// (name, unit, better) of every per-layer metric, layer by layer.
pub const PER_LAYER: [(&str, &str, Better); 58] = [
    ("seq.fastq_parse_s", "s", Better::Lower),
    ("seq.revcomp_s", "s", Better::Lower),
    ("preprocess.run_s", "s", Better::Lower),
    ("preprocess.fragments_out", "count", Better::Higher),
    ("preprocess.bases_out", "count", Better::Higher),
    ("gst.build_s", "s", Better::Lower),
    ("gst.indexed_bases", "count", Better::Higher),
    ("gst.build_ns_per_base", "ns", Better::Lower),
    ("gst.nodes", "count", Better::Lower),
    ("gst.memory_bytes_per_base", "B", Better::Lower),
    ("gst.pairgen_s", "s", Better::Lower),
    ("gst.pairs_generated", "count", Better::Lower),
    ("gst.pairgen_us_per_pair", "us", Better::Lower),
    ("align.align_s", "s", Better::Lower),
    ("align.pairs_aligned", "count", Better::Lower),
    ("align.pairs_accepted", "count", Better::Higher),
    ("align.accept_ratio", "ratio", Better::Higher),
    ("align.dp_cells", "count", Better::Lower),
    ("align.ns_per_cell", "ns", Better::Lower),
    ("core.cluster_loop_s", "s", Better::Lower),
    ("core.uf_self_s", "s", Better::Lower),
    ("core.align_skip_ratio", "ratio", Better::Higher),
    ("core.clusters_nonsingleton", "count", Better::Higher),
    ("core.largest_cluster_reads", "count", Better::Lower),
    ("assemble.overlap_s", "s", Better::Lower),
    ("assemble.layout_s", "s", Better::Lower),
    ("assemble.consensus_s", "s", Better::Lower),
    ("assemble.edges_accepted", "count", Better::Higher),
    ("assemble.cost_units", "count", Better::Lower),
    ("assemble.overlap_us_per_cost_unit", "us", Better::Lower),
    ("assemble.largest_cluster_s", "s", Better::Lower),
    ("assemble.largest_cluster_share", "ratio", Better::Lower),
    ("assemble.contigs", "count", Better::Lower),
    ("assemble.contigs_per_cluster", "ratio", Better::Lower),
    ("cache.key_s", "s", Better::Lower),
    ("cache.gst_encode_s", "s", Better::Lower),
    ("cache.gst_store_s", "s", Better::Lower),
    ("cache.gst_load_s", "s", Better::Lower),
    ("cache.gst_decode_s", "s", Better::Lower),
    ("cache.gst_bytes", "B", Better::Lower),
    ("cache.gst_bytes_per_base", "B", Better::Lower),
    ("cache.preprocess_roundtrip_s", "s", Better::Lower),
    ("cache.entries_written", "count", Better::Lower),
    ("parallel_gst.build_s", "s", Better::Lower),
    ("master_worker.cluster_s", "s", Better::Lower),
    ("master_worker.worker_idle_max", "ratio", Better::Lower),
    ("master_worker.master_availability", "ratio", Better::Higher),
    ("assemble_dist.assemble_s", "s", Better::Lower),
    ("assemble_dist.worker_idle_max", "ratio", Better::Lower),
    ("assemble_dist.cpu_max_over_mean", "ratio", Better::Lower),
    ("mpisim.msgs", "count", Better::Lower),
    ("mpisim.bytes", "B", Better::Lower),
    ("mpisim.blocked_s", "s", Better::Lower),
    ("mpisim.modelled_comm_s", "s", Better::Lower),
    ("dist.cluster_speedup", "ratio", Better::Higher),
    ("dist.assemble_speedup", "ratio", Better::Higher),
    ("telemetry.trace_overhead_ratio", "ratio", Better::Lower),
    ("harness.layer_coverage", "ratio", Better::Higher),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_report_their_trimmed_mean_and_the_rest_the_median() {
        let samples = [2.5, 2.0, 4.5];
        assert_eq!(reported("s", &samples), 3.0);
        assert_eq!(reported("ns", &samples), 3.0);
        assert_eq!(reported("kbases/s", &samples), 3.0);
        assert_eq!(reported("MB", &samples), 2.5);
        assert_eq!(reported("ratio", &samples), 2.5);
    }
}
