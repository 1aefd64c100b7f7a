//! Canonical names for counters, tag labels, and trace events.
//!
//! Every layer that records a metric and every consumer that reads one
//! back (bench tables, report assertions, the trace exporter) goes
//! through these constants, so a typo'd counter name is a compile error
//! instead of a silently empty metric.

// ---- run / rank counters -------------------------------------------------

/// Pairs yielded by the generators (paper Table 1 "generated").
pub const PAIRS_GENERATED: &str = "pairs_generated";
/// Pairs actually aligned (after the cluster-check skip).
pub const PAIRS_ALIGNED: &str = "pairs_aligned";
/// Aligned pairs that met the acceptance criteria.
pub const PAIRS_ACCEPTED: &str = "pairs_accepted";
/// Pairs the master selected into the pending buffer.
pub const PAIRS_SELECTED: &str = "pairs_selected";
/// Union–Find merges performed.
pub const MERGES: &str = "merges";
/// Dynamic-programming cells evaluated by clustering's aligner: the
/// in-band cells of the aligned pairs.
pub const DP_CELLS: &str = "dp_cells";
/// Effective lane width of the alignment kernel's row passes in this build
/// (capability note: `LANES` normally, 1 under `force-scalar`).
pub const SIMD_LANES: &str = "simd_lanes";
/// High-water bytes held by a rank's alignment scratch buffers.
pub const ALIGN_SCRATCH_BYTES_PEAK: &str = "align_scratch_bytes_peak";
/// Times the alignment scratch had to grow after its pre-sizing
/// (should stay 0 — the zero-allocation hot-loop invariant).
pub const ALIGN_SCRATCH_GROWS: &str = "align_scratch_grows";
/// Suffixes enumerated for the GST, before bucket admission.
pub const GST_SUFFIXES_ENUMERATED: &str = "gst_suffixes_enumerated";
/// Suffixes that reached the tree: those of buckets that can emit a
/// pair.
pub const GST_SUFFIXES_INDEXED: &str = "gst_suffixes_indexed";
/// Nodes of the GST forest (summed over ranks in the distributed path).
pub const GST_NODES: &str = "gst_nodes";
/// Total clusters in the final partition.
pub const CLUSTERS: &str = "clusters";
/// Clusters with at least two members.
pub const NON_SINGLETON_CLUSTERS: &str = "non_singleton_clusters";
/// Reads entering the pipeline.
pub const READS_IN: &str = "reads_in";
/// Fragments surviving preprocessing.
pub const FRAGMENTS: &str = "fragments";
/// Reads the preprocessor rejected after quality / vector trimming.
pub const PREPROCESS_REJECTED_BY_TRIM: &str = "preprocess_rejected_by_trim";
/// Reads the preprocessor rejected because repeat masking left no
/// usable unmasked run.
pub const PREPROCESS_REJECTED_BY_MASK: &str = "preprocess_rejected_by_mask";
/// Bases masked (known and statistical repeats) in surviving fragments.
pub const PREPROCESS_MASKED_BASES: &str = "preprocess_masked_bases";
/// Non-singleton clusters handed to the assembler.
pub const ASSEMBLED_CLUSTERS: &str = "assembled_clusters";
/// Contigs produced across all clusters.
pub const CONTIGS: &str = "contigs";

/// Trace events discarded on ring overflow, over all tracks (traced
/// runs only).
pub const TRACE_EVENTS_DROPPED: &str = "trace_events_dropped";

// ---- artifact-cache counters ----------------------------------------------

/// Artifact-cache lookups that returned a valid, matching entry.
pub const CACHE_HIT: &str = "cache_hit";
/// Artifact-cache lookups that found nothing usable (absent, stale
/// schema, corrupt, or params mismatch) — the stage recomputed.
pub const CACHE_MISS: &str = "cache_miss";
/// Bytes of cache entries written this run (header + payload).
pub const CACHE_BYTES_WRITTEN: &str = "cache_bytes_written";
/// Bytes of cache payloads loaded this run.
pub const CACHE_BYTES_READ: &str = "cache_bytes_read";

// ---- distributed-assembly counters ----------------------------------------

/// Clusters this rank assembled in the distributed assemble stage.
pub const ASM_CLUSTERS_ASSEMBLED: &str = "asm_clusters_assembled";
/// Reads fed into this rank's cluster assemblies.
pub const ASM_READS_ASSEMBLED: &str = "asm_reads_assembled";
/// Deterministic work proxy: Σ k·(k−1)/2 over this rank's assigned
/// clusters (candidate overlap pairs) — the load-balance metric that
/// does not wobble with host scheduling.
pub const ASM_COST_UNITS: &str = "asm_cost_units";
/// Contig bases this rank shipped back to the master.
pub const ASM_CONTIG_BASES: &str = "asm_contig_bases";
/// Assemble-phase report/grant round-trips a worker completed.
pub const ASM_BATCH_ROUND_TRIPS: &str = "asm_batch_round_trips";
/// Assemble-phase peak depth of the master's pending-task buffer.
pub const ASM_PEAK_QUEUE_DEPTH: &str = "asm_peak_queue_depth";
/// Assemble-phase non-empty task batches the master dispatched.
pub const ASM_BATCHES_DISPATCHED: &str = "asm_batches_dispatched";

// ---- fault-injection / recovery counters ----------------------------------

/// Ranks the fault plan killed in this run.
pub const FAULT_KILLS: &str = "fault_kills";
/// Messages the fault plan discarded at the sender.
pub const FAULT_MSGS_DROPPED: &str = "fault_msgs_dropped";
/// Messages the fault plan held back and delivered late.
pub const FAULT_MSGS_DELAYED: &str = "fault_msgs_delayed";
/// Death notices a dying rank broadcast to its peers.
pub const FAULT_DEATH_NOTICES: &str = "fault_death_notices";
/// Sends blackholed because the destination rank was already dead.
pub const FAULT_MSGS_LOST: &str = "fault_msgs_lost";
/// Tasks re-queued from dead workers' outstanding leases and
/// re-executed by survivors.
pub const RECOVERED_TASKS: &str = "recovered_tasks";
/// Worker ranks the master marked dead (death notice or liveness
/// timeout) during the run.
pub const DEAD_RANKS: &str = "dead_ranks";
/// Bytes of master checkpoint snapshots written this run.
pub const CKPT_BYTES: &str = "ckpt_bytes";
/// Master checkpoint snapshots written this run.
pub const CKPT_WRITES: &str = "ckpt_writes";
/// Generator scopes this worker adopted from dead peers.
pub const SCOPES_ADOPTED: &str = "scopes_adopted";

// ---- master–worker protocol counters -------------------------------------

/// Peak depth of the master's pending-work buffer.
pub const PEAK_QUEUE_DEPTH: &str = "peak_queue_depth";
/// Non-empty task batches the master dispatched.
pub const BATCHES_DISPATCHED: &str = "batches_dispatched";
/// Deepest single drain of the master's inbox.
pub const INBOX_DRAIN_DEPTH_MAX: &str = "inbox_drain_depth_max";
/// Report/grant round-trips a worker completed.
pub const BATCH_ROUND_TRIPS: &str = "batch_round_trips";
/// Nanoseconds this rank spent blocked in `recv` over the whole run.
pub const WAIT_NS_TOTAL: &str = "wait_ns_total";
/// Nanoseconds this rank spent blocked in barriers over the whole run.
pub const BARRIER_NS_TOTAL: &str = "barrier_ns_total";

// ---- tag labels -----------------------------------------------------------

/// Worker → master clustering report: alignment results, generator
/// status and newly generated pairs (the paper's `AR` + `NP`).
pub const TAG_W2M_REPORT: &str = "w2m_report";
/// Master → worker clustering grant: termination or the next request
/// size, plus the alignment batch (the paper's `R` + `AW`).
pub const TAG_M2W_GRANT: &str = "m2w_grant";
/// Worker → master assemble-stage report: the assembled contigs
/// (workers never generate assemble tasks).
pub const TAG_ASM_W2M_REPORT: &str = "asm_w2m_report";
/// Master → worker assemble-stage grant: termination or the cluster
/// batch.
pub const TAG_ASM_M2W_GRANT: &str = "asm_m2w_grant";
/// Death notice a dying rank broadcasts to every peer.
pub const TAG_DEATH: &str = "death";

// ---- gauge names (counter events on the owner's track) ---------------------

/// Depth of the master's pending-task buffer at sample time.
pub const GAUGE_PENDING_TASKS: &str = "pending_tasks";
/// Messages drained from the master's inbox in the current pump round.
pub const GAUGE_INBOX_DEPTH: &str = "inbox_depth";
/// Workers with an un-granted report outstanding at the master.
pub const GAUGE_WORKERS_OUTSTANDING: &str = "workers_outstanding";
/// Workers parked (passive, no work to grant) at the master.
pub const GAUGE_WORKERS_PARKED: &str = "workers_parked";
/// High-water bytes of this rank's alignment scratch buffers.
pub const GAUGE_ALIGN_SCRATCH_BYTES: &str = "align_scratch_bytes";
/// Cumulative artifact-cache bytes moved (read + written) by the run.
pub const GAUGE_CACHE_BYTES: &str = "cache_bytes";

// ---- trace event names ----------------------------------------------------

/// Blocked in `recv` on an empty channel (span, category `comm`).
pub const EV_WAIT: &str = "wait";
/// Blocked in a barrier (span, category `comm`).
pub const EV_BARRIER: &str = "barrier";
/// One wire message sent (instant, category `comm`; args tag/bytes).
pub const EV_SEND: &str = "send";
/// One message delivered (instant, category `comm`).
pub const EV_RECV: &str = "recv";
/// Master handled a worker's report (instant, category `master`).
pub const EV_HANDLE_REPORT: &str = "handle_report";
/// Master answering completed rounds / feeding parked workers (span).
pub const EV_DISPATCH: &str = "dispatch";
/// Master parked a passive worker (instant; arg worker).
pub const EV_PARK: &str = "park";
/// Master revived a parked worker with pending work (instant).
pub const EV_UNPARK: &str = "unpark";
/// Worker computing its allocated alignment batch (span, `align`).
pub const EV_ALIGN_BATCH: &str = "align_batch";
/// Per-batch alignment work (instant, category `align`; arg cells).
pub const EV_ALIGN_CELLS: &str = "align_cells";
/// Worker generating the requested pairs (span, category `worker`).
pub const EV_GENERATE: &str = "generate";
/// GST: bucketing own suffixes (span, category `gst`).
pub const EV_GST_BUCKET: &str = "gst_bucket";
/// GST: suffix redistribution all-to-all (span, category `gst`).
pub const EV_GST_REDISTRIBUTE: &str = "gst_redistribute";
/// GST: fetching foreign fragments (span, category `gst`).
pub const EV_GST_FETCH: &str = "gst_fetch";
/// GST: building the local forest (span, category `gst`).
pub const EV_GST_BUILD: &str = "gst_build";
/// Worker assembling one cluster (span, category `assemble`; arg reads).
pub const EV_ASSEMBLE_CLUSTER: &str = "assemble_cluster";
/// Worker encoding one cluster's contigs for shipment (instant,
/// category `assemble`; arg bytes).
pub const EV_ASSEMBLE_SHIP: &str = "assemble_ship";

// ---- fault / recovery trace event names ------------------------------------

/// The fault plan killed this rank (instant, category `fault`; arg
/// lease = the lease the kill clause named).
pub const EV_FAULT_KILL: &str = "fault_kill";
/// The fault plan discarded a message at the sender (instant,
/// category `fault`; args dst/tag).
pub const EV_FAULT_DROP: &str = "fault_drop";
/// The fault plan held a message back (instant, category `fault`;
/// args dst/tag).
pub const EV_FAULT_DELAY: &str = "fault_delay";
/// A peer's death notice arrived (instant, category `fault`; arg peer).
pub const EV_RANK_DEAD: &str = "rank_dead";
/// Master re-queued a dead worker's outstanding leases (instant,
/// category `fault`; args worker/tasks).
pub const EV_RECOVER_LEASES: &str = "recover_leases";
/// Master assigned a dead worker's generator scope to a survivor
/// (instant, category `fault`; args dead/adopter).
pub const EV_ADOPT_SCOPE: &str = "adopt_scope";
/// Master declared a live worker dead at quiescence: every rank
/// blocked, nothing in flight, and this worker still holding a lease
/// or an open round (instant, category `fault`; arg worker).
pub const EV_LIVENESS_DECLARE: &str = "liveness_declare";
/// Master wrote a checkpoint snapshot (instant, category `fault`;
/// arg bytes).
pub const EV_CHECKPOINT: &str = "checkpoint";
/// Master discarded a message from a dead-declared rank or a result
/// report whose lease is no longer outstanding — the replay dedup
/// (instant, category `fault`; args src/tag or src/lease).
pub const EV_STALE_MSG: &str = "stale_msg";
/// Worker rebuilt a dead peer's generator scope from the shared input
/// (span, category `fault`; arg dead rank).
pub const EV_ADOPT_REBUILD: &str = "adopt_rebuild";
