//! Adversarial master–worker configurations: degenerate batch sizes,
//! pending buffers smaller than a batch (backpressure — the regime
//! where a zero flow-control grant used to livelock the protocol), and
//! rank counts close to (or exceeding) the fragment count. Every
//! configuration must terminate and reproduce the serial clustering
//! bit-for-bit.

use pgasm::cluster::{cluster, ClusterParams, Exec, MasterWorkerConfig};
use pgasm::gst::GstConfig;
use pgasm::simgen::genome::{Genome, GenomeSpec};
use pgasm::simgen::sampler::{Sampler, SamplerConfig};
use pgasm::telemetry::RunContext;

fn test_reads(seed: u64, n: usize) -> pgasm::seq::FragmentStore {
    let genome = Genome::generate(
        &GenomeSpec {
            length: 6_000,
            repeat_fraction: 0.1,
            repeat_families: 2,
            repeat_len: (80, 160),
            repeat_identity: 0.99,
            islands: 0,
            island_len: (1, 2),
        },
        seed,
    );
    let mut cfg = SamplerConfig::clean();
    cfg.read_len = (120, 200);
    let mut sampler = Sampler::new(&genome, cfg, seed + 1);
    sampler.wgs(n).to_store()
}

/// Run one adversarial configuration, asserting serial equivalence
/// (which implies termination).
fn check(store: &pgasm::seq::FragmentStore, p: usize, cfg: &MasterWorkerConfig) {
    let params = ClusterParams { gst: GstConfig { psi: 14 }, ..Default::default() };
    let on = |exec: &Exec| cluster(store, &params, exec, &mut RunContext::new("adversarial")).0;
    let serial = on(&Exec::Threads(1)).clustering;
    let report = on(&Exec::Ranks { p, engine: *cfg, recovery: Default::default() });
    assert_eq!(
        report.clustering, serial,
        "p = {p}, batch = {}, pending_cap = {}",
        cfg.batch, cfg.pending_cap
    );
}

/// `batch = 1`: every allocation carries one pair, maximising protocol
/// round-trips.
#[test]
fn batch_of_one() {
    let store = test_reads(41, 24);
    check(&store, 3, &MasterWorkerConfig { batch: 1, pending_cap: 16 });
}

/// `pending_cap < batch`: the pending buffer saturates immediately, so
/// the flow-control grant is capacity-clamped every round. Before the
/// `r >= 1` clamp this livelocked — active workers were granted zero
/// pairs to generate and spun in empty report/grant round-trips.
#[test]
fn pending_cap_smaller_than_batch() {
    let store = test_reads(42, 30);
    check(&store, 4, &MasterWorkerConfig { batch: 8, pending_cap: 3 });
}

/// Both degenerate at once: single-pair batches through a single-slot
/// buffer.
#[test]
fn single_slot_buffer_single_pair_batches() {
    let store = test_reads(43, 20);
    check(&store, 3, &MasterWorkerConfig { batch: 1, pending_cap: 1 });
}

/// More protocol participants than useful work: p close to (and
/// exceeding) the fragment count. Most workers own little or nothing of
/// the GST and park almost immediately; termination must still reach
/// everyone.
#[test]
fn ranks_near_fragment_count() {
    let store = test_reads(44, 8);
    let n = store.num_fragments();
    assert_eq!(n, 8);
    for p in [n - 1, n, n + 2] {
        check(&store, p, &MasterWorkerConfig { batch: 4, pending_cap: 32 });
    }
}

/// A single fragment leaves every worker with an empty generator: the
/// protocol degenerates to one empty round per worker plus termination.
#[test]
fn single_fragment_many_ranks() {
    let store = pgasm::seq::FragmentStore::from_seqs(vec![pgasm::seq::DnaSeq::from(
        "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT",
    )]);
    for p in [2usize, 5] {
        check(&store, p, &MasterWorkerConfig { batch: 1, pending_cap: 1 });
    }
}
