//! The seeded inputs every workload shares, and the registry twin that checks
//! answers against them.

use fsc_bench::registry::serve_factory;
use fsc_engine::{DynEngine, EngineConfig};
use fsc_state::{Answer, Query, StateReport};
use fsc_streamgen::zipf::zipf_stream;

/// Item universe: 16 Ki.
pub const UNIVERSE: usize = 1 << 14;
/// Items per batch (one ingest request, one `process_batch` call).
pub const BATCH: usize = 1024;
/// Zipf exponent of the item stream.
pub const ZIPF_S: f64 = 1.1;
/// Batches in the pool: 4 Mi items, one kernel pass.  Serve workloads cycle
/// through it by sequence number.
pub const POOL_BATCHES: usize = 4096;
/// Reads target the hottest items `0..HOT` (zipf rank 0 is the most popular).
pub const HOT: u64 = 64;

/// The seeded item stream, cut into batches.
pub struct Pool {
    items: Vec<u64>,
}

impl Pool {
    /// The stream for `seed`: the same seed gives the same items.
    pub fn new(seed: u64) -> Self {
        Self {
            items: zipf_stream(UNIVERSE, POOL_BATCHES * BATCH, ZIPF_S, seed),
        }
    }

    /// The batch sent under sequence number `seq`.
    pub fn batch(&self, seq: u64) -> &[u64] {
        let at = (seq % POOL_BATCHES as u64) as usize * BATCH;
        &self.items[at..at + BATCH]
    }

    /// Number of items in one pass over the pool.
    pub fn len(&self) -> usize {
        self.items.len()
    }
}

/// The `j`-th point read of a workload.
pub fn hot_read(j: u64) -> Query {
    Query::Point(j % HOT)
}

/// The queries whose answers the output checks compare.
pub fn probes() -> Vec<Query> {
    (0..HOT)
        .map(Query::Point)
        .chain([Query::HeavyHitters { threshold: 0.01 }])
        .collect()
}

/// A tenant engine built exactly as the server builds one: the registry's
/// `serve_factory` with the server's default engine config.
pub fn tenant_engine(algorithm: &str, shards: u32) -> Box<dyn DynEngine> {
    let config = EngineConfig {
        shards: (shards as usize).max(1),
        ..EngineConfig::default()
    };
    serve_factory()(algorithm, config).expect("workload algorithms are engine-capable")
}

/// The registry twin of a served tenant: a fresh `algorithm`×`shards` tenant
/// engine fed the batches `0..batches` in order.  Returns its answers to
/// [`probes`] through `query_fresh` (no cache) and its state accounting.
pub fn twin(algorithm: &str, shards: u32, pool: &Pool, batches: u64) -> (Vec<Answer>, StateReport) {
    let mut twin = tenant_engine(algorithm, shards);
    for seq in 0..batches {
        twin.ingest(pool.batch(seq));
    }
    let answers = probes()
        .iter()
        .map(|q| twin.query_fresh(q).expect("fresh twin query"))
        .collect();
    (answers, twin.report())
}
