//! `hdsearch_knn`: k-NN over clustered vectors on the paper-default edge.

use super::{Deployed, Stream, Timing, Workload};
use crate::rng::Rng;
use crate::trace::{KeyHasher, TraceKey, TracedLeaf, TracedMid, Tracer};
use musuite_core::shard::RoundRobinMap;
use musuite_core::{Cluster, ClusterConfig, Degraded};
use musuite_data::vectors::{VectorDataset, VectorDatasetConfig};
use musuite_hdsearch::distance::euclidean_sq;
use musuite_hdsearch::merge::merge_top_k;
use musuite_hdsearch::protocol::LeafSearchRequest;
use musuite_hdsearch::{HdSearchLeaf, HdSearchMidTier, HdSearchService, LshConfig, LshIndex};
use musuite_hdsearch::{Neighbor, SearchQuery};
use musuite_rpc::RpcError;
use std::sync::Arc;

const LEAVES: usize = 4;
const POINTS: usize = 5_000;
const DIM: usize = 64;
const K: u32 = 10;
/// Distinct queries cycled through by the load.
const POOL: usize = 1_024;
/// Relative noise of a query around its corpus point (near-duplicates).
const NOISE: f32 = 0.02;

type Answer = Degraded<Vec<Neighbor>>;

/// Data set, query pool, and reference answers.
pub struct HdSearch {
    dataset: Arc<VectorDataset>,
    queries: Arc<Vec<SearchQuery>>,
    refs: Arc<Vec<Answer>>,
}

fn vector_key(vector: &[f32]) -> u64 {
    vector.iter().fold(KeyHasher::default(), |h, x| h.word(u64::from(x.to_bits()))).finish()
}

impl TraceKey for SearchQuery {
    fn trace_key(&self) -> u64 {
        vector_key(&self.vector)
    }
}

impl TraceKey for LeafSearchRequest {
    fn trace_key(&self) -> u64 {
        vector_key(&self.vector)
    }
}

/// The paper-default edge (`BlockingPerConn`, `Dispatch`, `Block`,
/// batching off) is `ServerConfig::default()`.
fn config() -> ClusterConfig {
    ClusterConfig::new().leaves(LEAVES)
}

fn shards(corpus: &[Vec<f32>], id_map: RoundRobinMap) -> Vec<Vec<Vec<f32>>> {
    let mut shards = vec![Vec::new(); LEAVES];
    for (global, vector) in corpus.iter().enumerate() {
        shards[id_map.leaf_of(global as u64)].push(vector.clone());
    }
    shards
}

impl Workload for HdSearch {
    type Stream = HdSearchStream;
    const NAME: &'static str = "hdsearch_knn";
    const MID_QPS: f64 = 4_000.0;

    fn generate(seed: u64) -> HdSearch {
        let dataset = VectorDataset::generate(&VectorDatasetConfig {
            points: POINTS,
            dim: DIM,
            seed,
            ..Default::default()
        });
        let queries = dataset
            .sample_queries(POOL, NOISE)
            .into_iter()
            .map(|vector| SearchQuery { vector, k: K })
            .collect();
        HdSearch {
            dataset: Arc::new(dataset),
            queries: Arc::new(queries),
            refs: Arc::new(Vec::new()),
        }
    }

    fn launch(&self) -> Result<Deployed, RpcError> {
        HdSearchService::launch_with(config(), (*self.dataset).clone(), LshConfig::default())
            .map(Deployed::HdSearch)
    }

    fn launch_traced(&self, tracer: &Arc<Tracer>) -> Result<Deployed, RpcError> {
        let corpus = self.dataset.vectors();
        let id_map = RoundRobinMap::new(LEAVES);
        let midtier = HdSearchMidTier::build(DIM, LshConfig::default(), corpus, id_map);
        let mut shards: Vec<Option<Vec<Vec<f32>>>> =
            shards(corpus, id_map).into_iter().map(Some).collect();
        let leaf_tracer = tracer.clone();
        Cluster::launch(config(), TracedMid::new(midtier, tracer.clone()), move |leaf| {
            let shard = shards[leaf].take().expect("each shard is built once");
            TracedLeaf::new(HdSearchLeaf::new(shard, leaf, id_map), leaf_tracer.clone())
        })
        .map(Deployed::Traced)
    }

    fn probe(&self) -> SearchQuery {
        self.queries[0].clone()
    }

    /// The reference runs the same kernels in-process: LSH candidates,
    /// each leaf's exact search over its candidates, and the top-k merge.
    fn prepare(&mut self, corrupt: bool) {
        let corpus = self.dataset.vectors();
        let ids: Vec<u64> = (0..corpus.len() as u64).collect();
        let index = LshIndex::build(DIM, LshConfig::default(), corpus, &ids);
        let id_map = RoundRobinMap::new(LEAVES);
        let leaves: Vec<HdSearchLeaf> = shards(corpus, id_map)
            .into_iter()
            .enumerate()
            .map(|(leaf, shard)| HdSearchLeaf::new(shard, leaf, id_map))
            .collect();
        let mut refs: Vec<Answer> = self
            .queries
            .iter()
            .map(|q| {
                let mut per_leaf = vec![Vec::new(); LEAVES];
                for id in index.candidates(&q.vector) {
                    per_leaf[id_map.leaf_of(id)].push(id_map.local_index(id));
                }
                let lists: Vec<Vec<Neighbor>> = per_leaf
                    .iter()
                    .zip(&leaves)
                    .filter(|(candidates, _)| !candidates.is_empty())
                    .map(|(candidates, leaf)| leaf.search(&q.vector, candidates, K as usize))
                    .collect();
                let contacted = lists.len() as u32;
                Degraded::partial(merge_top_k(lists, K as usize), contacted, contacted)
            })
            .collect();
        if corrupt {
            match refs[0].value.first_mut() {
                Some(n) => n.distance += 1.0,
                None => refs[0].value.push(Neighbor { id: 0, distance: 0.0 }),
            }
        }
        self.refs = Arc::new(refs);
    }

    fn check_probe(&self, response: &Answer) -> bool {
        check(&self.dataset, &self.queries[0], &self.refs[0], response)
    }

    fn stream(&self, seed: u64) -> HdSearchStream {
        HdSearchStream {
            rng: Rng::new(seed),
            dataset: self.dataset.clone(),
            queries: self.queries.clone(),
            refs: self.refs.clone(),
        }
    }
}

/// Equal to the reference, sorted, and with every distance recomputed
/// from the corpus.
fn check(dataset: &VectorDataset, query: &SearchQuery, expected: &Answer, got: &Answer) -> bool {
    let corpus = dataset.vectors();
    let same = got.degraded == expected.degraded
        && got.shards_ok == expected.shards_ok
        && got.shards_total == expected.shards_total
        && got.value.len() == expected.value.len()
        && got
            .value
            .iter()
            .zip(&expected.value)
            .all(|(a, b)| a.id == b.id && a.distance.to_bits() == b.distance.to_bits());
    let sorted = got.value.windows(2).all(|w| (w[0].distance, w[0].id) < (w[1].distance, w[1].id));
    let honest = got.value.iter().all(|n| {
        corpus
            .get(n.id as usize)
            .is_some_and(|v| euclidean_sq(&query.vector, v).to_bits() == n.distance.to_bits())
    });
    same && sorted && honest && got.value.len() <= query.k as usize
}

/// Uniform draws from the query pool.
pub struct HdSearchStream {
    rng: Rng,
    dataset: Arc<VectorDataset>,
    queries: Arc<Vec<SearchQuery>>,
    refs: Arc<Vec<Answer>>,
}

impl Stream for HdSearchStream {
    type Req = SearchQuery;
    type Resp = Answer;

    fn next(&mut self) -> (SearchQuery, u64) {
        let i = self.rng.below(self.queries.len());
        (self.queries[i].clone(), i as u64)
    }

    fn check(&mut self, tag: u64, _timing: Timing, response: &Answer) -> bool {
        let i = tag as usize;
        check(&self.dataset, &self.queries[i], &self.refs[i], response)
    }
}
