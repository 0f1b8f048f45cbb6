//! `setalgebra_pollers_batched`: conjunctive term queries on the shared
//! poller reactor with batched dispatch at the mid-tier and every leaf.

use super::{Deployed, Stream, Timing, Workload};
use crate::rng::Rng;
use crate::trace::{KeyHasher, TraceKey, TracedLeaf, TracedMid, Tracer};
use musuite_core::{Cluster, ClusterConfig, Degraded};
use musuite_data::text::{CorpusConfig, DocId, TermId, TextCorpus};
use musuite_rpc::{BatchPolicy, NetworkModel, RpcError, ServerConfig};
use musuite_setalgebra::protocol::{PostingList, TermQuery};
use musuite_setalgebra::{InvertedIndex, SetAlgebraLeaf, SetAlgebraMidTier, SetAlgebraService};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

const LEAVES: usize = 4;
const DOCS: usize = 10_000;
const VOCABULARY: usize = 10_000;
const DOC_LEN: usize = 80;
/// The most frequent terms, ignored in queries.
const STOP_TOP: usize = 100;
/// Distinct queries cycled through by the load.
const POOL: usize = 1_024;
const POLLERS: usize = 2;
const BATCH_SIZE: usize = 8;
const BATCH_DELAY: Duration = Duration::from_micros(50);

type Answer = Degraded<PostingList>;

impl TraceKey for TermQuery {
    fn trace_key(&self) -> u64 {
        self.terms.iter().fold(KeyHasher::default(), |h, &t| h.word(u64::from(t))).finish()
    }
}

fn config() -> ClusterConfig {
    let mut server = ServerConfig::default();
    server
        .network_model(NetworkModel::SharedPollers { pollers: POLLERS })
        .batch_policy(BatchPolicy::new(BATCH_SIZE, BATCH_DELAY));
    ClusterConfig::new().leaves(LEAVES).midtier_config(server.clone()).leaf_config(server)
}

/// Corpus, query pool, and reference answers.
pub struct SetAlgebra {
    corpus: TextCorpus,
    queries: Arc<Vec<TermQuery>>,
    refs: Arc<Vec<Vec<DocId>>>,
}

/// Documents containing every non-stop term of `terms`, computed by
/// brute force from the corpus. A query of stop terms only matches
/// nothing, as does a query naming a term no document has.
fn reference(
    postings: &HashMap<TermId, Vec<DocId>>,
    stop: &HashSet<TermId>,
    terms: &[TermId],
) -> Vec<DocId> {
    let mut lists = Vec::new();
    for term in terms.iter().filter(|t| !stop.contains(t)) {
        match postings.get(term) {
            Some(list) => lists.push(list),
            None => return Vec::new(),
        }
    }
    lists.sort_by_key(|l| l.len());
    let Some((first, rest)) = lists.split_first() else { return Vec::new() };
    first.iter().copied().filter(|d| rest.iter().all(|l| l.binary_search(d).is_ok())).collect()
}

impl Workload for SetAlgebra {
    type Stream = SetAlgebraStream;
    const NAME: &'static str = "setalgebra_pollers_batched";
    const MID_QPS: f64 = 3_000.0;

    fn generate(seed: u64) -> SetAlgebra {
        let corpus = TextCorpus::generate(&CorpusConfig {
            documents: DOCS,
            vocabulary: VOCABULARY,
            doc_len: DOC_LEN,
            seed,
            ..Default::default()
        });
        let queries =
            corpus.sample_queries(POOL).into_iter().map(|terms| TermQuery { terms }).collect();
        SetAlgebra { corpus, queries: Arc::new(queries), refs: Arc::new(Vec::new()) }
    }

    fn launch(&self) -> Result<Deployed, RpcError> {
        SetAlgebraService::launch_with(config(), &self.corpus, STOP_TOP).map(Deployed::SetAlgebra)
    }

    fn launch_traced(&self, tracer: &Arc<Tracer>) -> Result<Deployed, RpcError> {
        let mut shard_docs: Vec<Vec<Vec<TermId>>> = vec![Vec::new(); LEAVES];
        let mut shard_ids: Vec<Vec<DocId>> = vec![Vec::new(); LEAVES];
        for (id, doc) in self.corpus.documents().iter().enumerate() {
            shard_docs[id % LEAVES].push(doc.clone());
            shard_ids[id % LEAVES].push(id as DocId);
        }
        let stop_list = InvertedIndex::stop_list_for(self.corpus.documents(), STOP_TOP);
        let leaf_tracer = tracer.clone();
        Cluster::launch(
            config(),
            TracedMid::new(SetAlgebraMidTier::new(), tracer.clone()),
            move |leaf| {
                let handler = SetAlgebraLeaf::build_with_stop_list(
                    &shard_docs[leaf],
                    &shard_ids[leaf],
                    stop_list.clone(),
                );
                TracedLeaf::new(handler, leaf_tracer.clone())
            },
        )
        .map(Deployed::Traced)
    }

    fn probe(&self) -> TermQuery {
        self.queries[0].clone()
    }

    /// The stop list is the `STOP_TOP` terms with the most occurrences in
    /// the whole corpus, ties broken by lower term id.
    fn prepare(&mut self, corrupt: bool) {
        let mut occurrences: HashMap<TermId, u64> = HashMap::new();
        let mut postings: HashMap<TermId, Vec<DocId>> = HashMap::new();
        for (id, doc) in self.corpus.documents().iter().enumerate() {
            for &term in doc {
                *occurrences.entry(term).or_default() += 1;
                let list = postings.entry(term).or_default();
                if list.last() != Some(&(id as DocId)) {
                    list.push(id as DocId);
                }
            }
        }
        let mut by_count: Vec<(TermId, u64)> = occurrences.into_iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let stop: HashSet<TermId> = by_count.iter().take(STOP_TOP).map(|&(t, _)| t).collect();
        let mut refs: Vec<Vec<DocId>> =
            self.queries.iter().map(|q| reference(&postings, &stop, &q.terms)).collect();
        if corrupt && refs[0].pop().is_none() {
            refs[0].push(0);
        }
        self.refs = Arc::new(refs);
    }

    fn check_probe(&self, response: &Answer) -> bool {
        check(&self.refs[0], response)
    }

    fn stream(&self, seed: u64) -> SetAlgebraStream {
        SetAlgebraStream {
            rng: Rng::new(seed),
            queries: self.queries.clone(),
            refs: self.refs.clone(),
        }
    }
}

fn check(expected: &[DocId], got: &Answer) -> bool {
    let leaves = LEAVES as u32;
    !got.degraded
        && got.shards_ok == leaves
        && got.shards_total == leaves
        && got.value.docs == expected
}

/// Uniform draws from the query pool.
pub struct SetAlgebraStream {
    rng: Rng,
    queries: Arc<Vec<TermQuery>>,
    refs: Arc<Vec<Vec<DocId>>>,
}

impl Stream for SetAlgebraStream {
    type Req = TermQuery;
    type Resp = Answer;

    fn next(&mut self) -> (TermQuery, u64) {
        let i = self.rng.below(self.queries.len());
        (self.queries[i].clone(), i as u64)
    }

    fn check(&mut self, tag: u64, _timing: Timing, response: &Answer) -> bool {
        check(&self.refs[tag as usize], response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_ignores_stop_terms_and_intersects_the_rest() {
        let postings: HashMap<TermId, Vec<DocId>> =
            [(1, vec![0, 1, 2, 3]), (2, vec![1, 3, 5]), (3, vec![3, 4])].into_iter().collect();
        let stop: HashSet<TermId> = [1].into_iter().collect();
        assert_eq!(reference(&postings, &stop, &[1, 2]), vec![1, 3, 5]);
        assert_eq!(reference(&postings, &stop, &[2, 3]), vec![3]);
        assert_eq!(reference(&postings, &stop, &[1]), Vec::<DocId>::new());
        assert_eq!(reference(&postings, &stop, &[2, 9]), Vec::<DocId>::new());
    }
}
