//! Seeded inputs: the NYC-style open-data corpus, its query/corpus
//! split, and the request bodies the workloads send.

use correlation_sketches::json::{push_f64, push_string};
use sketch_datagen::{generate_open_data, split_corpus, OpenDataConfig};
use sketch_table::ColumnPair;

/// Tables generated per run (the paper's NYC snapshot has 1,505).
pub const TABLES: usize = 1500;
/// Corpus sketch size, as in the paper's Section 5.5 query experiment.
pub const SKETCH_SIZE: usize = 1024;
/// Share of column pairs held out as query columns.
pub const QUERY_FRACTION: f64 = 0.3;
/// Seed of the generated lake's tables. The lake is the same on every
/// run: different lakes differ in key-domain structure enough to move
/// query cost by a quarter, more than any bound a regression gate can
/// use. A run's seed picks the split instead (see [`generate`]).
pub const LAKE_SEED: u64 = 7;

/// The generated inputs of one run.
pub struct Inputs {
    /// Held-out query columns, in the split's order.
    pub queries: Vec<ColumnPair>,
    /// Column pairs that populate the corpus.
    pub corpus: Vec<ColumnPair>,
}

/// Generate the lake and split it for `seed`: the seed decides which
/// column pairs are held out as queries and so what the corpus holds.
#[must_use]
pub fn generate(seed: u64) -> Inputs {
    let tables = generate_open_data(&OpenDataConfig {
        tables: TABLES,
        ..OpenDataConfig::nyc(LAKE_SEED)
    });
    let split = split_corpus(&tables, QUERY_FRACTION, seed);
    Inputs {
        queries: split.queries,
        corpus: split.corpus,
    }
}

/// Indices of `n` query columns spread evenly over all of them ranked
/// by distinct keys (ties by id), so that every seed's pick has the same
/// size profile and a run's cost does not hinge on which columns a
/// seed happened to hold out.
#[must_use]
pub fn stratified(queries: &[ColumnPair], n: usize) -> Vec<usize> {
    let mut ranked: Vec<(usize, String, usize)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| (q.distinct_keys(), q.id(), i))
        .collect();
    ranked.sort();
    let len = ranked.len();
    let n = n.min(len);
    (0..n)
        .map(|j| ranked[(2 * j + 1) * len / (2 * n)].2)
        .collect()
}

/// Reorder `picks` (ranked small to large) into `groups` consecutive
/// groups that each draw from every part of the ranking: group `g`
/// takes `picks[g]`, `picks[g + groups]`, ….
#[must_use]
pub fn interleave(picks: &[usize], groups: usize) -> Vec<usize> {
    (0..groups)
        .flat_map(|g| picks.iter().skip(g).step_by(groups).copied())
        .collect()
}

/// The query column with the most distinct keys (ties by id): its
/// sketch is full-size on every seed.
#[must_use]
pub fn largest(queries: &[ColumnPair]) -> usize {
    (0..queries.len())
        .max_by_key(|&i| {
            (
                queries[i].distinct_keys(),
                std::cmp::Reverse(queries[i].id()),
            )
        })
        .unwrap_or(0)
}

/// One query column, pre-rendered as a JSON object split around the
/// end of its id, so a request can give the column a fresh id cheaply.
pub struct Column {
    /// `{"id":"<id>` — the object up to the closing quote of the id.
    head: String,
    /// `","keys":[…],"values":[…]}` — the rest of the object.
    tail: String,
}

impl Column {
    /// Render `pair` under its own id.
    #[must_use]
    pub fn new(pair: &ColumnPair) -> Self {
        let mut head = String::from("{\"id\":");
        push_string(&mut head, &pair.id());
        head.pop();
        let mut tail = String::with_capacity(32 * pair.len() + 32);
        tail.push_str("\",\"keys\":[");
        for (i, key) in pair.keys.iter().enumerate() {
            if i > 0 {
                tail.push(',');
            }
            push_string(&mut tail, key);
        }
        tail.push_str("],\"values\":[");
        for (i, v) in pair.values.iter().enumerate() {
            if i > 0 {
                tail.push(',');
            }
            push_f64(&mut tail, *v);
        }
        tail.push_str("]}");
        Self { head, tail }
    }

    /// Append the column's JSON object, its id suffixed with `#cycle`
    /// when a cycle is given. The suffix changes the request's cache
    /// key but not its answer: responses never echo the query id.
    pub fn push(&self, out: &mut String, cycle: Option<u64>) {
        out.push_str(&self.head);
        if let Some(c) = cycle {
            out.push('#');
            out.push_str(&c.to_string());
        }
        out.push_str(&self.tail);
    }

    /// A `POST /query` body under the server's default ranking.
    #[must_use]
    pub fn query_body(&self, cycle: Option<u64>) -> String {
        let mut out = String::with_capacity(self.head.len() + self.tail.len() + 24);
        self.push(&mut out, cycle);
        out
    }
}

/// A `POST /query_batch` body: `params` (JSON fields without braces)
/// followed by one query object per column.
#[must_use]
pub fn batch_body(params: &str, columns: &[Column], cycle: Option<u64>) -> String {
    let mut out =
        String::with_capacity(64 + columns.iter().map(|c| c.tail.len() + 64).sum::<usize>());
    out.push('{');
    out.push_str(params);
    out.push_str(",\"queries\":[");
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        c.push(&mut out, cycle);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_server::api::{BatchRequest, QueryParams, QueryRequest};

    fn pair() -> ColumnPair {
        ColumnPair::new(
            "t",
            "k",
            "v",
            vec!["a\"b".into(), "c".into()],
            vec![1.5, -2.0],
        )
    }

    #[test]
    fn stratified_picks_span_the_size_ranking() {
        let queries: Vec<ColumnPair> = (0..10)
            .map(|i| {
                let keys = (0..=i).map(|k| format!("k{k}")).collect::<Vec<_>>();
                let values = keys.iter().map(|_| 1.0).collect();
                ColumnPair::new(format!("t{}", 9 - i), "k", "v", keys, values)
            })
            .rev()
            .collect();
        // queries[j] has 10 - j distinct keys.
        assert_eq!(stratified(&queries, 5), vec![8, 6, 4, 2, 0]);
        assert_eq!(stratified(&queries, 20), vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(largest(&queries), 0);
        assert_eq!(interleave(&[0, 1, 2, 3, 4, 5], 2), vec![0, 2, 4, 1, 3, 5]);
    }

    #[test]
    fn bodies_parse_back() {
        let defaults = QueryParams::default();
        let column = Column::new(&pair());
        let q = QueryRequest::parse(column.query_body(None).as_bytes(), &defaults).unwrap();
        assert_eq!(q.body.id, "t/k/v");
        assert_eq!(q.body.keys, vec!["a\"b".to_string(), "c".to_string()]);
        assert_eq!(q.body.values, vec![1.5, -2.0]);
        assert_eq!(q.params, defaults);
        let q = QueryRequest::parse(column.query_body(Some(12)).as_bytes(), &defaults).unwrap();
        assert_eq!(q.body.id, "t/k/v#12");

        let body = batch_body(
            "\"estimator\":\"pm1\",\"scorer\":\"s2\",\"plan\":\"two-pass\"",
            &[Column::new(&pair()), Column::new(&pair())],
            Some(1),
        );
        let b = BatchRequest::parse(body.as_bytes(), &defaults).unwrap();
        assert_eq!(b.queries.len(), 2);
        assert_eq!(b.queries[1].id, "t/k/v#1");
        assert_eq!(b.params.estimator.name(), "pm1");
        assert_eq!(b.params.scorer.name(), "s2");
        assert_eq!(b.params.plan.name(), "two-pass");
    }
}
