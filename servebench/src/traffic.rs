//! Seeded traffic: the request templates each workload sends, the fixed
//! cycle that interleaves every latency family across the window, and the
//! writer's mutation records.
//!
//! Everything here is a pure function of the seed and the database, so two
//! runs with the same seed send byte-identical requests in the same order.

use gvex_graph::{Graph, GraphDatabase};
use gvex_ingest::engine::{with_edge_added, with_edge_removed};
use gvex_ingest::{Mutation, Op};
use gvex_serve::Request;
use std::time::Duration;

/// Coverage upper bound of every hot explain key and every node request.
/// At 4 a class explain answer is a ~34 KB frame.
pub const UPPER: usize = 4;

/// The class whose graphs the writer edits. Fixed rather than drawn from the
/// seed: class-0 graphs cost about 2.5 times as much to explain as class-1
/// graphs, so a seed-drawn class would split mutate latency, which
/// re-explains the edited graph, into two populations across seeds.
pub const WRITTEN_CLASS: usize = 0;

/// The explain misses `hot_reads` interleaves: class 1, as (upper bound,
/// streaming). Five keys of 15–35 ms, so p50 falls in the middle key and
/// p90 in the top one, never between two of them. The hot explains' upper
/// bound 4 is left out. A key comes back only after four other explain
/// misses and 90 node misses, ~45 of them in its cache shard, more than the
/// shard's 32 entries hold, so each one computes.
pub const HOT_MISS_CLASS: usize = 1;

/// See [`HOT_MISS_CLASS`].
pub const HOT_MISS_KEYS: [(usize, bool); 5] =
    [(2, false), (3, false), (5, false), (6, false), (2, true)];

/// Upper bounds of the `miss_heavy` explain sweep, visited with both
/// strategies for each class: 2 × 8 × 2 = 32 keys. The hot explains' upper
/// bound 4 is left out. A key comes back only after 31 other explains and
/// 512 node answers, ~270 of them in its shard.
pub const MISS_UPPERS: [usize; 8] = [2, 3, 5, 6, 7, 8, 9, 10];

/// Node misses per `miss_heavy` cycle.
pub const MISS_NODES: usize = 16;

/// Mutation records planned per second of window: far more than the
/// daemon can commit (each commit re-explains a graph and rebuilds the
/// serving state, ~20 ms).
pub const MUTATIONS_PER_S: usize = 50;

/// SplitMix64: a tiny, fast, well-mixed generator with a one-word state.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(1) over ranks `0..n`: rank `i` has weight `1 / (i + 1)`.
#[derive(Clone, Debug)]
pub struct Zipf {
    weights: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize) -> Self {
        Self { weights: (0..n).map(|i| 1.0 / (i + 1) as f64).collect() }
    }

    /// How often each rank comes up in `total` draws that follow the
    /// weights as closely as whole numbers can: each rank gets the whole
    /// part of its share, and the draws left over go to the largest
    /// remainders (the lower rank first on a tie).
    pub fn counts(&self, total: usize) -> Vec<usize> {
        let sum: f64 = self.weights.iter().sum();
        let quotas: Vec<f64> = self.weights.iter().map(|w| w / sum * total as f64).collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..quotas.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
        });
        let short = total - counts.iter().sum::<usize>();
        for &rank in &by_remainder[..short] {
            counts[rank] += 1;
        }
        counts
    }
}

/// What a request asks for, as far as latency metrics are concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A class explain.
    Explain,
    /// A view-index query.
    Query,
    /// A node-level explanation.
    Node,
    /// A mutation batch.
    Mutate,
}

impl Kind {
    /// Lower-case name used in the printed accounting.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Explain => "explain",
            Kind::Query => "query",
            Kind::Node => "node",
            Kind::Mutate => "mutate",
        }
    }
}

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipfian reads over a dozen keys that all fit in the answer cache.
    HotReads,
    /// Node explanations over every node plus a class-explain sweep, so
    /// nearly every read computes.
    MissHeavy,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hot_reads" => Some(Self::HotReads),
            "miss_heavy" => Some(Self::MissHeavy),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::HotReads => "hot_reads",
            Self::MissHeavy => "miss_heavy",
        }
    }

    /// The fixed cycle of slots the window repeats. Every latency family
    /// has slots in every cycle, so each family samples the whole window
    /// and a slow stretch of the host lands on all of them alike.
    pub fn cycle(self) -> Vec<Slot> {
        match self {
            // 220 slots: 200 hot reads with an explain miss, a mutation and
            // 18 node misses spread evenly between them. Short enough that a
            // 40 s window holds over 100 explain misses even when the host
            // runs at half speed.
            Self::HotReads => (0..20)
                .flat_map(|i| {
                    let special = match i {
                        0 => Slot::Explain,
                        10 => Slot::Mutate,
                        _ => Slot::Node,
                    };
                    std::iter::once(special).chain(std::iter::repeat_n(Slot::Hot, 10))
                })
                .collect(),
            // Sixteen nodes and one sweep explain, sixteen hits, a
            // mutation: a 40 s window walks the whole node permutation
            // about twice, so every run samples nearly the same nodes.
            // The hits come as one block: a hit right after a computed
            // answer costs ~20 % more (the computation has evicted its data
            // from the CPU caches), and in a block only one in 16 pays that,
            // as about one in 20 does on `hot_reads`.
            Self::MissHeavy => std::iter::repeat_n(Slot::Node, MISS_NODES)
                .chain([Slot::Explain])
                .chain(std::iter::repeat_n(Slot::Hit, 16))
                .chain([Slot::Mutate])
                .collect(),
        }
    }

    /// Whole cycles per `qps` slice, so that every slice asks the same
    /// reads. On `hot_reads` one cycle: its 200 hot reads are the same mix
    /// in every cycle (~40 ms of them on MUT bench), so a slice is short
    /// enough that most slices miss a given burst of host CPU steal. On
    /// `miss_heavy` one sweep, 32 cycles (~5 s), since every cycle asks a
    /// different explain.
    pub fn qps_slice_cycles(self) -> usize {
        match self {
            Self::HotReads => 1,
            Self::MissHeavy => self.explain_period(),
        }
    }

    /// Distinct explain misses the workload cycles through, in a fixed
    /// order: the explain-miss percentiles are taken over slices of whole
    /// rounds, so that every slice holds each key equally often.
    pub fn explain_period(self) -> usize {
        match self {
            Self::HotReads => HOT_MISS_KEYS.len(),
            Self::MissHeavy => 2 * 2 * MISS_UPPERS.len(),
        }
    }

    /// Whether `slot` carries the workload's own reads, the ones `qps`
    /// counts: the Zipf reads of `hot_reads`, the node and explain misses of
    /// `miss_heavy`.
    pub fn primary(self, slot: Slot) -> bool {
        match self {
            Self::HotReads => slot == Slot::Hot,
            Self::MissHeavy => matches!(slot, Slot::Node | Slot::Explain),
        }
    }
}

/// One position of a workload's cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Slot {
    /// A hot-set read (`hot_reads`). Each cycle's hot reads follow the
    /// Zipf weights exactly (see [`Zipf::counts`]), in a seeded order, so
    /// every cycle asks the same mix.
    Hot,
    /// The next key of a round robin over cached explains and queries
    /// (`miss_heavy`).
    Hit,
    /// The next node of a seeded permutation (computes).
    Node,
    /// The next class explain of a fixed key cycle (computes).
    Explain,
    /// The next mutation, committed on the writer daemon.
    Mutate,
}

/// Every distinct read request of a run, addressed by index.
#[derive(Default)]
pub struct Catalog {
    /// The requests.
    pub templates: Vec<Request>,
    /// Their kinds.
    pub kinds: Vec<Kind>,
}

impl Catalog {
    fn add(&mut self, req: Request, kind: Kind) -> usize {
        self.templates.push(req);
        self.kinds.push(kind);
        self.templates.len() - 1
    }
}

/// One operation of the window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The slot it fills.
    pub slot: Slot,
    /// Catalog index (reads) or mutation index (writes).
    pub item: usize,
}

/// The window's operations in order: the workload's cycle, each slot
/// filled from its own seeded source.
#[derive(Clone, Debug)]
pub struct OpStream {
    cycle: Vec<Slot>,
    issued: usize,
    /// Catalog index of each hot rank, most popular first.
    hot: Vec<usize>,
    /// How often each hot rank comes up in one cycle.
    hot_counts: Vec<usize>,
    /// The current cycle's hot reads not yet sent.
    deck: Vec<usize>,
    rng: Rng,
    hits: Vec<usize>,
    nodes: Vec<usize>,
    explains: Vec<usize>,
    /// Per-slot counters: hits, nodes, explains, mutations.
    taken: [usize; 4],
}

impl OpStream {
    /// The next operation.
    pub fn next_op(&mut self) -> Step {
        let slot = self.cycle[self.issued % self.cycle.len()];
        self.issued += 1;
        let next = |taken: &mut usize, from: &[usize]| {
            *taken += 1;
            from[(*taken - 1) % from.len()]
        };
        let item = match slot {
            Slot::Hot => {
                if self.deck.is_empty() {
                    for (&item, &n) in self.hot.iter().zip(&self.hot_counts) {
                        self.deck.extend(std::iter::repeat_n(item, n));
                    }
                    self.rng.shuffle(&mut self.deck);
                }
                self.deck.pop().expect("every cycle has hot reads to send")
            }
            Slot::Hit => next(&mut self.taken[0], &self.hits),
            Slot::Node => next(&mut self.taken[1], &self.nodes),
            Slot::Explain => next(&mut self.taken[2], &self.explains),
            Slot::Mutate => {
                // record 0 is the warm-up commit
                self.taken[3] += 1;
                self.taken[3]
            }
        };
        Step { slot, item }
    }
}

/// A workload's complete, seeded traffic.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Every distinct read.
    pub catalog: Catalog,
    /// Reads answered once before the window (their first, computing answer
    /// stays out of the timed figures).
    pub warm: Vec<usize>,
    /// The window's operations.
    pub ops: OpStream,
    /// Single-record mutation batches, warm-up commit first.
    pub mutations: Vec<String>,
}

/// Catalog indices of the hot set, most popular first: two class explains,
/// four label queries (two with discriminative patterns) and six node
/// explanations, interleaved so each kind holds high and low ranks.
fn hot_set(catalog: &mut Catalog, classes: usize, hot_nodes: &[(usize, usize)]) -> Vec<usize> {
    let explain = |c: usize| Request::explain(c % classes, UPPER, false);
    let query = |c: usize| Request::query_label(c % classes);
    let disc = |c: usize| Request { discriminative: Some((c % classes) as u64), ..query(c) };
    let node = |i: usize| Request::node(hot_nodes[i].0, hot_nodes[i].1, UPPER);
    let order = [
        (explain(0), Kind::Explain),
        (query(0), Kind::Query),
        (node(0), Kind::Node),
        (explain(1), Kind::Explain),
        (query(1), Kind::Query),
        (node(1), Kind::Node),
        (disc(0), Kind::Query),
        (node(2), Kind::Node),
        (disc(1), Kind::Query),
        (node(3), Kind::Node),
        (node(4), Kind::Node),
        (node(5), Kind::Node),
    ];
    order.into_iter().map(|(req, kind)| catalog.add(req, kind)).collect()
}

/// Every (graph, node) pair of the database, in index order.
pub fn all_nodes(db: &GraphDatabase) -> Vec<(usize, usize)> {
    (0..db.len()).flat_map(|g| (0..db.graph(g).num_nodes()).map(move |v| (g, v))).collect()
}

/// Builds the plan for `workload` from `seed`. `assigned` holds the
/// classifier's label of every graph.
pub fn plan(
    workload: Workload,
    seed: u64,
    db: &GraphDatabase,
    assigned: &[usize],
    window: Duration,
) -> Plan {
    let mut rng = Rng::new(seed);
    let classes = db.num_classes().max(1);
    let mut free = all_nodes(db);
    rng.shuffle(&mut free);

    let mut catalog = Catalog::default();
    let (hot, hits, free, explains) = match workload {
        Workload::HotReads => {
            let hot = hot_set(&mut catalog, classes, &free[..6]);
            let explains = HOT_MISS_KEYS
                .iter()
                .map(|&(upper, stream)| {
                    let req = Request::explain(HOT_MISS_CLASS % classes, upper, stream);
                    catalog.add(req, Kind::Explain)
                })
                .collect();
            (hot, Vec::new(), &free[6..], explains)
        }
        Workload::MissHeavy => {
            let hits = (0..classes.min(2))
                .flat_map(|c| {
                    let query = Request::query_label(c);
                    let disc = Request { discriminative: Some(c as u64), ..query.clone() };
                    [
                        (Request::explain(c, UPPER, false), Kind::Explain),
                        (query, Kind::Query),
                        (disc, Kind::Query),
                    ]
                })
                .map(|(req, kind)| catalog.add(req, kind))
                .collect();
            let mut explains = Vec::new();
            for class in 0..classes {
                for upper in MISS_UPPERS {
                    for stream in [false, true] {
                        explains.push(
                            catalog.add(Request::explain(class, upper, stream), Kind::Explain),
                        );
                    }
                }
            }
            (Vec::new(), hits, &free[..], explains)
        }
    };
    let nodes = free.iter().map(|&(g, v)| catalog.add(Request::node(g, v, UPPER), Kind::Node));
    let nodes: Vec<usize> = nodes.collect();
    let warm = if hot.is_empty() { hits.clone() } else { hot.clone() };

    let class_graphs: Vec<usize> =
        (0..db.len()).filter(|&g| assigned[g] == WRITTEN_CLASS % classes).collect();
    let records = 1 + MUTATIONS_PER_S * window.as_secs().max(1) as usize;
    let mut wrng = Rng::new(seed ^ 0x5752_4954_4552); // "WRITER"
    let mutations = class_mutations(db, &class_graphs, records, &mut wrng)
        .iter()
        .map(|m| gvex_ingest::to_jsonl(std::slice::from_ref(m)))
        .collect();

    let cycle = workload.cycle();
    let hot_slots = cycle.iter().filter(|&&s| s == Slot::Hot).count();
    let ops = OpStream {
        cycle,
        issued: 0,
        hot_counts: Zipf::new(hot.len().max(1)).counts(hot_slots),
        deck: Vec::new(),
        hot,
        rng: Rng::new(seed ^ 0x5A49_5046), // "ZIPF"
        hits,
        nodes,
        explains,
        taken: [0; 4],
    };
    Plan { workload, catalog, warm, ops, mutations }
}

/// `count` edge edits confined to `graphs`, valid when applied in order:
/// each edit is mirrored on a scratch copy with the same graph-edit helpers
/// the ingest engine uses. The edits visit `graphs` round robin in a seeded
/// order, so every run edits each graph about equally often: a commit
/// re-explains the edited graph, and a seeded draw of graphs would move the
/// commit-latency distribution from seed to seed.
pub fn class_mutations(
    db: &GraphDatabase,
    graphs: &[usize],
    count: usize,
    rng: &mut Rng,
) -> Vec<Mutation> {
    assert!(!graphs.is_empty(), "the written class has no graphs");
    let mut scratch: Vec<Graph> = graphs.iter().map(|&g| db.graph(g).clone()).collect();
    let mut order: Vec<usize> = (0..graphs.len()).collect();
    rng.shuffle(&mut order);
    let mut out = Vec::with_capacity(count);
    for &slot in order.iter().cycle() {
        if out.len() == count {
            break;
        }
        let g = &scratch[slot];
        let op = if rng.next_f64() < 0.5 {
            add_edge(g, graphs[slot], rng)
        } else {
            remove_edge(g, graphs[slot], rng)
        };
        let Some(op) = op else { continue };
        scratch[slot] = match &op {
            Op::AddEdge { u, v, etype, .. } => with_edge_added(g, *u, *v, *etype),
            Op::RemoveEdge { u, v, .. } => with_edge_removed(g, *u, *v),
            _ => unreachable!("only edge edits are generated"),
        };
        out.push(op.to_wire());
    }
    out
}

fn add_edge(g: &Graph, graph: usize, rng: &mut Rng) -> Option<Op> {
    let n = g.num_nodes();
    if n < 2 {
        return None;
    }
    let etype = match g.num_edges() {
        0 => 0,
        m => g.edges().nth(rng.below(m)).map_or(0, |(_, _, t)| t),
    };
    for _ in 0..16 {
        let (u, v) = (rng.below(n), rng.below(n));
        if u != v && !g.has_edge(u, v) {
            return Some(Op::AddEdge { graph, u, v, etype });
        }
    }
    None
}

fn remove_edge(g: &Graph, graph: usize, rng: &mut Rng) -> Option<Op> {
    // keep at least one edge, as the ingest generator does
    if g.num_edges() < 2 {
        return None;
    }
    let (u, v, _) = g.edges().nth(rng.below(g.num_edges()))?;
    Some(Op::RemoveEdge { graph, u, v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_datasets::{DatasetKind, Scale};

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.next_f64())));
    }

    #[test]
    fn zipf_counts_follow_rank_weights() {
        let counts = Zipf::new(12).counts(200);
        // quotas 64.45, 32.22, 21.48, 16.11, 12.89, 10.74, 9.21, 8.06, 7.16,
        // 6.45, 5.86, 5.37: five left over go to the largest remainders
        assert_eq!(counts, [65, 32, 22, 16, 13, 11, 9, 8, 7, 6, 6, 5]);
        assert_eq!(Zipf::new(3).counts(10), [5, 3, 2]);
        assert_eq!(Zipf::new(1).counts(0), [0]);
    }

    #[test]
    fn every_cycle_asks_the_same_hot_mix_in_a_seeded_order() {
        let db = DatasetKind::Mutagenicity.generate(Scale::Small, 42);
        let assigned: Vec<usize> = (0..db.len()).map(|g| g % db.num_classes()).collect();
        let cycle = Workload::HotReads.cycle().len();
        let hot_reads = |seed| {
            let mut p = plan(Workload::HotReads, seed, &db, &assigned, Duration::from_secs(10));
            let steps: Vec<Step> = (0..3 * cycle).map(|_| p.ops.next_op()).collect();
            steps
                .chunks(cycle)
                .map(|c| c.iter().filter(|o| o.slot == Slot::Hot).map(|o| o.item).collect())
                .collect::<Vec<Vec<usize>>>()
        };
        let a = hot_reads(3);
        assert_eq!(a, hot_reads(3));
        assert_ne!(a, hot_reads(4));
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        assert_ne!(a[0], a[1], "each cycle is shuffled anew");
        assert_eq!(sorted(a[0].clone()), sorted(a[1].clone()));
        assert_eq!(sorted(a[0].clone()), sorted(a[2].clone()));
        // the catalog lists the hot set first, most popular rank first
        let mut counts = [0usize; 12];
        for &item in &a[0] {
            counts[item] += 1;
        }
        assert_eq!(counts.to_vec(), Zipf::new(12).counts(200));
    }

    #[test]
    fn writer_records_repeat_per_seed() {
        let db = DatasetKind::Mutagenicity.generate(Scale::Small, 42);
        let graphs: Vec<usize> = (0..db.len()).step_by(2).collect();
        let records = |seed| {
            let muts = class_mutations(&db, &graphs, 40, &mut Rng::new(seed));
            gvex_ingest::to_jsonl(&muts)
        };
        assert_eq!(records(5), records(5));
        assert_ne!(records(5), records(6));
        // every record parses and targets one of the allowed graphs
        for m in gvex_ingest::parse_jsonl(&records(5)).unwrap() {
            let op = m.parse().unwrap();
            let g = match op {
                Op::AddEdge { graph, .. } | Op::RemoveEdge { graph, .. } => graph,
                other => panic!("unexpected op {other:?}"),
            };
            assert!(graphs.contains(&g));
        }
    }

    #[test]
    fn every_family_has_slots_in_every_cycle() {
        let hot = Workload::HotReads.cycle();
        let count = |c: &[Slot], s: Slot| c.iter().filter(|&&x| x == s).count();
        assert_eq!(hot.len(), 220);
        assert_eq!(
            [Slot::Hot, Slot::Node, Slot::Explain, Slot::Mutate].map(|s| count(&hot, s)),
            [200, 18, 1, 1]
        );
        // the mutation sits half way through the cycle
        let at = |c: &[Slot], s: Slot| {
            c.iter().enumerate().filter(|&(_, &x)| x == s).map(|(i, _)| i).collect::<Vec<_>>()
        };
        assert_eq!(at(&hot, Slot::Explain), [0]);
        assert_eq!(at(&hot, Slot::Mutate), [110]);
        let miss = Workload::MissHeavy.cycle();
        assert_eq!(
            [Slot::Node, Slot::Hit, Slot::Explain, Slot::Mutate].map(|s| count(&miss, s)),
            [16, 16, 1, 1]
        );
        assert_eq!(at(&miss, Slot::Explain), [16]);
    }

    #[test]
    fn op_stream_repeats_per_seed_and_cycles_its_sources() {
        let db = DatasetKind::Mutagenicity.generate(Scale::Small, 42);
        let assigned: Vec<usize> = (0..db.len()).map(|g| g % db.num_classes()).collect();
        let plan_of = |w, seed| plan(w, seed, &db, &assigned, Duration::from_secs(10));
        // the requests (or mutation records) sent, in order
        let sent = |w, seed| {
            let mut p = plan_of(w, seed);
            (0..3000)
                .map(|_| {
                    let step = p.ops.next_op();
                    match step.slot {
                        Slot::Mutate => p.mutations[step.item].clone().into_bytes(),
                        _ => p.catalog.templates[step.item].encode(),
                    }
                })
                .collect::<Vec<_>>()
        };
        for w in [Workload::HotReads, Workload::MissHeavy] {
            let a = sent(w, 9);
            assert_eq!(a, sent(w, 9));
            assert_ne!(a, sent(w, 10));
            // mutations are numbered from 1, in order, one per cycle
            let mut p = plan_of(w, 9);
            let cycles = 3000 / w.cycle().len();
            let steps: Vec<Step> = (0..cycles * w.cycle().len()).map(|_| p.ops.next_op()).collect();
            let muts: Vec<usize> =
                steps.iter().filter(|o| o.slot == Slot::Mutate).map(|o| o.item).collect();
            assert_eq!(muts, (1..=cycles).collect::<Vec<_>>());
        }
        // the miss sweep visits its explain keys in a fixed cycle
        let mut p = plan_of(Workload::MissHeavy, 9);
        let sweep = 2 * MISS_UPPERS.len() * db.num_classes();
        let explains: Vec<usize> = (0..3000)
            .map(|_| p.ops.next_op())
            .filter(|o| o.slot == Slot::Explain)
            .map(|o| o.item)
            .collect();
        assert_eq!(explains[..sweep], explains[sweep..2 * sweep]);
        assert!(explains.iter().all(|&i| p.catalog.kinds[i] == Kind::Explain));
    }
}
