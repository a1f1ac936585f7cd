//! The subjective graphs of a population as they are checkpointed: each
//! distinct record once, in one table, and every graph as the indices of
//! the records it holds.
//!
//! BarterCast peers gossip only their own direct records, never hearsay, so
//! every entry of a graph is a copy of a record that one of the edge's
//! endpoints sent, and one record sits in many graphs — 8.6 copies each at
//! 1,000 peers (EXPERIMENTS.md, "Checkpoint: one record table"). Writing the
//! graphs one by one wrote every copy.
//!
//! The layout, every number a [varint](Encoder::varint):
//!
//! 1. **The table**, ascending by `(from, to, kib)`: the source count; per
//!    source its id gap and its target count; per target its id gap and its
//!    value count, then the values ascending, the first as it is and each
//!    later one as `v − previous − 1`. A gap is `id − previous − 1`, the
//!    first of a run counting from −1, so ids and values strictly ascend by
//!    construction.
//! 2. **The graphs**, in node order: the graph count; per graph its entry
//!    count, then each entry's table index as a [gap](Encoder::gap). The
//!    records of one source are adjacent in the table, so a graph's rows are
//!    its runs of indices with one source.
//!
//! A checkpoint is outside input, so restore refuses what the encoder never
//! writes — an empty run of targets or values, a self-loop, a record no
//! graph holds, a graph holding two records of one edge, an index past the
//! table, an id past `u32` — and any count larger than the bytes left,
//! before it allocates.

use super::{narrow, Edge, Row, SubjectiveGraph, WIDE};
use rvs_checkpoint::{DecodeError, Decoder, Encoder};
use rvs_sim::NodeId;

/// One record of the table: `from` uploaded `kib` KiB to `to`.
type Record = (NodeId, NodeId, u64);

/// Entries a batch of sources gathers at most, unless one source alone
/// has more: 4 MiB of copies.
const BATCH: usize = 1 << 18;

/// One entry of a graph's row as a batch gathers it: the target, the graph
/// holding it and the weight, 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Held {
    to: NodeId,
    graph: u32,
    kib: u64,
}

/// Write `graphs` as the table and the indices (the module's layout).
///
/// The graphs are read in node order, each graph's rows in its own order,
/// so memory is walked as it lies. The sources are gathered in batches of
/// about [`BATCH`] entries: a batch copies every row of its sources into
/// one bucket per source, in graph order. Each bucket then writes its
/// source's records to the table and hands every graph the indices of its
/// entries, ascending. Beside the output the encoder holds the table's
/// bytes, one batch and the graphs' index gaps — never every entry at once.
pub(crate) fn persist_graphs(graphs: &[SubjectiveGraph], enc: &mut Encoder) {
    let sources = all_sources(graphs);
    // Where `from` is in `sources`, at or past `after`.
    let slot = |from: &NodeId, after: usize| after + sources[after..].partition_point(|s| s < from);
    let mut counts = vec![0; sources.len()];
    for graph in graphs {
        let mut at = 0;
        for (from, row) in graph.sources.iter().zip(&graph.rows) {
            at = slot(from, at);
            counts[at] += row.entries().len();
        }
    }
    let mut table = Encoder::new();
    let mut next_from = 0;
    let mut records = 0;
    // Per graph: its index gaps so far and the cursor of that run of gaps.
    let mut picks: Vec<(Encoder, u64)> = graphs.iter().map(|_| (Encoder::new(), 0)).collect();
    // Per graph: its first row no batch has gathered yet.
    let mut gathered = vec![0; graphs.len()];
    let mut bucket = Vec::new();
    // Per entry of one source's bucket: its record's index.
    let mut index = Vec::new();
    let mut numbering = Numbering {
        counts: vec![0; graphs.len()],
        ..Numbering::default()
    };
    let mut lo = 0;
    while lo < sources.len() {
        let (mut hi, mut len) = (lo + 1, counts[lo]);
        while hi < sources.len() && len + counts[hi] <= BATCH {
            len += counts[hi];
            hi += 1;
        }
        // Where each source's bucket fills from, then up to.
        let mut ends: Vec<usize> = counts[lo..hi]
            .iter()
            .scan(0, |end, &n| {
                *end += n;
                Some(*end - n)
            })
            .collect();
        bucket.clear();
        let unfilled = Held {
            to: NodeId(0),
            graph: 0,
            kib: 0,
        };
        bucket.resize(len, unfilled);
        let last = sources[hi - 1];
        for (g, (graph, row)) in graphs.iter().zip(&mut gathered).enumerate() {
            let mut at = lo;
            while let Some(&from) = graph.sources.get(*row).filter(|&&from| from <= last) {
                at = slot(&from, at);
                for &e in graph.rows[*row].entries() {
                    let kib = graph.out_kib(from, e);
                    bucket[ends[at - lo]] = Held {
                        to: e.to,
                        graph: g as u32,
                        kib,
                    };
                    ends[at - lo] += 1;
                }
                *row += 1;
            }
        }
        let mut start = 0;
        for (&from, &end) in sources[lo..hi].iter().zip(&ends) {
            let held = &bucket[start..end];
            start = end;
            index.resize(held.len(), 0);
            table.gap(&mut next_from, u64::from(from.0));
            numbering.number(held, &mut table, &mut records, &mut index);
            // A graph's entries lie together, ascending, in the bucket.
            for (h, &at) in held.iter().zip(&index) {
                let (gaps, next) = &mut picks[h.graph as usize];
                gaps.gap(next, at);
            }
        }
        lo = hi;
    }
    enc.varint(sources.len() as u64);
    enc.raw(&table.into_bytes());
    enc.varint(graphs.len() as u64);
    for (graph, (gaps, _)) in graphs.iter().zip(picks) {
        let entries: usize = graph.rows.iter().map(|row| row.entries().len()).sum();
        enc.varint(entries as u64);
        enc.raw(&gaps.into_bytes());
    }
}

/// Scratch for numbering one source's records.
#[derive(Default)]
struct Numbering {
    /// Per target id of the population: how many entries name it, then
    /// where its group ends. All zero between sources.
    counts: Vec<usize>,
    /// The targets of the population the entries name.
    targets: Vec<usize>,
    /// The places of the entries naming targets past the population.
    strangers: Vec<usize>,
    /// The entries' places, grouped by target, ascending.
    grouped: Vec<usize>,
    /// One target's distinct weights, ascending.
    kibs: Vec<u64>,
}

impl Numbering {
    /// Write the targets and values of one source's entries, `held`, to
    /// the table, numbering its records from `records` on, and set
    /// `index[k]` to the index of entry `k`'s record.
    ///
    /// The entries are grouped by target without sorting them: a target is
    /// a node id, below the population but for a report naming a stranger,
    /// so the population's targets are counted and their entries placed by
    /// the counts; the few strangers' entries are sorted and go last. Then
    /// each target's distinct weights, a handful, are sorted on their own.
    fn number(&mut self, held: &[Held], table: &mut Encoder, records: &mut u64, index: &mut [u64]) {
        self.targets.clear();
        self.strangers.clear();
        for (k, h) in held.iter().enumerate() {
            match self.counts.get_mut(h.to.index()) {
                Some(count) => {
                    if *count == 0 {
                        self.targets.push(h.to.index());
                    }
                    *count += 1;
                }
                None => self.strangers.push(k),
            }
        }
        self.targets.sort_unstable();
        let mut end = 0;
        for &to in &self.targets {
            end += std::mem::replace(&mut self.counts[to], end);
        }
        self.grouped.clear();
        self.grouped.resize(end, 0);
        for (k, h) in held.iter().enumerate() {
            if let Some(at) = self.counts.get_mut(h.to.index()) {
                self.grouped[*at] = k;
                *at += 1;
            }
        }
        for &to in &self.targets {
            self.counts[to] = 0;
        }
        self.strangers.sort_unstable_by_key(|&k| held[k].to);
        self.grouped.extend_from_slice(&self.strangers);
        let same_target = |&a: &usize, &b: &usize| held[a].to == held[b].to;
        let strangers = self.strangers.chunk_by(same_target).count();
        table.varint((self.targets.len() + strangers) as u64);
        let mut next_to = 0;
        for group in self.grouped.chunk_by(same_target) {
            table.gap(&mut next_to, u64::from(held[group[0]].to.0));
            self.kibs.clear();
            self.kibs.extend(group.iter().map(|&k| held[k].kib));
            self.kibs.sort_unstable();
            self.kibs.dedup();
            table.varint(self.kibs.len() as u64);
            let mut previous = None;
            for &kib in &self.kibs {
                table.varint(previous.map_or(kib, |previous: u64| kib - previous - 1));
                previous = Some(kib);
            }
            for &k in group {
                let rank = self.kibs.partition_point(|&kib| kib < held[k].kib);
                index[k] = *records + rank as u64;
            }
            *records += self.kibs.len() as u64;
        }
    }
}

/// Every source of every graph, ascending: each graph's column is a sorted
/// run, and runs are merged pairwise, duplicates dropped, as a binary
/// counter adds.
fn all_sources(graphs: &[SubjectiveGraph]) -> Vec<NodeId> {
    // `runs[k]` holds the sources of 2^k graphs or more; a run is carried
    // into the next once a run of its size joins it.
    let mut runs: Vec<Vec<NodeId>> = Vec::new();
    for (g, graph) in graphs.iter().enumerate() {
        let mut run = graph.sources.clone();
        for _ in 0..(g + 1).trailing_zeros() {
            run = union(&runs.pop().unwrap_or_default(), &run);
        }
        runs.push(run);
    }
    runs.into_iter()
        .reduce(|below, run| union(&below, &run))
        .unwrap_or_default()
}

/// The sorted, duplicate-free union of two sorted, duplicate-free runs.
fn union(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Read back what [`persist_graphs`] wrote, refusing what it never writes.
pub(crate) fn restore_graphs(dec: &mut Decoder<'_>) -> Result<Vec<SubjectiveGraph>, DecodeError> {
    let table = restore_table(dec)?;
    let count = claim(dec, || "graphs".into())?;
    let mut graphs = Vec::with_capacity(count);
    let mut held = vec![false; table.len()];
    let mut picks = Vec::new();
    let mut entries = Vec::new();
    for node in 0..count {
        let len = claim(dec, || format!("entries of the graph of node {node}"))?;
        picks.clear();
        let mut next = 0;
        for _ in 0..len {
            let at = dec.gap(&mut next).map_err(|e| match e {
                DecodeError::Corrupt(_) => {
                    corrupt(format!("the graph of node {node}: index gap overflows u64"))
                }
                e => e,
            })?;
            let at = usize::try_from(at)
                .ok()
                .filter(|&at| at < table.len())
                .ok_or_else(|| {
                    corrupt(format!(
                        "the graph of node {node} holds record {at} of {}",
                        table.len()
                    ))
                })?;
            held[at] = true;
            picks.push(at);
        }
        graphs.push(graph_of(&table, &picks, &mut entries, dec, node)?);
    }
    if let Some(k) = held.iter().position(|&held| !held) {
        let (from, to, kib) = table[k];
        return Err(corrupt(format!(
            "record {k} ({from} -> {to}, {kib} KiB) is in no graph"
        )));
    }
    Ok(graphs)
}

/// The table, ascending by `(from, to, kib)` with no record twice.
fn restore_table(dec: &mut Decoder<'_>) -> Result<Vec<Record>, DecodeError> {
    let sources = claim(dec, || "sources".into())?;
    let mut table = Vec::new();
    let mut next_from = 0;
    for _ in 0..sources {
        let from = NodeId(dec.gap_u32(&mut next_from, "BarterCast: source")?);
        let targets = claim(dec, || format!("targets of {from}"))?;
        if targets == 0 {
            return Err(corrupt(format!("source {from} has no targets")));
        }
        let mut next_to = 0;
        for _ in 0..targets {
            let to = NodeId(dec.gap_u32(&mut next_to, "BarterCast: target")?);
            if to == from {
                return Err(corrupt(format!("self-loop {from} -> {to}")));
            }
            let values = claim(dec, || format!("values of {from} -> {to}"))?;
            if values == 0 {
                return Err(corrupt(format!("{from} -> {to} has no values")));
            }
            let mut kib = dec.varint()?;
            table.push((from, to, kib));
            for _ in 1..values {
                let gap = dec.varint()?;
                kib = kib
                    .checked_add(gap)
                    .and_then(|kib| kib.checked_add(1))
                    .ok_or_else(|| corrupt(format!("the values of {from} -> {to} pass u64")))?;
                table.push((from, to, kib));
            }
        }
    }
    Ok(table)
}

/// The graph holding the records `picks` of `table` — ascending indices,
/// which a graph holding two records of one edge is refused as — built in
/// `entries`' scratch.
///
/// An index can be a single byte, which the decoder's allowance lets pay for
/// 16 bytes of memory: an entry's 8, not a row's 28 or a wide weight's 16.
/// Those are [allotted](Decoder::allot) before anything is built.
fn graph_of(
    table: &[Record],
    picks: &[usize],
    entries: &mut Vec<Edge>,
    dec: &mut Decoder<'_>,
    node: usize,
) -> Result<SubjectiveGraph, DecodeError> {
    let (mut rows, mut wide) = (0usize, 0usize);
    let mut last = None;
    for &at in picks {
        let (from, to, kib) = table[at];
        match last {
            Some((f, t)) if f == from && t == to => {
                return Err(corrupt(format!(
                    "the graph of node {node} holds two records of {from} -> {to}"
                )));
            }
            Some((f, _)) if f == from => {}
            _ => rows += 1,
        }
        last = Some((from, to));
        wide += usize::from(narrow(kib) == WIDE);
    }
    let bytes = rows
        .saturating_mul(size_of::<Row>() + size_of::<NodeId>())
        .saturating_add(wide.saturating_mul(size_of::<Record>()));
    dec.allot(bytes, &format!("BarterCast: the graph of node {node}"))?;
    let mut graph = SubjectiveGraph {
        sources: Vec::with_capacity(rows),
        rows: Vec::with_capacity(rows),
        wide: Vec::with_capacity(wide),
    };
    for row in picks.chunk_by(|&a, &b| table[a].0 == table[b].0) {
        let from = table[row[0]].0;
        entries.clear();
        for &at in row {
            let (_, to, kib) = table[at];
            if narrow(kib) == WIDE {
                graph.wide.push((from, to, kib));
            }
            entries.push(Edge {
                to,
                kib: narrow(kib),
            });
        }
        graph.sources.push(from);
        graph.rows.push(Row::of(entries));
    }
    Ok(graph)
}

/// A count whose every item takes at least a byte, refused when the bytes
/// left cannot hold it — before anything is sized by it.
fn claim(dec: &mut Decoder<'_>, what: impl FnOnce() -> String) -> Result<usize, DecodeError> {
    let n = dec.varint()?;
    match usize::try_from(n) {
        Ok(n) if n <= dec.remaining() => Ok(n),
        _ => Err(corrupt(format!(
            "{n} {} claimed with {} bytes left",
            what(),
            dec.remaining()
        ))),
    }
}

fn corrupt(what: String) -> DecodeError {
    DecodeError::Corrupt(format!("BarterCast: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvs_checkpoint::{ALLOT_FLOOR, ALLOT_PER_BYTE};
    use std::collections::BTreeSet;

    fn encode(graphs: &[SubjectiveGraph]) -> Vec<u8> {
        let mut enc = Encoder::new();
        persist_graphs(graphs, &mut enc);
        enc.into_bytes()
    }

    /// The section spelled number by number, every number a varint.
    fn spell(numbers: &[u64]) -> Vec<u8> {
        let mut enc = Encoder::new();
        numbers.iter().for_each(|&n| enc.varint(n));
        enc.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<Vec<SubjectiveGraph>, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let graphs = restore_graphs(&mut dec)?;
        assert_eq!(dec.remaining(), 0, "the section is read to its end");
        Ok(graphs)
    }

    /// Two records of `n1 → n2`, at 5 and at 9 KiB — a source gap of 1, a
    /// target gap of 2, the values 5 and `9 − 5 − 1` — and two graphs, the
    /// first holding record 0, the second record 1.
    const HONEST: [u64; 12] = [1, 1, 1, 2, 2, 5, 3, 2, 1, 0, 1, 1];

    /// [`HONEST`] with the numbers at `at` replaced by `with`.
    fn honest_but(at: std::ops::Range<usize>, with: &[u64]) -> Vec<u8> {
        let mut numbers = HONEST.to_vec();
        numbers.splice(at, with.iter().copied());
        spell(&numbers)
    }

    fn refused(bytes: &[u8]) -> String {
        match restore(bytes) {
            Err(DecodeError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn the_honest_spelling_restores_and_re_encodes_to_itself() {
        let bytes = spell(&HONEST);
        let graphs = restore(&bytes).expect("honest");
        let (a, b) = (NodeId(1), NodeId(2));
        assert_eq!(graphs[0].edges().collect::<Vec<_>>(), [(a, b, 5)]);
        assert_eq!(graphs[1].edges().collect::<Vec<_>>(), [(a, b, 9)]);
        assert_eq!(encode(&graphs), bytes);
    }

    #[test]
    fn each_distinct_record_is_written_once() {
        let mut graphs = vec![SubjectiveGraph::new(); 6];
        for (k, g) in graphs.iter_mut().enumerate() {
            let id = |n| NodeId(n);
            g.insert_report(id(1), id(1), id(2), if k < 4 { 10 } else { 20 });
            g.insert_report(id(4), id(3), id(4), 7);
            g.insert_report(id(0), id(0), id(5), u64::MAX);
            if k % 2 == 0 {
                g.insert_report(id(5), id(3), id(5), 0);
                // Ids past the population of six: a target, and a source.
                g.insert_report(id(2), id(2), id(6), 1);
            } else {
                g.insert_report(id(9), id(9), id(u32::MAX), 5);
            }
        }
        let bytes = encode(&graphs);
        let mut dec = Decoder::new(&bytes);
        let table = restore_table(&mut dec).expect("the table");
        let distinct: BTreeSet<Record> = graphs.iter().flat_map(|g| g.stored()).collect();
        assert_eq!(table, distinct.into_iter().collect::<Vec<_>>());
        assert_eq!(table.len(), 7, "27 entries, 7 records");
        // What follows the table is the graph count and, per graph, the
        // entry count and one byte an entry.
        assert_eq!(dec.remaining(), 1 + graphs.len() + 27);
        assert_eq!(restore(&bytes).expect("restores"), graphs);
    }

    #[test]
    fn runs_no_graph_writes_are_corrupt() {
        for (bytes, what) in [
            (
                honest_but(2..3, &[0]),
                "BarterCast: source n1 has no targets",
            ),
            (honest_but(4..5, &[0]), "BarterCast: n1 -> n2 has no values"),
            (honest_but(3..4, &[1]), "BarterCast: self-loop n1 -> n1"),
            // 9 − 5 − 1 would be 3: a gap that reaches `u64::MAX` and one
            // past it, which is how a run that does not ascend is spelled.
            (
                honest_but(6..7, &[u64::MAX - 5]),
                "BarterCast: the values of n1 -> n2 pass u64",
            ),
            (
                honest_but(1..2, &[1 << 32]),
                "BarterCast: source id overflows u32",
            ),
            (
                honest_but(3..4, &[1 << 32]),
                "BarterCast: target id overflows u32",
            ),
        ] {
            assert_eq!(refused(&bytes), what);
        }
        // The largest weight there is follows its predecessor.
        let top = restore(&honest_but(6..7, &[u64::MAX - 6])).expect("u64::MAX");
        assert_eq!(top[1].edge_kib(NodeId(1), NodeId(2)), u64::MAX);
    }

    #[test]
    fn graphs_no_population_holds_are_corrupt() {
        for (bytes, what) in [
            (
                honest_but(10..12, &[0]),
                "BarterCast: record 1 (n1 -> n2, 9 KiB) is in no graph",
            ),
            (
                honest_but(8..12, &[2, 0, 0, 0]),
                "BarterCast: the graph of node 0 holds two records of n1 -> n2",
            ),
            (
                honest_but(11..12, &[2]),
                "BarterCast: the graph of node 1 holds record 2 of 2",
            ),
            (
                honest_but(8..10, &[2, 0, u64::MAX]),
                "BarterCast: the graph of node 0: index gap overflows u64",
            ),
        ] {
            assert_eq!(refused(&bytes), what);
        }
    }

    #[test]
    fn counts_past_the_bytes_left_are_corrupt() {
        let huge = 1 << 40;
        for (at, what) in [
            (0, "sources"),
            (2, "targets of n1"),
            (4, "values of n1 -> n2"),
            (7, "graphs"),
            (8, "entries of the graph of node 0"),
        ] {
            let msg = refused(&honest_but(at..at + 1, &[huge]));
            let want = format!("BarterCast: {huge} {what} claimed with ");
            assert!(msg.starts_with(&want), "{msg}");
        }
    }

    #[test]
    fn rows_the_bytes_do_not_pay_for_are_refused_before_they_are_built() {
        // A table of `R` records with distinct sources, n1 … nR → n0 at 0
        // KiB, and `G` graphs that each hold all of them: a one-byte index
        // an entry, and every entry a row of its own.
        let (r, g) = (1_000u64, 1_000u64);
        let mut numbers = vec![r, 1];
        for k in 0..r {
            if k > 0 {
                numbers.push(0);
            }
            numbers.extend([1, 0, 1, 0]);
        }
        numbers.push(g);
        for _ in 0..g {
            numbers.push(r);
            numbers.extend((0..r).map(|_| 0));
        }
        let bytes = spell(&numbers);
        let allowance = ALLOT_FLOOR + ALLOT_PER_BYTE * bytes.len();
        let per_graph = r as usize * (size_of::<Row>() + size_of::<NodeId>());
        assert!(
            per_graph * g as usize > allowance,
            "more rows than the blob pays for"
        );
        let msg = refused(&bytes);
        // The refusal comes at the first graph past the allowance.
        let node = allowance / per_graph;
        let want = format!("BarterCast: the graph of node {node}: {per_graph} bytes to build");
        assert!(msg.starts_with(&want), "{msg}");
        assert!(msg.ends_with("left to allot"), "{msg}");
        // One graph fewer than the allowance holds restores.
        let fewer = {
            let mut numbers = numbers[..numbers.len() - (g as usize) * (r as usize + 1)].to_vec();
            let len = numbers.len();
            numbers[len - 1] = 1;
            numbers.push(r);
            numbers.extend((0..r).map(|_| 0));
            spell(&numbers)
        };
        assert_eq!(restore(&fewer).expect("one graph").len(), 1);
    }
}
