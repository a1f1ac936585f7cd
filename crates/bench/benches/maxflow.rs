#![allow(missing_docs)] // criterion_group! generates undocumented public items

//! BarterCast contribution queries: 2-hop closed form and general
//! bounded Edmonds–Karp on random subjective graphs of growing size.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rvs_bartercast::maxflow::max_flow_bounded;
use rvs_bartercast::SubjectiveGraph;
use rvs_sim::{DetRng, NodeId};

fn random_graph(nodes: u32, edges: usize, seed: u64) -> SubjectiveGraph {
    let mut rng = DetRng::new(seed);
    let mut g = SubjectiveGraph::new();
    while g.edge_count() < edges {
        let f = rng.below(nodes as u64) as u32;
        let t = rng.below(nodes as u64) as u32;
        if f != t {
            g.insert_report(NodeId(f), NodeId(f), NodeId(t), 1 + rng.below(10_000));
        }
    }
    g
}

fn bench_maxflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxflow");
    for &(nodes, edges) in &[(50u32, 200usize), (100, 1_000), (200, 4_000)] {
        let g = random_graph(nodes, edges, 7);
        group.bench_with_input(
            BenchmarkId::new("two_hop_closed_form", format!("{nodes}n_{edges}e")),
            &g,
            |b, g| {
                b.iter(|| {
                    let mut total = 0u64;
                    for j in 1..20 {
                        total += max_flow_bounded(g, NodeId(j), NodeId(0), 2);
                    }
                    black_box(total)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("three_hop_edmonds_karp", format!("{nodes}n_{edges}e")),
            &g,
            |b, g| {
                b.iter(|| {
                    let mut total = 0u64;
                    for j in 1..20 {
                        total += max_flow_bounded(g, NodeId(j), NodeId(0), 3);
                    }
                    black_box(total)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_maxflow);
criterion_main!(benches);
