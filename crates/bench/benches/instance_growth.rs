//! Microbenchmark of the core primitives: the `next()` inverted-index query,
//! one `INSgrow` instance-growth step, and a full `supComp` support
//! computation (Algorithms 1 and 2).
//!
//! These are the building blocks whose `O(sup(P) · log L)` cost underlies
//! the complexity analysis of §III-D; the benchmark documents their absolute
//! cost on this machine.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rgs_core::{Pattern, PreparedDb};
use synthgen::QuestConfig;

fn bench_primitives(c: &mut Criterion) {
    let db = QuestConfig {
        num_sequences: 500,
        avg_sequence_length: 50,
        num_events: 100,
        avg_pattern_length: 8,
        num_patterns: 30,
        ..QuestConfig::default()
    }
    .generate();
    let prepared = PreparedDb::new(&db);
    let sc = prepared.support_computer();

    // Pick the three most frequent events to build a realistic pattern.
    let mut events: Vec<_> = db.catalog().ids().collect();
    events.sort_by_key(|&e| std::cmp::Reverse(db.event_occurrences(e)));
    let top: Vec<_> = events.iter().take(3).copied().collect();
    let pattern = Pattern::new(top.clone());

    let mut group = c.benchmark_group("instance_growth");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    group.bench_function("index_next_query", |b| {
        let index = sc.index();
        b.iter(|| {
            let mut total = 0u64;
            for seq in 0..db.num_sequences() {
                if let Some(pos) = index.next(seq, top[0], 5) {
                    total += u64::from(pos);
                }
            }
            total
        });
    });

    group.bench_function("initial_support_set", |b| {
        b.iter(|| sc.initial_support_set(top[0]));
    });

    group.bench_function("insgrow_one_step", |b| {
        let base = sc.initial_support_set(top[0]);
        b.iter(|| sc.instance_growth(&base, top[1]));
    });

    for len in [2usize, 3] {
        group.bench_with_input(
            BenchmarkId::new("supcomp_full_pattern", len),
            &len,
            |b, &len| {
                let p = Pattern::new(top.iter().take(len).copied().collect());
                b.iter(|| sc.support(&p));
            },
        );
    }

    group.bench_function("support_landmark_reconstruction", |b| {
        b.iter(|| sc.support_landmarks(&pattern));
    });

    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
