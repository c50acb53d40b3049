//! The streaming reference interpreter walks statement instances in
//! exactly the order the materializing one did: every `(statement,
//! iterators)` pair, in sequence, on every catalog program at its test
//! size and on generated programs. `execute_reference` is that walk plus
//! one interpreter call per instance, so equal sequences are equal
//! `bit_hash`es.

use wf_benchsuite::catalog;
use wf_polyhedra::Polyhedron;
use wf_runtime::for_each_instance;
use wf_scop::Scop;
use wf_verify::fuzz::gen_case;

/// The order `execute_reference` used before it streamed: every instance
/// as an owned `(key, statement, iterators)` tuple, sorted.
fn materialized_order(scop: &Scop, params: &[i128]) -> Vec<(usize, Vec<i128>)> {
    let maxd = scop.statements.iter().map(|s| s.depth).max().unwrap_or(0);
    let mut instances: Vec<(Vec<i128>, usize, Vec<i128>)> = Vec::new();
    for (s, st) in scop.statements.iter().enumerate() {
        let mut cs = st.domain.clone();
        for (j, &p) in params.iter().enumerate() {
            cs.add_fixed(st.depth + j, p);
        }
        for point in Polyhedron::from(cs).enumerate(10_000_000).unwrap() {
            let iters: Vec<i128> = point[..st.depth].to_vec();
            let mut key = Vec::with_capacity(2 * maxd + 1);
            for level in 0..=maxd {
                key.push(*st.beta.get(level).unwrap_or(&0) as i128);
                if level < maxd {
                    key.push(iters.get(level).copied().unwrap_or(0));
                }
            }
            instances.push((key, s, iters));
        }
    }
    instances.sort();
    instances.into_iter().map(|(_, s, it)| (s, it)).collect()
}

fn assert_same_order(scop: &Scop, params: &[i128]) {
    let want = materialized_order(scop, params);
    assert!(!want.is_empty(), "{}: no instances", scop.name);
    let mut next = 0usize;
    for_each_instance(scop, params, |s, iters| {
        assert!(next < want.len(), "{}: extra instance", scop.name);
        let (ws, wi) = &want[next];
        assert!(
            s == *ws && iters == wi.as_slice(),
            "{}: instance {next} is S{s}{iters:?}, was S{ws}{wi:?}",
            scop.name
        );
        next += 1;
    });
    assert_eq!(next, want.len(), "{}: instances missing", scop.name);
}

#[test]
fn streaming_reference_keeps_the_materialized_order_on_the_catalog() {
    for b in catalog() {
        assert_same_order(&b.scop, &b.test_params);
    }
}

#[test]
fn streaming_reference_keeps_the_materialized_order_on_generated_programs() {
    for seed in 0..50 {
        let case = gen_case(seed);
        assert_same_order(&case.scop, &[case.param_value]);
    }
}
