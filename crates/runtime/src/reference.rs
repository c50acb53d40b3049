//! The oracle executor: runs a SCoP in **original program order**,
//! independently of the scheduler and code generator, by enumerating every
//! statement instance, sorting by the interleaved `(β0, i1, β1, …)` vector,
//! and interpreting in that order. Transformed executions must reproduce
//! its results bit-for-bit (all schedules are legal reorderings of the same
//! floating-point operations... provided the transformation is indeed
//! legal, which is exactly what the equivalence tests establish).

use crate::data::ProgramData;
use crate::exec::exec_statement;
use wf_polyhedra::Polyhedron;
use wf_scop::Scop;

/// Execute the SCoP in original program order over `data`.
///
/// Intended for correctness oracles at small problem sizes; it sorts the
/// statement instances of a nest (see [`for_each_instance`] for what that
/// costs).
pub fn execute_reference(scop: &Scop, data: &mut ProgramData) {
    let params = data.params.clone();
    let mut none = None;
    for_each_instance(scop, &params, |s, iters| {
        exec_statement(scop, s, iters, data, &mut none);
    });
}

/// Call `visit(statement, iterators)` for every statement instance of
/// `scop` at `params`, in original program order: ascending interleaved
/// `(β0, i1, β1, …, βd)` vector, ties (a shallower statement's zero padding
/// meeting a deeper one's iterator) broken by statement index.
///
/// Statements are taken one top-level nest (`β0` value) at a time, since
/// nests never interleave. A nest's instances are streamed out of each
/// domain into one flat arena of fixed-stride `i32` sort keys, of which a
/// `u32` permutation is sorted: 4 × (2·depth + 2) + 4 bytes an instance of
/// the largest nest, where owned key and iterator vectors for the whole
/// program were several hundred bytes an instance.
///
/// # Panics
/// Panics on an unbounded domain, a nest of more than `u32::MAX` instances,
/// or an iterator value outside `i32` — none of which a reference-sized
/// run has.
pub fn for_each_instance(scop: &Scop, params: &[i128], mut visit: impl FnMut(usize, &[i128])) {
    fn small<T: TryInto<i32>>(x: T) -> i32 {
        let x = x.try_into().ok();
        x.expect("reference iterators, β and statement indices fit i32")
    }
    let maxd = scop.statements.iter().map(|s| s.depth).max().unwrap_or(0);
    // Per instance: i1, β1, …, i_maxd, β_maxd, statement index.
    let stride = 2 * maxd + 1;
    let beta = |s: usize, level: usize| scop.statements[s].beta.get(level).copied().unwrap_or(0);
    let mut nests: Vec<usize> = (0..scop.statements.len()).map(|s| beta(s, 0)).collect();
    nests.sort_unstable();
    nests.dedup();
    let mut keys: Vec<i32> = Vec::new();
    let mut order: Vec<u32> = Vec::new();
    let mut iters = Vec::with_capacity(maxd);
    for nest in nests {
        keys.clear();
        for (s, st) in scop.statements.iter().enumerate() {
            if beta(s, 0) != nest {
                continue;
            }
            let mut cs = st.domain.clone();
            for (j, &p) in params.iter().enumerate() {
                cs.add_fixed(st.depth + j, p);
            }
            Polyhedron::from(cs)
                .for_each_point(u32::MAX as usize, |point| {
                    for level in 0..maxd {
                        let iter = point[..st.depth].get(level).copied().unwrap_or(0);
                        keys.push(small(iter));
                        keys.push(small(beta(s, level + 1)));
                    }
                    keys.push(small(s));
                })
                .expect("reference domains are bounded and small");
        }
        let key = |i: u32| &keys[i as usize * stride..][..stride];
        let n = u32::try_from(keys.len() / stride).expect("a nest has < 2^32 instances");
        order.clear();
        order.extend(0..n);
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        for &i in &order {
            let k = key(i);
            let s = k[stride - 1] as usize;
            iters.clear();
            iters.extend((0..scop.statements[s].depth).map(|level| i128::from(k[2 * level])));
            visit(s, &iters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_scop::{Aff, Expr, ScopBuilder};

    /// for i: A[i] = i; for i: B[i] = A[i] * 2  =>  B[i] == 2 i.
    #[test]
    fn sequential_nests() {
        let mut b = ScopBuilder::new("t", &["N"]);
        b.context_ge(Aff::param(0) - 2);
        let a = b.array("A", &[Aff::param(0)]);
        let bb = b.array("B", &[Aff::param(0)]);
        b.stmt("S0", 1, &[0, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(a, &[Aff::iter(0)])
            .rhs(Expr::Iter(0))
            .done();
        b.stmt("S1", 1, &[1, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(bb, &[Aff::iter(0)])
            .read(a, &[Aff::iter(0)])
            .rhs(Expr::mul(Expr::Load(0), Expr::Const(2.0)))
            .done();
        let scop = b.build();
        let mut d = ProgramData::new(&scop, &[5]);
        execute_reference(&scop, &mut d);
        for i in 0..5 {
            assert_eq!(d.arrays[1].get(&[i]), 2.0 * i as f64);
        }
    }

    /// Interleaving inside one nest: S0 then S1 per iteration.
    /// S0: A[i] = i;  S1: A[i] = A[i] + 1  =>  A[i] == i + 1.
    #[test]
    fn intra_nest_interleaving() {
        let mut b = ScopBuilder::new("t", &["N"]);
        b.context_ge(Aff::param(0) - 2);
        let a = b.array("A", &[Aff::param(0)]);
        b.stmt("S0", 1, &[0, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(a, &[Aff::iter(0)])
            .rhs(Expr::Iter(0))
            .done();
        b.stmt("S1", 1, &[0, 1])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(a, &[Aff::iter(0)])
            .read(a, &[Aff::iter(0)])
            .rhs(Expr::add(Expr::Load(0), Expr::Const(1.0)))
            .done();
        let scop = b.build();
        let mut d = ProgramData::new(&scop, &[4]);
        execute_reference(&scop, &mut d);
        for i in 0..4 {
            assert_eq!(d.arrays[0].get(&[i]), i as f64 + 1.0);
        }
    }

    /// Loop-carried recurrence: A[i] = A[i-1] + 1 with A[0] preset.
    #[test]
    fn carried_recurrence() {
        let mut b = ScopBuilder::new("t", &["N"]);
        b.context_ge(Aff::param(0) - 2);
        let a = b.array("A", &[Aff::param(0)]);
        b.stmt("S0", 1, &[0, 0])
            .bounds(0, Aff::konst(1), Aff::param(0) - 1)
            .write(a, &[Aff::iter(0)])
            .read(a, &[Aff::iter(0) - 1])
            .rhs(Expr::add(Expr::Load(0), Expr::Const(1.0)))
            .done();
        let scop = b.build();
        let mut d = ProgramData::new(&scop, &[6]);
        d.arrays[0].set(&[0], 10.0);
        execute_reference(&scop, &mut d);
        for i in 0..6 {
            assert_eq!(d.arrays[0].get(&[i]), 10.0 + i as f64);
        }
    }
}
