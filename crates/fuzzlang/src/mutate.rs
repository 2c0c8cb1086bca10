//! Mutation operators over programs ("historical payload mutation",
//! §IV-C).

use crate::desc::DescTable;
use crate::gen::{append_call, gen_value, random_desc};
use crate::prog::Prog;
use rand::seq::SliceRandom;
use rand::Rng;

/// The mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Append a fresh random call (with producers).
    InsertCall,
    /// Insert a fresh random call (with its producers) at a random
    /// position — lets seeds grow state-building prefixes *before* their
    /// payoff calls.
    InsertCallAt,
    /// Remove a random call (cascading dependents).
    RemoveCall,
    /// Regenerate one non-resource argument of one call.
    MutateArg,
    /// Duplicate a call (re-pointing nothing; refs stay valid because the
    /// copy lands at the end).
    DuplicateCall,
}

impl MutationOp {
    /// All operators.
    pub fn all() -> &'static [MutationOp] {
        &[
            MutationOp::InsertCall,
            MutationOp::InsertCallAt,
            MutationOp::InsertCallAt,
            MutationOp::RemoveCall,
            MutationOp::MutateArg,
            MutationOp::DuplicateCall,
        ]
    }
}

/// Applies one random mutation. Returns the operator applied, or `None`
/// if the chosen operator was inapplicable (e.g. removing from an empty
/// program); the program is left valid either way.
pub fn mutate<R: Rng>(prog: &mut Prog, table: &DescTable, rng: &mut R) -> Option<MutationOp> {
    let &op = MutationOp::all().choose(rng).expect("non-empty");
    let applied = match op {
        MutationOp::InsertCall => {
            let id = random_desc(table, rng)?;
            append_call(prog, table, id, rng).is_some()
        }
        MutationOp::InsertCallAt => {
            let id = random_desc(table, rng)?;
            let mut sub = Prog::new();
            if append_call(&mut sub, table, id, rng).is_none() {
                false
            } else {
                let at = rng.gen_range(0..=prog.len());
                prog.insert_at(at, &sub);
                true
            }
        }
        MutationOp::RemoveCall => {
            if prog.is_empty() {
                false
            } else {
                let idx = rng.gen_range(0..prog.len());
                prog.remove_call(idx) > 0
            }
        }
        MutationOp::MutateArg => {
            let count = value_slots(prog, table).count();
            if count == 0 {
                false
            } else {
                let k = rng.gen_range(0..count);
                let (ci, ai) = value_slots(prog, table).nth(k).expect("k < count");
                let ty = &table.get(prog.calls[ci].desc).args[ai].ty;
                prog.calls[ci].args[ai] = gen_value(ty, rng);
                true
            }
        }
        MutationOp::DuplicateCall => {
            if prog.is_empty() {
                false
            } else {
                let idx = rng.gen_range(0..prog.len());
                let call = prog.calls[idx].clone();
                prog.calls.push(call);
                true
            }
        }
    };
    applied.then_some(op)
}

/// Every `(call, arg)` slot of `prog` holding a non-resource value.
fn value_slots<'a>(
    prog: &'a Prog,
    table: &'a DescTable,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    prog.calls.iter().enumerate().flat_map(move |(ci, call)| {
        let args = table.get(call.desc).args.iter().enumerate();
        args.filter(|(_, a)| !a.ty.is_resource()).map(move |(ai, _)| (ci, ai))
    })
}

/// Applies `n` mutations (best effort).
pub fn mutate_n<R: Rng>(prog: &mut Prog, table: &DescTable, n: usize, rng: &mut R) {
    for _ in 0..n {
        let _ = mutate(prog, table, rng);
    }
}

/// Crossover: a copy of `a` with a random suffix of `b` spliced on.
pub fn crossover<R: Rng>(a: &Prog, b: &Prog, rng: &mut R) -> Prog {
    let mut out = a.clone();
    if b.is_empty() {
        return out;
    }
    // Splice the whole of b to keep refs valid, then trim leaf calls at
    // random to approximate a suffix crossover.
    out.splice(b);
    let trims = rng.gen_range(0..=b.len() / 2);
    for _ in 0..trims {
        let leaves = out.unreferenced();
        if let Some(&idx) = leaves.choose(rng) {
            out.remove_call(idx);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{ArgDesc, CallDesc, CallKind, SyscallTemplate};
    use crate::types::TypeDesc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> DescTable {
        let mut t = DescTable::new();
        t.add(CallDesc::syscall_open("/dev/x"));
        t.add(CallDesc::syscall_close());
        t.add(CallDesc::new(
            "ioctl$X",
            CallKind::Syscall(SyscallTemplate::Ioctl { request: 7 }),
            vec![
                ArgDesc::new("fd", TypeDesc::Resource { kind: "fd:/dev/x".into() }),
                ArgDesc::new("mode", TypeDesc::Choice { values: vec![2, 4, 8] }),
            ],
            None,
        ));
        t
    }

    #[test]
    fn mutations_preserve_validity() {
        let t = table();
        let mut rng = StdRng::seed_from_u64(11);
        let mut prog = crate::gen::generate(&t, 6, &mut rng);
        for i in 0..500 {
            mutate(&mut prog, &t, &mut rng);
            assert_eq!(prog.validate(&t), Ok(()), "after mutation {i}");
        }
    }

    #[test]
    fn crossover_preserves_validity() {
        let t = table();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let a = crate::gen::generate(&t, 5, &mut rng);
            let b = crate::gen::generate(&t, 5, &mut rng);
            let c = crossover(&a, &b, &mut rng);
            assert_eq!(c.validate(&t), Ok(()));
            assert!(c.len() >= a.len());
        }
    }

    #[test]
    fn mutate_arg_changes_only_non_resource_args() {
        let t = table();
        let mut rng = StdRng::seed_from_u64(13);
        let mut prog = Prog::new();
        let ioctl = t.id_of("ioctl$X").unwrap();
        append_call(&mut prog, &t, ioctl, &mut rng).unwrap();
        for _ in 0..200 {
            mutate_n(&mut prog, &t, 1, &mut rng);
            assert_eq!(prog.validate(&t), Ok(()));
        }
    }
}
