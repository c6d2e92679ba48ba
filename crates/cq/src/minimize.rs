//! Minimisation of conjunctive queries (computing cores).
//!
//! A conjunctive query is *minimal* if no body atom can be removed without
//! changing its meaning.  Every CQ is equivalent to a unique minimal CQ (its
//! core, up to renaming).  Minimisation is not needed for the paper's
//! decision procedures, but it is the standard optimisation companion to
//! containment and keeps the UCQ representations produced by unfolding
//! small, so the library ships it.

use crate::containment::cq_equivalent;
use crate::cq::ConjunctiveQuery;
use crate::ucq::Ucq;

/// Compute a minimal conjunctive query equivalent to `query` by greedily
/// removing redundant body atoms.
///
/// The result is the core of the query: removing any further atom would
/// change its meaning.
pub fn minimize_cq(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    minimize_cq_with(query, &mut |a, b| cq_equivalent(a, b))
}

/// As [`minimize_cq`], but deciding equivalence through a caller-supplied
/// oracle (`oracle(a, b)` must answer "is `a` equivalent to `b`?").  The
/// optimisation passes of `nonrec-equivalence` pass a memoising oracle here
/// so repeated minimisations of structurally equal bodies are free.
pub fn minimize_cq_with(
    query: &ConjunctiveQuery,
    oracle: &mut dyn FnMut(&ConjunctiveQuery, &ConjunctiveQuery) -> bool,
) -> ConjunctiveQuery {
    let mut current = query.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..current.body.len() {
            if current.body.len() == 1 {
                break;
            }
            let mut candidate = current.clone();
            candidate.body.remove(i);
            // Removing atoms can only make the query weaker-or-equal
            // (larger answer set); it stays equivalent iff the smaller query
            // is still contained in the original.
            if oracle(&candidate, &current) {
                current = candidate;
                changed = true;
                break;
            }
        }
    }
    current
}

/// Minimise a union of conjunctive queries: minimise every disjunct, then
/// drop disjuncts that are contained in another disjunct.
pub fn minimize_ucq(ucq: &Ucq) -> Ucq {
    minimize_ucq_with(ucq, &mut crate::containment::cq_contained_in)
}

/// As [`minimize_ucq`], but deciding containment through a caller-supplied
/// oracle (`contained(a, b)` must answer "is `a` contained in `b`?");
/// equivalence, for the per-disjunct cores, is containment both ways.  The
/// server's `minimize` verb passes a counting, cache-backed oracle here.
pub fn minimize_ucq_with(
    ucq: &Ucq,
    contained: &mut dyn FnMut(&ConjunctiveQuery, &ConjunctiveQuery) -> bool,
) -> Ucq {
    let minimized: Vec<ConjunctiveQuery> = ucq
        .disjuncts
        .iter()
        .map(|d| minimize_cq_with(d, &mut |a, b| contained(a, b) && contained(b, a)))
        .collect();
    let mut keep: Vec<bool> = vec![true; minimized.len()];
    for i in 0..minimized.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..minimized.len() {
            if i == j || !keep[j] {
                continue;
            }
            // Drop disjunct i if it is contained in a (still kept) disjunct
            // j.  Break equivalence ties by index so exactly one survives.
            if contained(&minimized[i], &minimized[j]) {
                let equivalent = contained(&minimized[j], &minimized[i]);
                if !equivalent || j < i {
                    keep[i] = false;
                    break;
                }
            }
        }
    }
    Ucq::new(
        minimized
            .into_iter()
            .zip(keep)
            .filter_map(|(q, k)| k.then_some(q))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{cq_equivalent, ucq_equivalent};

    fn cq(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn redundant_atom_is_removed() {
        let q = cq("q(X, Y) :- e(X, Y), e(X, Z).");
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 1);
        assert!(cq_equivalent(&q, &m));
    }

    #[test]
    fn minimal_query_is_unchanged() {
        let q = cq("q(X, Z) :- e(X, Y), e(Y, Z).");
        assert_eq!(minimize_cq(&q).body.len(), 2);
    }

    #[test]
    fn boolean_path_query_collapses_onto_shortest() {
        // Boolean: ∃ a path of length 2 where the middle also has a self
        // loop shortcut — e(X,Y),e(Y,Y) minimises to ... stays 2 atoms; but
        // e(X,Y),e(Y,Z),e(Y,W) drops the duplicate out-edge.
        let q = cq("q :- e(X, Y), e(Y, Z), e(Y, W).");
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 2);
        assert!(cq_equivalent(&q, &m));
    }

    #[test]
    fn core_of_foldable_cycle() {
        // A Boolean 2-cycle plus a self-loop atom e(X,X): the core is the
        // self-loop alone? No — e(X,Y),e(Y,X),e(Z,Z): the self-loop absorbs
        // the 2-cycle (map X,Y ↦ Z).
        let q = cq("q :- e(X, Y), e(Y, X), e(Z, Z).");
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 1);
        assert!(cq_equivalent(&q, &m));
    }

    #[test]
    fn distinguished_variables_prevent_folding() {
        let q = cq("q(X, Y) :- e(X, Y), e(Y, X), e(Z, Z).");
        let m = minimize_cq(&q);
        // e(Z,Z) is redundant (fold Z onto the X-Y cycle? no: Z maps to X
        // only if e(X,X) present — it isn't; but e(Z,Z) maps into e(X,Y),
        // e(Y,X)? needs Z↦X and Z↦Y simultaneously — impossible).  The
        // 2-cycle endpoints are distinguished so nothing folds: the core
        // keeps all three atoms except e(Z,Z) cannot be dropped either
        // (dropping it gives a strictly larger query? no — dropping an atom
        // enlarges answers only if it constrained something; e(Z,Z) requires
        // a self-loop to exist somewhere, so it does constrain).  Core = 3.
        assert_eq!(m.body.len(), 3);
        assert!(cq_equivalent(&q, &m));
    }

    #[test]
    fn minimize_ucq_drops_subsumed_disjuncts() {
        // Boolean: "∃ edge" subsumes "∃ 2-path".
        let u = Ucq::parse("q :- e(X, Y).\nq :- e(X, Y), e(Y, Z).").unwrap();
        let m = minimize_ucq(&u);
        assert_eq!(m.len(), 1);
        assert!(ucq_equivalent(&u, &m));
        assert_eq!(m.disjuncts[0].body.len(), 1);
    }

    #[test]
    fn minimize_ucq_keeps_incomparable_disjuncts() {
        let u = Ucq::parse("q(X) :- e(X, Y).\nq(X) :- f(X, Y).").unwrap();
        assert_eq!(minimize_ucq(&u).len(), 2);
    }

    #[test]
    fn minimize_ucq_deduplicates_equivalent_disjuncts() {
        let u = Ucq::parse("q(X) :- e(X, Y).\nq(A) :- e(A, B), e(A, C).").unwrap();
        let m = minimize_ucq(&u);
        assert_eq!(m.len(), 1);
        assert!(ucq_equivalent(&u, &m));
    }
}
