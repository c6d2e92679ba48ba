//! Conjunctive queries (Section 2.1 of the paper).
//!
//! A conjunctive query is a positive existential conjunctive first-order
//! formula `θ(x1, …, xk) = ∃y1 … ym (a1 ∧ … ∧ an)`.  We represent it in the
//! usual rule form: a head atom listing the distinguished (free) variables
//! and a body of atoms; body variables not in the head are existentially
//! quantified.

use std::collections::BTreeSet;
use std::fmt;

use datalog::atom::{Atom, Pred};
use datalog::rule::Rule;
use datalog::substitution::Substitution;
use datalog::term::{Term, Var};

/// A conjunctive query in rule form.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConjunctiveQuery {
    /// The head atom.  Its predicate is the query's name; its terms are the
    /// distinguished variables (or constants).
    pub head: Atom,
    /// The body atoms.
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Build a conjunctive query from a head and a body.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        ConjunctiveQuery { head, body }
    }

    /// View a Datalog rule as a conjunctive query (the rule body becomes the
    /// query body).  This is how nonrecursive-program expansions and
    /// Datalog-program expansions are turned into queries.
    pub fn from_rule(rule: &Rule) -> Self {
        ConjunctiveQuery {
            head: rule.head.clone(),
            body: rule.body.clone(),
        }
    }

    /// View the query as a Datalog rule.
    pub fn to_rule(&self) -> Rule {
        Rule::new(self.head.clone(), self.body.clone())
    }

    /// Parse a conjunctive query written as a rule, e.g.
    /// `q(X, Z) :- e(X, Y), e(Y, Z).`
    pub fn parse(input: &str) -> Result<Self, datalog::error::ParseError> {
        Ok(Self::from_rule(&datalog::parser::parse_rule(input)?))
    }

    /// The query's name (head predicate).
    pub fn name(&self) -> Pred {
        self.head.pred
    }

    /// The arity of the query (number of distinguished positions).
    pub fn arity(&self) -> usize {
        self.head.arity()
    }

    /// Is this a Boolean query (no distinguished variables)?
    pub fn is_boolean(&self) -> bool {
        self.head.arity() == 0
    }

    /// The distinguished variables, in head order, without duplicates.
    pub fn distinguished_variables(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        self.head.variables().filter(|v| seen.insert(*v)).collect()
    }

    /// The existential variables: body variables that are not distinguished.
    pub fn existential_variables(&self) -> Vec<Var> {
        let distinguished: BTreeSet<Var> = self.head.variables().collect();
        let mut seen = BTreeSet::new();
        self.body
            .iter()
            .flat_map(|a| a.variables())
            .filter(|v| !distinguished.contains(v) && seen.insert(*v))
            .collect()
    }

    /// All distinct variables of the query.
    pub fn variables(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        self.head
            .variables()
            .chain(self.body.iter().flat_map(|a| a.variables()))
            .filter(|v| seen.insert(*v))
            .collect()
    }

    /// Number of body atoms.
    pub fn body_size(&self) -> usize {
        self.body.len()
    }

    /// Total number of term positions (head + body) — the size measure used
    /// when reporting the unfolding blowup of Examples 6.1 and 6.6.
    pub fn size(&self) -> usize {
        self.head.arity() + self.body.iter().map(|a| a.arity()).sum::<usize>()
    }

    /// Apply a substitution to head and body.
    pub fn apply(&self, subst: &Substitution) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: subst.apply_atom(&self.head),
            body: self.body.iter().map(|a| subst.apply_atom(a)).collect(),
        }
    }

    /// Rename every variable to a fresh one, returning the renamed query.
    /// Used to make two queries variable-disjoint before combining them.
    pub fn rename_apart(&self, prefix: &str) -> ConjunctiveQuery {
        let mut subst = Substitution::new();
        for v in self.variables() {
            subst.bind_var(v, Term::Var(Var::fresh(prefix)));
        }
        self.apply(&subst)
    }

    /// Canonicalise the variable names: distinguished variables become
    /// `x1, x2, …` (in head-position order) and existential variables become
    /// `y1, y2, …` (in first-occurrence order), then the body is sorted.
    /// Two queries that are equal up to variable renaming canonicalise to
    /// syntactically equal queries, which is how the unfolder deduplicates
    /// expansions and how the decision-cache keys identify variants.
    ///
    /// This is **idempotent**: `q.canonicalize_names().canonicalize_names()
    /// == q.canonicalize_names()`.  A single rename-then-sort pass is not
    /// (sorting can change the first-occurrence order the renaming keyed
    /// on), so the pass is iterated until the query stops changing.  Should
    /// the pass ever cycle instead of converging, the lexicographically
    /// smallest member of the cycle is returned — also a fixpoint of the
    /// whole procedure, since re-canonicalising any cycle member walks the
    /// same cycle and picks the same minimum.
    pub fn canonicalize_names(&self) -> ConjunctiveQuery {
        let mut seen: Vec<ConjunctiveQuery> = Vec::new();
        let mut current = self.canonical_pass();
        loop {
            let next = current.canonical_pass();
            if next == current {
                return current;
            }
            if let Some(i) = seen.iter().position(|q| *q == next) {
                // `seen[i..]` plus `current` is one full lap of the cycle.
                let mut cycle = seen.split_off(i);
                cycle.push(current);
                return cycle.into_iter().min().expect("cycle is non-empty");
            }
            seen.push(current);
            current = next;
        }
    }

    /// One rename-then-sort pass of [`canonicalize_names`].
    fn canonical_pass(&self) -> ConjunctiveQuery {
        let mut subst = Substitution::new();
        let mut next_head = 0usize;
        for v in self.head.variables() {
            if subst.get(v).is_none() {
                next_head += 1;
                subst.bind_var(v, Term::Var(Var::new(&format!("x{next_head}"))));
            }
        }
        let mut next_body = 0usize;
        for v in self.body.iter().flat_map(|a| a.variables()) {
            if subst.get(v).is_none() {
                next_body += 1;
                subst.bind_var(v, Term::Var(Var::new(&format!("y{next_body}"))));
            }
        }
        let mut out = self.apply(&subst);
        out.body.sort();
        out
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_rule())
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path2() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("q(X, Z) :- e(X, Y), e(Y, Z).").unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        let q = path2();
        assert_eq!(q.to_string(), "q(X, Z) :- e(X, Y), e(Y, Z).");
        assert_eq!(ConjunctiveQuery::parse(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn distinguished_and_existential_variables() {
        let q = path2();
        assert_eq!(
            q.distinguished_variables(),
            vec![Var::new("X"), Var::new("Z")]
        );
        assert_eq!(q.existential_variables(), vec![Var::new("Y")]);
        assert_eq!(q.variables().len(), 3);
        assert!(!q.is_boolean());
        assert_eq!(q.arity(), 2);
    }

    #[test]
    fn boolean_query_has_no_distinguished_variables() {
        let q = ConjunctiveQuery::parse("q :- e(X, Y).").unwrap();
        assert!(q.is_boolean());
        assert!(q.distinguished_variables().is_empty());
        assert_eq!(q.existential_variables().len(), 2);
    }

    #[test]
    fn size_counts_term_positions() {
        let q = path2();
        assert_eq!(q.size(), 2 + 2 + 2);
        assert_eq!(q.body_size(), 2);
    }

    #[test]
    fn rename_apart_gives_disjoint_variables() {
        let q = path2();
        let r = q.rename_apart("v");
        let qv: BTreeSet<Var> = q.variables().into_iter().collect();
        let rv: BTreeSet<Var> = r.variables().into_iter().collect();
        assert!(qv.is_disjoint(&rv));
        assert_eq!(r.body_size(), q.body_size());
    }

    #[test]
    fn canonicalize_names_identifies_renamings() {
        let q1 = ConjunctiveQuery::parse("q(A, B) :- e(A, M), e(M, B).").unwrap();
        let q2 = path2();
        assert_ne!(q1, q2);
        assert_eq!(q1.canonicalize_names(), q2.canonicalize_names());
    }

    #[test]
    fn canonicalize_is_stable_under_body_reordering() {
        let q1 = ConjunctiveQuery::parse("q(X) :- e(X, Y), f(Y).").unwrap();
        let q2 = ConjunctiveQuery::parse("q(X) :- f(Y), e(X, Y).").unwrap();
        assert_eq!(q1.canonicalize_names(), q2.canonicalize_names());
    }

    #[test]
    fn canonicalize_is_idempotent_on_the_former_counterexample() {
        // Before the fixpoint iteration, one pass renamed the existentials
        // in body order and then sorted, which could leave a body whose
        // first-occurrence order disagreed with the names just assigned —
        // so a second canonicalisation produced a different query and the
        // snapshot decoder could not re-canonicalise persisted keys.  Atom
        // order follows interner ids, so test the swap in both directions;
        // whichever way `a`/`b` interned, one of these exercises the wart.
        for text in ["q :- b(Y), a(X).", "q :- a(Y), b(X)."] {
            let q = ConjunctiveQuery::parse(text).unwrap();
            let once = q.canonicalize_names();
            // The result is a true fixpoint of the rename-then-sort pass,
            // hence idempotent under full canonicalisation too.
            assert_eq!(once.canonical_pass(), once, "not a pass fixpoint: {text}");
            assert_eq!(once.canonicalize_names(), once, "not idempotent: {text}");
        }
    }

    #[test]
    fn canonicalize_is_idempotent_on_generated_queries() {
        let config = crate::generate::RandomCqConfig {
            body_atoms: 4,
            variables: 5,
            distinguished: 2,
            predicates: vec!["a".into(), "b".into(), "c".into()],
        };
        for seed in 0..200u64 {
            let q = crate::generate::random_cq(&config, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let once = q.canonicalize_names();
            let twice = once.canonicalize_names();
            assert_eq!(
                once, twice,
                "seed {seed}: {q} canonicalised to {once}, then {twice}"
            );
        }
    }

    #[test]
    fn canonicalize_identifies_variants_the_single_pass_missed() {
        // Alpha-variants whose body orders drive the first-occurrence
        // renaming apart: one pass canonicalises them differently, the
        // fixpoint iteration brings them back together.
        let q1 = ConjunctiveQuery::parse("q :- b(X), a(Y, X).").unwrap();
        let q2 = ConjunctiveQuery::parse("q :- a(Y, X), b(X).").unwrap();
        assert_eq!(q1.canonicalize_names(), q2.canonicalize_names());
    }

    #[test]
    fn from_rule_and_to_rule_are_inverse() {
        let rule = datalog::parser::parse_rule("q(X) :- e(X, Y).").unwrap();
        assert_eq!(ConjunctiveQuery::from_rule(&rule).to_rule(), rule);
    }

    #[test]
    fn repeated_head_variables_are_reported_once() {
        let q = ConjunctiveQuery::parse("q(X, X) :- e(X, Y).").unwrap();
        assert_eq!(q.distinguished_variables(), vec![Var::new("X")]);
    }
}
