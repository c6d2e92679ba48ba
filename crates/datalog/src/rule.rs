//! Horn rules.

use std::collections::BTreeSet;
use std::fmt;

use crate::atom::{Atom, Pred};
use crate::substitution::Substitution;
use crate::term::Var;

/// A Horn rule `head :- body₁, …, bodyₙ.`
///
/// A rule with an empty body is a (possibly non-ground) unconditional rule;
/// the paper uses such rules in Example 6.2 (`dist0(x, x) :-`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body atoms (conjunction).
    pub body: Vec<Atom>,
}

impl Rule {
    /// Construct a rule from a head and body.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        Rule { head, body }
    }

    /// A fact-rule with an empty body.
    pub fn fact(head: Atom) -> Self {
        Rule {
            head,
            body: Vec::new(),
        }
    }

    /// The predicate at the head of the rule.
    pub fn head_pred(&self) -> Pred {
        self.head.pred
    }

    /// All distinct variables occurring anywhere in the rule, in first
    /// occurrence order (head first, then body left to right).
    pub fn variables(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for v in self
            .head
            .variables()
            .chain(self.body.iter().flat_map(|a| a.variables()))
        {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// Number of distinct variables occurring in atoms whose predicate
    /// satisfies `is_idb` (head or body).  This is `varnum(r)` from
    /// Section 5.1 when `is_idb` selects the IDB predicates of the program.
    pub fn varnum_idb(&self, is_idb: impl Fn(Pred) -> bool) -> usize {
        let mut seen = BTreeSet::new();
        if is_idb(self.head.pred) {
            seen.extend(self.head.variables());
        }
        for atom in &self.body {
            if is_idb(atom.pred) {
                seen.extend(atom.variables());
            }
        }
        seen.len()
    }

    /// The body atoms whose predicate satisfies `is_idb`, with their
    /// positions in the body.
    pub fn idb_body_atoms<'a>(
        &'a self,
        is_idb: impl Fn(Pred) -> bool + 'a,
    ) -> impl Iterator<Item = (usize, &'a Atom)> + 'a {
        self.body
            .iter()
            .enumerate()
            .filter(move |(_, a)| is_idb(a.pred))
    }

    /// The body atoms whose predicate does *not* satisfy `is_idb` (the EDB
    /// atoms), with their positions in the body.
    pub fn edb_body_atoms<'a>(
        &'a self,
        is_idb: impl Fn(Pred) -> bool + 'a,
    ) -> impl Iterator<Item = (usize, &'a Atom)> + 'a {
        self.body
            .iter()
            .enumerate()
            .filter(move |(_, a)| !is_idb(a.pred))
    }

    /// Apply a substitution to every atom of the rule, producing a rule
    /// *instance* (the ρ of the paper's expansion-tree labels).
    pub fn apply(&self, subst: &Substitution) -> Rule {
        Rule {
            head: subst.apply_atom(&self.head),
            body: self.body.iter().map(|a| subst.apply_atom(a)).collect(),
        }
    }

    /// Rename all variables of the rule with fresh names (used when taking a
    /// "fresh copy of a rule" while unfolding, §2.3).  Returns the renamed
    /// rule together with the renaming used.
    pub fn freshen(&self, prefix: &str) -> (Rule, Substitution) {
        let mut subst = Substitution::new();
        for v in self.variables() {
            subst.bind_var(v, crate::term::Term::Var(Var::fresh(prefix)));
        }
        (self.apply(&subst), subst)
    }

    /// True if every head variable also occurs in the body (range
    /// restriction / safety).  Rules with empty bodies are safe only if the
    /// head is ground — except that the paper's Example 6.2 uses
    /// `dist0(x, x) :-` as "true"; such rules are flagged by
    /// [`crate::validate`], which offers a lenient mode.
    pub fn is_range_restricted(&self) -> bool {
        let body_vars: BTreeSet<Var> = self.body.iter().flat_map(|a| a.variables()).collect();
        self.head.variables().all(|v| body_vars.contains(&v))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if self.body.is_empty() {
            return write!(f, ".");
        }
        write!(f, " :- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ".")
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn tc_rule() -> Rule {
        // p(X, Y) :- e(X, Z), p(Z, Y).
        Rule::new(
            Atom::app("p", ["X", "Y"]),
            vec![Atom::app("e", ["X", "Z"]), Atom::app("p", ["Z", "Y"])],
        )
    }

    #[test]
    fn display_matches_datalog_syntax() {
        assert_eq!(tc_rule().to_string(), "p(X, Y) :- e(X, Z), p(Z, Y).");
        assert_eq!(
            Rule::fact(Atom::app("dist0", ["X", "X"])).to_string(),
            "dist0(X, X)."
        );
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let vars = tc_rule().variables();
        assert_eq!(vars, vec![Var::new("X"), Var::new("Y"), Var::new("Z")]);
    }

    #[test]
    fn varnum_counts_only_idb_variables() {
        let r = tc_rule();
        let is_idb = |p: Pred| p == Pred::new("p");
        // IDB atoms: head p(X, Y) and body p(Z, Y) → variables {X, Y, Z}.
        assert_eq!(r.varnum_idb(is_idb), 3);
        // If nothing is IDB, no variables are counted.
        assert_eq!(r.varnum_idb(|_| false), 0);
    }

    #[test]
    fn idb_and_edb_body_atoms_partition_the_body() {
        let r = tc_rule();
        let is_idb = |p: Pred| p == Pred::new("p");
        let idb: Vec<usize> = r.idb_body_atoms(is_idb).map(|(i, _)| i).collect();
        let edb: Vec<usize> = r.edb_body_atoms(is_idb).map(|(i, _)| i).collect();
        assert_eq!(idb, vec![1]);
        assert_eq!(edb, vec![0]);
    }

    #[test]
    fn apply_substitution_produces_instance() {
        let r = tc_rule();
        let mut s = Substitution::new();
        s.bind_var(Var::new("Z"), Term::Var(Var::new("X")));
        let inst = r.apply(&s);
        assert_eq!(inst.to_string(), "p(X, Y) :- e(X, X), p(X, Y).");
    }

    #[test]
    fn freshen_renames_all_variables_apart() {
        let r = tc_rule();
        let (fresh, _) = r.freshen("u");
        let orig: BTreeSet<Var> = r.variables().into_iter().collect();
        let new: BTreeSet<Var> = fresh.variables().into_iter().collect();
        assert_eq!(new.len(), orig.len());
        assert!(orig.is_disjoint(&new));
    }

    #[test]
    fn range_restriction() {
        assert!(tc_rule().is_range_restricted());
        let unsafe_rule = Rule::new(Atom::app("p", ["X", "Y"]), vec![Atom::app("e", ["X", "X"])]);
        assert!(!unsafe_rule.is_range_restricted());
    }
}
