//! The Section 6 lower-bound encoding: from a space-bounded Turing machine
//! `M` and a parameter `n` to a *linear recursive* Datalog program Π and a
//! **nonrecursive** comparator program Π′ (over the same EDB vocabulary and
//! the same 0-ary goal `c`) such that `Π ⊆ Π′` iff `M` does not accept
//! within space `2^(2^n)` — the reduction behind the 2EXPSPACE/3EXPTIME
//! hardness of Theorems 6.4 and 6.5.
//!
//! Differences from the Section 5.3 encoding ([`crate::encode`]):
//!
//! * Π uses a *single* ternary IDB predicate `bit` instead of `n` predicates
//!   `Bit_1 … Bit_n`; the per-point information (address vs. symbol point,
//!   address bit, carry bit, tape symbol) is pushed into unary EDB
//!   predicates `address`, `symbol`, `zero`, `one`, `carry0`, `carry1`,
//!   `sym_<a>` attached to the chain of points linked by the binary EDB
//!   predicate `e`.
//! * The error detector is not a union of conjunctive queries but a
//!   nonrecursive program Π′ whose succinct `dist`/`equal` sub-programs
//!   (Examples 6.1–6.3) address points that are up to `2^n + 1` apart while
//!   keeping each rule of size `O(n)`.  Unfolding Π′ into a UCQ would blow
//!   up exponentially — that blowup is exactly the gap between Theorem 5.15
//!   and Theorem 6.4.
//!
//! Scope notes (recorded in DESIGN.md):
//!
//! * As in the Section 5.3 module we generate the deterministic variant (the
//!   2EXPSPACE-hardness track for linear programs); the alternating
//!   extension is provided for the Section 5.3 encoding by
//!   [`crate::encode_alt`].
//! * The paper sketches only representative error rules ("for example, …").
//!   We complete the sketch; the two completions that are not literal
//!   transcriptions are documented on [`build_comparator`]:
//!   the generalised configuration-change rule (the paper's printed rule
//!   only anchors the first address bit) and the "no change at address
//!   1…1" rule (the paper states the error type but prints no rule).
//! * The gadget sub-programs use *safe* (range-restricted) variants of
//!   Examples 6.1–6.2: `dx_i` is "distance exactly `2^i`" and `dlt_i` is
//!   "distance in `[1, 2^i − 1]`" (the paper's `dist<_i` also admits
//!   distance 0 via an unsafe fact rule, which our bottom-up evaluator
//!   rejects); rules that need the distance-0 or distance-1 cases carry an
//!   explicit extra rule instead.
//!
//! As with the Section 5.3 gadgets, pushing a generated instance through
//! the full containment decision is infeasible by design.  The tests
//! validate the reduction on *trace databases*
//! ([`trace_database_nonrec`]): Π derives the goal on the encoding of an
//! accepting computation, the comparator Π′ stays silent on a legal
//! computation and fires on every corrupted one.

use datalog::atom::{Atom, Fact, Pred};
use datalog::database::Database;
use datalog::generate::equal_program;
use datalog::program::Program;
use datalog::rule::Rule;
use datalog::term::{Constant, Term, Var};

use crate::encode::{allowed_successors, alphabet, composite, goal};
use crate::tm::{Configuration, TuringMachine};

/// A generated Section 6 lower-bound instance.
pub struct NonrecEncoding {
    /// The linear recursive program Π with 0-ary goal `c`.
    pub program: Program,
    /// The nonrecursive comparator program Π′ with the same goal `c`.
    pub comparator: Program,
    /// The address width `n` (each tape cell is addressed by `2^n` bits).
    pub n: usize,
}

impl NonrecEncoding {
    /// The number of cells per configuration encoded by this instance
    /// (`2^(2^n)` in the paper; our validation instances use the same
    /// formula with tiny `n`).
    pub fn cells_per_configuration(&self) -> usize {
        1usize << (1usize << self.n)
    }
}

fn v(name: &str) -> Term {
    Term::Var(Var::new(name))
}

fn sym_pred(symbol: &str) -> Pred {
    Pred::new(&format!("sym_{symbol}"))
}

fn dx_pred(i: usize) -> Pred {
    Pred::new(&format!("dx{i}"))
}

fn dlt_pred(i: usize) -> Pred {
    Pred::new(&format!("dlt{i}"))
}

fn equal_pred(i: usize) -> Pred {
    Pred::new(&format!("equal{i}"))
}

/// Generate the Section 6 encoding for machine `tm` with address width
/// `n ≥ 1` (so each cell is addressed by `2^n ≥ 2` bits).
pub fn encode_machine_nonrec(tm: &TuringMachine, n: usize) -> NonrecEncoding {
    assert!(n >= 1, "address width parameter must be at least 1");
    NonrecEncoding {
        program: build_program(tm),
        comparator: build_comparator(tm, n),
        n,
    }
}

// ---------------------------------------------------------------------------
// The recursive program Π.
// ---------------------------------------------------------------------------

/// The recursive program Π of Section 6.  Its expansions walk a chain of
/// points: blocks of address points (each carrying one address bit and one
/// carry bit) followed by a symbol point carrying a tape symbol;
/// configuration identity is threaded through the last two arguments of the
/// EDB predicate `a` and of the IDB predicate `bit`.
///
/// The program does not depend on `n`: the comparator is responsible for
/// filtering out expansions whose blocks do not have exactly `2^n` address
/// points.
pub fn build_program(tm: &TuringMachine) -> Program {
    let mut rules = Vec::new();
    let bit = |z: &str, u: &str, w: &str| Atom::app("bit", [z, u, w]);
    let a = |z: &str, u: &str, w: &str| Atom::app("a", [z, u, w]);

    // Address rules: one per (address-bit, carry-bit) combination.
    for addr in ["zero", "one"] {
        for carry in ["carry0", "carry1"] {
            rules.push(Rule::new(
                bit("Z", "U", "V"),
                vec![
                    bit("Zn", "U", "V"),
                    a("Z", "U", "V"),
                    Atom::app("address", ["Z"]),
                    Atom::app("e", ["Z", "Zn"]),
                    Atom::app(addr, ["Z"]),
                    Atom::app(carry, ["Z"]),
                ],
            ));
        }
    }

    // Symbol rules: attach the cell's tape symbol and stay inside the
    // configuration.
    let accepting: Vec<String> = tm
        .accepting
        .iter()
        .flat_map(|state| tm.symbols.iter().map(move |s| composite(state, s)))
        .collect();
    for symbol in alphabet(tm) {
        rules.push(Rule::new(
            bit("Z", "U", "V"),
            vec![
                bit("Zn", "U", "V"),
                a("Z", "U", "V"),
                Atom::app("e", ["Z", "Zn"]),
                Atom::app("symbol", ["Z"]),
                Atom::new(sym_pred(&symbol), vec![v("Z")]),
            ],
        ));
        // Configuration-transition rules: the configuration identifier `u`
        // migrates into the third position of the recursive atom.
        rules.push(Rule::new(
            bit("Z", "U", "V"),
            vec![
                bit("Zn", "Un", "U"),
                a("Z", "U", "V"),
                Atom::app("e", ["Z", "Zn"]),
                Atom::app("symbol", ["Z"]),
                Atom::new(sym_pred(&symbol), vec![v("Z")]),
            ],
        ));
        // End-of-computation rules for accepting composite symbols.
        if accepting.contains(&symbol) {
            rules.push(Rule::new(
                bit("Z", "U", "V"),
                vec![
                    a("Z", "U", "V"),
                    Atom::app("symbol", ["Z"]),
                    Atom::new(sym_pred(&symbol), vec![v("Z")]),
                ],
            ));
        }
    }

    // Start rule: the first point is an address point with address bit 0 and
    // carry bit 1.
    rules.push(Rule::new(
        Atom::new(goal(), vec![]),
        vec![
            Atom::app("start", ["Z"]),
            bit("Z", "U", "V"),
            a("Z", "U", "V"),
            Atom::app("address", ["Z"]),
            Atom::app("zero", ["Z"]),
            Atom::app("carry1", ["Z"]),
        ],
    ));

    Program::new(rules)
}

// ---------------------------------------------------------------------------
// The gadget sub-programs (safe variants of Examples 6.1 and 6.2).
// ---------------------------------------------------------------------------

/// Rules for `dx_0 … dx_n`: `dx_i(x, y)` holds iff there is an `e`-path of
/// length exactly `2^i` from `x` to `y` (Example 6.1 over the point chain).
fn exact_distance_rules(n: usize) -> Vec<Rule> {
    let mut rules = vec![Rule::new(
        Atom::new(dx_pred(0), vec![v("X"), v("Y")]),
        vec![Atom::app("e", ["X", "Y"])],
    )];
    for i in 1..=n {
        rules.push(Rule::new(
            Atom::new(dx_pred(i), vec![v("X"), v("Y")]),
            vec![
                Atom::new(dx_pred(i - 1), vec![v("X"), v("Z")]),
                Atom::new(dx_pred(i - 1), vec![v("Z"), v("Y")]),
            ],
        ));
    }
    rules
}

/// Rules for `dlt_1 … dlt_n`: `dlt_i(x, y)` holds iff there is an `e`-path
/// of length in `[1, 2^i − 1]` from `x` to `y`.  This is the
/// range-restricted replacement for Example 6.2's `dist<_i` (which also
/// allows length 0 through an unsafe fact rule); callers that need the
/// length-0 or length-1 corner case add an explicit rule instead.
fn bounded_distance_rules(n: usize) -> Vec<Rule> {
    let mut rules = vec![Rule::new(
        Atom::new(dlt_pred(1), vec![v("X"), v("Y")]),
        vec![Atom::app("e", ["X", "Y"])],
    )];
    for i in 2..=n {
        // [1, 2^i − 1] = [1, 2^{i−1} − 1]  ∪  {2^{i−1}}  ∪  2^{i−1} + [1, 2^{i−1} − 1].
        rules.push(Rule::new(
            Atom::new(dlt_pred(i), vec![v("X"), v("Y")]),
            vec![Atom::new(dlt_pred(i - 1), vec![v("X"), v("Y")])],
        ));
        rules.push(Rule::new(
            Atom::new(dlt_pred(i), vec![v("X"), v("Y")]),
            vec![Atom::new(dx_pred(i - 1), vec![v("X"), v("Y")])],
        ));
        rules.push(Rule::new(
            Atom::new(dlt_pred(i), vec![v("X"), v("Y")]),
            vec![
                Atom::new(dx_pred(i - 1), vec![v("X"), v("Z")]),
                Atom::new(dlt_pred(i - 1), vec![v("Z"), v("Y")]),
            ],
        ));
    }
    rules
}

// ---------------------------------------------------------------------------
// The nonrecursive comparator Π′.
// ---------------------------------------------------------------------------

/// The nonrecursive comparator program Π′ of Section 6.  It derives the
/// goal `c` exactly on databases that contain an *error*: a witness that
/// the encoded point chain is not a legal accepting computation of the
/// machine on the empty tape with `2^n`-bit cell addresses.
///
/// Beyond the paper's printed rules, two completions are made (both
/// documented in DESIGN.md):
///
/// 1. **Configuration-change errors, type 1** (change although the address
///    is not `1…1`): the paper's example rule anchors the first address bit
///    only; we drop the `Symbol` guard so the rule fires for a zero bit at
///    any position of the address.
/// 2. **Configuration-change errors, type 2** (no change although the
///    address is `1…1`): the paper names the error type without printing a
///    rule.  We detect it through the carry chain: the previous address is
///    `1…1` iff its top bit is 1 and the *next* address's top carry bit
///    is 1; the rule anchors the last address point of a block (the point
///    whose successor is a symbol point), walks `2^n + 1` points forward to
///    the last address point of the next block, and fires when both
///    criteria hold but the configuration identifier pair did not change.
pub fn build_comparator(tm: &TuringMachine, n: usize) -> Program {
    let mut rules = Vec::new();
    let a = |z: &str, u: &str, w: &str| Atom::app("a", [z, u, w]);
    let dx_n = |x: &str, y: &str| Atom::new(dx_pred(n), vec![v(x), v(y)]);
    let dlt_n = |x: &str, y: &str| Atom::new(dlt_pred(n), vec![v(x), v(y)]);
    let goal_head = || Atom::new(goal(), vec![]);

    // Gadget sub-programs.
    rules.extend(exact_distance_rules(n));
    rules.extend(bounded_distance_rules(n));
    rules.extend(equal_program(n).rules().to_vec());

    // -- Format errors: blocks of exactly 2^n address points, then a symbol
    //    point. -------------------------------------------------------------

    // F1: a symbol point within the first 2^n − 1 points after the start
    // point (which is itself an address point).
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("start", ["Z"]),
            dlt_n("Z", "Z2"),
            Atom::app("symbol", ["Z2"]),
        ],
    ));
    // F2: the point at distance 2^n from the start point is an address point
    // (it should be the first symbol point).
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("start", ["Z"]),
            dx_n("Z", "Z2"),
            Atom::app("address", ["Z2"]),
        ],
    ));
    // F3: another symbol point within 2^n points after a symbol point.  The
    // distance-1 case needs its own rule because dlt_n starts at distance 1
    // from W (= distance 2 from Z).
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("symbol", ["Z"]),
            Atom::app("e", ["Z", "Z2"]),
            Atom::app("symbol", ["Z2"]),
        ],
    ));
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("symbol", ["Z"]),
            Atom::app("e", ["Z", "W"]),
            dlt_n("W", "Z2"),
            Atom::app("symbol", ["Z2"]),
        ],
    ));
    // F4: the point at distance 2^n + 1 after a symbol point is an address
    // point (it should be the next symbol point).
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("symbol", ["Z"]),
            dx_n("Z", "Z2"),
            Atom::app("e", ["Z2", "Z3"]),
            Atom::app("address", ["Z3"]),
        ],
    ));

    // -- Counter errors: the addresses count 0, 1, …, 2^(2^n) − 1, 0, … ------

    // C1: the first address is not 0…0 (a 1 bit among the start point or the
    // 2^n − 1 points after it).
    rules.push(Rule::new(
        goal_head(),
        vec![Atom::app("start", ["Z"]), Atom::app("one", ["Z"])],
    ));
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("start", ["Z"]),
            dlt_n("Z", "Z2"),
            Atom::app("one", ["Z2"]),
        ],
    ));
    // C2: the first carry bit of an address is 0.  The first address point of
    // a block is either the start point or the successor of a symbol point.
    rules.push(Rule::new(
        goal_head(),
        vec![Atom::app("start", ["Z"]), Atom::app("carry0", ["Z"])],
    ));
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("symbol", ["Z"]),
            Atom::app("e", ["Z", "Z2"]),
            Atom::app("carry0", ["Z2"]),
        ],
    ));
    // C3: carry/address propagation errors.  `Z` is the i-th address point
    // of some block; `Z2`, at distance 2^n + 1, is the i-th address point of
    // the next block; `Z3` is the (i+1)-th address point of the next block
    // (when i is the top bit, `Z3` is a symbol point and the carry test
    // cannot match, as intended).  Patterns are
    // (previous address bit i, current carry bit i, current carry bit i+1,
    //  current address bit i) with `None` meaning "don't care".
    #[allow(clippy::type_complexity)]
    let patterns: [(Option<u8>, Option<u8>, Option<u8>, Option<u8>); 7] = [
        (Some(1), Some(1), Some(0), None),
        (Some(0), None, Some(1), None),
        (None, Some(0), Some(1), None),
        (Some(0), Some(0), None, Some(1)),
        (Some(1), Some(1), None, Some(1)),
        (Some(1), Some(0), None, Some(0)),
        (Some(0), Some(1), None, Some(0)),
    ];
    let addr_label = |bit: u8| if bit == 0 { "zero" } else { "one" };
    let carry_label = |bit: u8| if bit == 0 { "carry0" } else { "carry1" };
    for (prev_addr, cur_carry, cur_carry_next, cur_addr) in patterns {
        let mut body = vec![Atom::app("address", ["Z"])];
        if let Some(bit) = prev_addr {
            body.push(Atom::app(addr_label(bit), ["Z"]));
        }
        body.push(dx_n("Z", "W"));
        body.push(Atom::app("e", ["W", "Z2"]));
        body.push(Atom::app("address", ["Z2"]));
        if let Some(bit) = cur_carry {
            body.push(Atom::app(carry_label(bit), ["Z2"]));
        }
        if let Some(bit) = cur_addr {
            body.push(Atom::app(addr_label(bit), ["Z2"]));
        }
        if let Some(bit) = cur_carry_next {
            body.push(Atom::app("e", ["Z2", "Z3"]));
            body.push(Atom::app(carry_label(bit), ["Z3"]));
        }
        rules.push(Rule::new(goal_head(), body));
    }

    // -- Configuration-change errors. ----------------------------------------

    // G1: the configuration changes although some address bit of the block
    // before the boundary is 0 (completion 1: no Symbol guard, so the rule
    // fires for a zero bit at any position).
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("address", ["Z"]),
            Atom::app("zero", ["Z"]),
            a("Z", "U", "V"),
            dx_n("Z", "W"),
            Atom::app("e", ["W", "Z2"]),
            a("Z2", "U2", "U"),
        ],
    ));
    // G2: the configuration does not change although the address is 1…1
    // (completion 2, detected through the carry chain).
    rules.push(Rule::new(
        goal_head(),
        vec![
            Atom::app("address", ["Z"]),
            Atom::app("one", ["Z"]),
            Atom::app("e", ["Z", "W"]),
            Atom::app("symbol", ["W"]),
            a("Z", "U", "V"),
            dx_n("Z", "W2"),
            Atom::app("e", ["W2", "Z2"]),
            Atom::app("carry1", ["Z2"]),
            a("Z2", "U", "V"),
        ],
    ));

    // -- Initial-configuration errors. ----------------------------------------

    // I1: the first cell's symbol is not ⟨initial state, blank⟩.
    let initial_head = composite(&tm.initial, &tm.blank);
    for symbol in alphabet(tm) {
        if symbol == initial_head {
            continue;
        }
        rules.push(Rule::new(
            goal_head(),
            vec![
                Atom::app("start", ["Z"]),
                dx_n("Z", "Z2"),
                Atom::new(sym_pred(&symbol), vec![v("Z2")]),
            ],
        ));
    }
    // I2: a non-first cell of the first configuration holds a non-blank
    // symbol.  `Z2` is an address point of the first configuration with a
    // 1 bit (so its cell is not cell 0); the unique symbol point within
    // distance [1, 2^n] of `Z2` is the symbol point of `Z2`'s own cell.
    for symbol in alphabet(tm) {
        if symbol == tm.blank {
            continue;
        }
        for via_edge_only in [true, false] {
            let mut body = vec![
                Atom::app("start", ["Z"]),
                a("Z", "U", "V"),
                Atom::app("address", ["Z2"]),
                Atom::app("one", ["Z2"]),
                a("Z2", "U", "V"),
                Atom::app("e", ["Z2", "W"]),
            ];
            let target = if via_edge_only {
                // Distance exactly 1 (Z2 is the top address bit of its cell).
                "W"
            } else {
                body.push(dlt_n("W", "W2"));
                "W2"
            };
            body.push(Atom::app("symbol", [target]));
            body.push(Atom::new(sym_pred(&symbol), vec![v(target)]));
            rules.push(Rule::new(goal_head(), body));
        }
    }

    // -- Transition errors (interior cells, relation R_M). --------------------

    // Three consecutive symbol points Z1, Z2, Z3 of one configuration carry
    // symbols a, b, c; Z4 is the symbol point at the same cell address as Z2
    // in the next configuration and carries d; error when (a, b, c, d) ∉ R_M.
    // The address comparison uses the equal_n gadget over the address points
    // T1 → Z2 and T2 → Z4.
    let symbols = alphabet(tm);
    for sa in &symbols {
        for sb in &symbols {
            for sc in &symbols {
                let allowed = allowed_successors(tm, sa, sb, sc);
                for sd in &symbols {
                    if allowed.contains(sd) {
                        continue;
                    }
                    rules.push(Rule::new(
                        goal_head(),
                        vec![
                            a("Z1", "U", "V"),
                            Atom::new(sym_pred(sa), vec![v("Z1")]),
                            Atom::app("e", ["Z1", "T1"]),
                            a("T1", "U", "V"),
                            dx_n("T1", "Z2"),
                            a("Z2", "U", "V"),
                            Atom::new(sym_pred(sb), vec![v("Z2")]),
                            dx_n("Z2", "W3"),
                            Atom::app("e", ["W3", "Z3"]),
                            a("Z3", "U", "V"),
                            Atom::new(sym_pred(sc), vec![v("Z3")]),
                            a("T2", "W", "U"),
                            dx_n("T2", "Z4"),
                            a("Z4", "W2", "U"),
                            Atom::new(sym_pred(sd), vec![v("Z4")]),
                            Atom::new(equal_pred(n), vec![v("T1"), v("Z2"), v("T2"), v("Z4")]),
                        ],
                    ));
                }
            }
        }
    }

    Program::new(rules)
}

// ---------------------------------------------------------------------------
// Trace databases.
// ---------------------------------------------------------------------------

/// Encode the configurations of `trace` (each of width `2^(2^n)` cells — use
/// [`NonrecEncoding::cells_per_configuration`]) as a database over the
/// Section 6 EDB vocabulary.  The database is the canonical database of the
/// expansion of Π that walks through the trace, so:
///
/// * Π derives the goal `c` on it iff the trace ends in an accepting
///   configuration, and
/// * the comparator Π′ derives `c` on it iff the trace is not a legal
///   computation prefix.
pub fn trace_database_nonrec(tm: &TuringMachine, n: usize, trace: &[Configuration]) -> Database {
    let bits = 1usize << n;
    let cells = 1usize << bits;
    debug_assert!(
        trace
            .iter()
            .flat_map(|c| c.tape.iter())
            .all(|s| tm.symbols.contains(s)),
        "trace uses symbols unknown to the machine"
    );
    let mut db = Database::new();
    let constant = |name: String| Constant::new(&name);
    let point = |index: usize| constant(format!("pt{index}"));
    let cfg_u = |c: usize| constant(format!("u{c}"));
    let cfg_v = |c: usize| {
        if c == 0 {
            constant("v0".to_string())
        } else {
            cfg_u(c - 1)
        }
    };
    let unary = |pred: &str, c: Constant| Fact::new(Pred::new(pred), vec![c]);

    let mut global = 0usize;
    let mut last_point: Option<usize> = None;
    for (cfg_index, config) in trace.iter().enumerate() {
        assert_eq!(config.tape.len(), cells, "configuration width mismatch");
        for position in 0..cells {
            // Carry bits for incrementing the previous address (wrapping).
            let prev = (position + cells - 1) % cells;
            let mut carry = vec![0u8; bits + 2];
            carry[1] = 1;
            let mut running = 1u8;
            for (bit, slot) in carry.iter_mut().skip(2).enumerate() {
                running &= ((prev >> bit) & 1) as u8;
                *slot = running;
            }
            // The 2^n address points of this cell.
            for (i, &carry_bit) in carry.iter().enumerate().take(bits + 1).skip(1) {
                let p = point(global);
                if let Some(lp) = last_point {
                    db.insert(Fact::new(Pred::new("e"), vec![point(lp), p]));
                }
                if global == 0 {
                    db.insert(unary("start", p));
                }
                db.insert(Fact::new(
                    Pred::new("a"),
                    vec![p, cfg_u(cfg_index), cfg_v(cfg_index)],
                ));
                db.insert(unary("address", p));
                let addr_bit = ((position >> (i - 1)) & 1) as u8;
                db.insert(unary(if addr_bit == 0 { "zero" } else { "one" }, p));
                db.insert(unary(if carry_bit == 0 { "carry0" } else { "carry1" }, p));
                last_point = Some(global);
                global += 1;
            }
            // The symbol point of this cell.
            let p = point(global);
            if let Some(lp) = last_point {
                db.insert(Fact::new(Pred::new("e"), vec![point(lp), p]));
            }
            db.insert(Fact::new(
                Pred::new("a"),
                vec![p, cfg_u(cfg_index), cfg_v(cfg_index)],
            ));
            db.insert(unary("symbol", p));
            let symbol = if position == config.head {
                composite(&config.state, &config.tape[position])
            } else {
                config.tape[position].clone()
            };
            db.insert(Fact::new(sym_pred(&symbol), vec![p]));
            last_point = Some(global);
            global += 1;
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tm::{never_accepting_machine, trivially_accepting_machine};
    use datalog::eval::evaluate;

    fn accepts(program: &Program, db: &Database) -> bool {
        !evaluate(program, db).relation(goal()).is_empty()
    }

    #[test]
    fn program_shape_matches_the_paper() {
        let tm = trivially_accepting_machine();
        let enc = encode_machine_nonrec(&tm, 1);
        assert!(enc.program.is_recursive());
        assert!(
            enc.program.is_linear(),
            "the §6 recursive program is linear"
        );
        assert!(enc.comparator.is_nonrecursive(), "Π′ must be nonrecursive");
        assert_eq!(enc.program.arity_of(goal()), Some(0));
        assert_eq!(enc.comparator.arity_of(goal()), Some(0));
        // Π has a single recursive IDB predicate besides the goal.
        assert_eq!(enc.program.idb_predicates().len(), 2);
        // The comparator's rule bodies stay small even though it addresses
        // points 2^n + 1 apart — that is the succinctness of Theorem 6.4.
        let max_body = enc
            .comparator
            .rules()
            .iter()
            .map(|r| r.body.len())
            .max()
            .unwrap();
        assert!(max_body <= 16 + 2 * enc.n);
    }

    #[test]
    fn comparator_size_grows_linearly_with_n() {
        let tm = trivially_accepting_machine();
        let len = |n: usize| encode_machine_nonrec(&tm, n).comparator.len();
        let (l1, l2, l4) = (len(1), len(2), len(4));
        assert!(l2 > l1 && l4 > l2);
        // The growth per unit of n is the constant number of gadget rules.
        assert_eq!(l4 - l2, 2 * (l2 - l1));
    }

    #[test]
    fn accepting_trace_derives_goal_and_passes_the_comparator() {
        let tm = trivially_accepting_machine();
        let n = 1; // 2 address bits, 4 cells per configuration.
        let enc = encode_machine_nonrec(&tm, n);
        let trace = tm.trace_empty_tape(enc.cells_per_configuration(), 16);
        assert!(tm.accepting.contains(&trace.last().unwrap().state));
        let db = trace_database_nonrec(&tm, n, &trace);
        assert!(
            accepts(&enc.program, &db),
            "Π must derive `c` on an accepting trace database"
        );
        assert!(
            !accepts(&enc.comparator, &db),
            "Π′ must stay silent on a legal accepting computation"
        );
    }

    #[test]
    fn corrupting_a_cell_triggers_the_comparator() {
        let tm = trivially_accepting_machine();
        let n = 1;
        let enc = encode_machine_nonrec(&tm, n);
        let mut trace = tm.trace_empty_tape(enc.cells_per_configuration(), 16);
        // Cell 2 of the second configuration was never visited by the head;
        // pretend a mark appeared out of nowhere.
        trace[1].tape[2] = "mark".to_string();
        let db = trace_database_nonrec(&tm, n, &trace);
        assert!(
            accepts(&enc.comparator, &db),
            "a corrupted transition must be caught by the comparator"
        );
        // The uncorrupted trace, for contrast, passes.
        let clean = trace_database_nonrec(
            &tm,
            n,
            &tm.trace_empty_tape(enc.cells_per_configuration(), 16),
        );
        assert!(!accepts(&enc.comparator, &clean));
    }

    #[test]
    fn corrupting_the_initial_configuration_triggers_the_comparator() {
        let tm = trivially_accepting_machine();
        let n = 1;
        let enc = encode_machine_nonrec(&tm, n);
        let mut trace = tm.trace_empty_tape(enc.cells_per_configuration(), 16);
        trace[0].tape[3] = "mark".to_string();
        let db = trace_database_nonrec(&tm, n, &trace);
        assert!(accepts(&enc.comparator, &db));
    }

    #[test]
    fn non_accepting_machine_trace_does_not_derive_the_goal() {
        let tm = never_accepting_machine();
        let n = 1;
        let enc = encode_machine_nonrec(&tm, n);
        let trace = tm.trace_empty_tape(enc.cells_per_configuration(), 3);
        let db = trace_database_nonrec(&tm, n, &trace);
        assert!(
            !accepts(&enc.program, &db),
            "without an accepting configuration the end rule never fires"
        );
        // The prefix of a legal (non-accepting) computation contains no
        // error either.
        assert!(!accepts(&enc.comparator, &db));
    }

    #[test]
    fn gadget_subprograms_measure_distances_correctly() {
        // Check dx_i and dlt_i directly on a chain database.
        let n = 3;
        let mut rules = exact_distance_rules(n);
        rules.extend(bounded_distance_rules(n));
        let program = Program::new(rules);
        let db = datalog::generate::chain_database("e", 20);
        let result = evaluate(&program, &db);
        let pairs = |pred: Pred| -> Vec<(String, String)> {
            result
                .relation(pred)
                .iter()
                .map(|t| (t[0].name().to_string(), t[1].name().to_string()))
                .collect()
        };
        // dx_3 relates points exactly 8 apart.
        for (x, y) in pairs(dx_pred(3)) {
            let xi: usize = x
                .trim_start_matches(|c: char| !c.is_ascii_digit())
                .parse()
                .unwrap();
            let yi: usize = y
                .trim_start_matches(|c: char| !c.is_ascii_digit())
                .parse()
                .unwrap();
            assert_eq!(yi - xi, 8);
        }
        // dlt_3 relates points 1 to 7 apart.
        let mut distances: Vec<usize> = pairs(dlt_pred(3))
            .into_iter()
            .map(|(x, y)| {
                let xi: usize = x
                    .trim_start_matches(|c: char| !c.is_ascii_digit())
                    .parse()
                    .unwrap();
                let yi: usize = y
                    .trim_start_matches(|c: char| !c.is_ascii_digit())
                    .parse()
                    .unwrap();
                yi - xi
            })
            .collect();
        distances.sort_unstable();
        distances.dedup();
        assert_eq!(distances, vec![1, 2, 3, 4, 5, 6, 7]);
    }
}
