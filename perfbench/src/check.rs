//! Answer checking, independent of the automata.
//!
//! Every response is held to a hand-written table of expected verdicts
//! ([`Expect`]), and every returned counterexample is re-validated from
//! first principles: its `database` facts are loaded, the program must
//! derive `goal_tuple` on them (`datalog::eval`), and the query must not
//! answer it (`cq::eval` for a UCQ, `datalog::eval` for a nonrecursive
//! candidate program).

use cq::Ucq;
use datalog::atom::Pred;
use datalog::database::Database;
use datalog::eval::evaluate;
use datalog::parser::parse_program;
use datalog::program::Program;
use datalog::term::Constant;
use server::json::Value;

use crate::stream::Family;

/// The expected answer of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// `containment`: not contained, with a valid counterexample.
    NotContained,
    /// `equivalence`: the recursive program exceeds the candidate, with a
    /// valid counterexample.
    RecursiveExceeds,
    /// `equivalence`: equivalent.
    Equivalent,
    /// `bounded`: bounded, with this least bound.
    Bounded(u64),
    /// `optimize`: a parseable program no larger than the input.
    Optimized,
    /// `minimize`: a single-disjunct, single-atom query.
    MinimizedToOneAtom,
    /// `rewrite`: a nonrecursive program.
    Rewritten,
}

/// The expected answer of a `cold_mix` family.
pub fn expect_family(family: Family) -> Expect {
    match family {
        Family::Linear2 | Family::Linear3 | Family::Nonlinear2 | Family::Nonlinear3 => {
            Expect::NotContained
        }
        Family::EquivTc => Expect::RecursiveExceeds,
        Family::EquivBuys => Expect::Equivalent,
        Family::Bounded => Expect::Bounded(2),
    }
}

/// Why a response did not pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// An error response (`busy`, `deadline_exceeded`, …): counted in the
    /// error rate, not as a wrong answer.
    Error(String),
    /// A success response with a wrong answer.
    Wrong(String),
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, Failure> {
    value
        .get(key)
        .ok_or_else(|| Failure::Wrong(format!("missing field `{key}`")))
}

fn text<'a>(value: &'a Value, key: &str) -> Result<&'a str, Failure> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| Failure::Wrong(format!("field `{key}` is not a string")))
}

fn flag(value: &Value, key: &str) -> Result<bool, Failure> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| Failure::Wrong(format!("field `{key}` is not a bool")))
}

fn number(value: &Value, key: &str) -> Result<u64, Failure> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| Failure::Wrong(format!("field `{key}` is not a count")))
}

fn wrong(message: impl Into<String>) -> Failure {
    Failure::Wrong(message.into())
}

fn program_of(request: &Value, key: &str) -> Result<Program, Failure> {
    parse_program(text(request, key)?).map_err(|e| wrong(format!("request `{key}`: {e}")))
}

/// Parse one rendered fact, `pred(c1, c2)`.  Frozen constants (`?X`) are
/// outside the Datalog parser's syntax, so this reads the rendering
/// directly.
fn parse_fact(fact: &str) -> Option<(Pred, Vec<Constant>)> {
    let (pred, rest) = fact.split_once('(')?;
    let args = rest.strip_suffix(')')?;
    let tuple = args
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .map(Constant::new)
        .collect();
    Some((Pred::new(pred.trim()), tuple))
}

/// What must not answer a counterexample's goal tuple.
enum Refuter<'a> {
    Ucq(&'a Ucq),
    Program(&'a Program),
}

/// Re-validate a counterexample: the program derives its goal tuple on its
/// database, and the refuter does not.
fn validate_counterexample(
    cex: &Value,
    program: &Program,
    goal: Pred,
    refuter: Refuter<'_>,
) -> Result<(), Failure> {
    let mut database = Database::new();
    for fact in field(cex, "database")?
        .as_arr()
        .ok_or_else(|| wrong("counterexample database is not an array"))?
    {
        let fact = fact
            .as_str()
            .ok_or_else(|| wrong("counterexample fact is not a string"))?;
        let (pred, tuple) =
            parse_fact(fact).ok_or_else(|| wrong(format!("unreadable fact `{fact}`")))?;
        database.insert_tuple(pred, tuple);
    }
    let tuple: Vec<Constant> = field(cex, "goal_tuple")?
        .as_arr()
        .ok_or_else(|| wrong("goal_tuple is not an array"))?
        .iter()
        .map(|c| c.as_str().map(Constant::new))
        .collect::<Option<_>>()
        .ok_or_else(|| wrong("goal_tuple holds a non-string"))?;
    if !evaluate(program, &database).relation(goal).contains(&tuple) {
        return Err(wrong(
            "the program does not derive the counterexample's goal tuple",
        ));
    }
    let answered = match refuter {
        Refuter::Ucq(ucq) => cq::eval::evaluate_ucq(ucq, &database).contains(&tuple),
        Refuter::Program(candidate) => evaluate(candidate, &database)
            .relation(goal)
            .contains(&tuple),
    };
    if answered {
        return Err(wrong("the query answers the counterexample's goal tuple"));
    }
    Ok(())
}

/// Check one response against the request it answers.
pub fn check(request: &Value, response: &Value, expect: Expect) -> Result<(), Failure> {
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("malformed");
        return Err(Failure::Error(code.to_string()));
    }
    if response.get("id") != request.get("id") {
        return Err(wrong("response id does not echo the request id"));
    }
    let result = field(response, "result")?;
    let goal = || text(request, "goal").map(Pred::new);
    match expect {
        Expect::NotContained => {
            if flag(result, "contained")? {
                return Err(wrong("expected not contained"));
            }
            let program = program_of(request, "program")?;
            let ucq = Ucq::parse_checked(text(request, "query")?)
                .map_err(|e| wrong(format!("request query: {e}")))?;
            validate_counterexample(
                field(result, "counterexample")?,
                &program,
                goal()?,
                Refuter::Ucq(&ucq),
            )
        }
        Expect::RecursiveExceeds => {
            if text(result, "verdict")? != "recursive_exceeds" {
                return Err(wrong("expected verdict recursive_exceeds"));
            }
            let program = program_of(request, "program")?;
            let candidate = program_of(request, "candidate")?;
            validate_counterexample(
                field(result, "counterexample")?,
                &program,
                goal()?,
                Refuter::Program(&candidate),
            )
        }
        Expect::Equivalent => {
            if text(result, "verdict")? != "equivalent" || !flag(result, "equivalent")? {
                return Err(wrong("expected equivalent"));
            }
            Ok(())
        }
        Expect::Bounded(bound) => {
            if !flag(result, "bounded")? || number(result, "bound")? != bound {
                return Err(wrong(format!("expected bounded at depth {bound}")));
            }
            Ok(())
        }
        Expect::Optimized => {
            let program = parse_program(text(result, "program")?)
                .map_err(|e| wrong(format!("optimized program: {e}")))?;
            let after = number(result, "rules_after")?;
            if program.len() as u64 != after || after > number(result, "rules_before")? {
                return Err(wrong("optimize grew the program or misreported its size"));
            }
            Ok(())
        }
        Expect::MinimizedToOneAtom => {
            let query = Ucq::parse_checked(text(result, "query")?)
                .map_err(|e| wrong(format!("minimized query: {e}")))?;
            let atoms: usize = query.disjuncts.iter().map(|d| d.body.len()).sum();
            if query.len() != 1 || atoms != 1 || number(result, "atoms_after")? != 1 {
                return Err(wrong("expected a one-atom query"));
            }
            Ok(())
        }
        Expect::Rewritten => {
            if !flag(result, "nonrecursive")? {
                return Err(wrong("expected a nonrecursive rewrite"));
            }
            let program = parse_program(text(result, "program")?)
                .map_err(|e| wrong(format!("rewritten program: {e}")))?;
            if !program.is_nonrecursive() || program.len() as u64 != number(result, "rules_after")?
            {
                return Err(wrong("rewrite is recursive or misreports its size"));
            }
            Ok(())
        }
    }
}

/// Parse a request line and response line and check them.
pub fn check_lines(request: &str, response: &str, expect: Expect) -> Result<(), Failure> {
    let request = server::json::parse(request).map_err(|e| wrong(format!("request: {e}")))?;
    let response =
        server::json::parse(response).map_err(|e| wrong(format!("response is not JSON: {e}")))?;
    check(&request, &response, expect)
}

/// The expected answer of a workload-generator catalog request line, from
/// its `op` (each verb has exactly one catalog shape; see
/// `workload::catalog_entry`).
pub fn expect_catalog_line(request: &str) -> Option<Expect> {
    let value = server::json::parse(request).ok()?;
    Some(match value.get("op")?.as_str()? {
        "containment" => Expect::NotContained,
        "equivalence" => Expect::RecursiveExceeds,
        "bounded" => Expect::Bounded(2),
        "optimize" => Expect::Optimized,
        "minimize" => Expect::MinimizedToOneAtom,
        "rewrite" => Expect::Rewritten,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_with_frozen_constants_parse() {
        let (pred, tuple) = parse_fact("e1(?X, ?u#3)").unwrap();
        assert_eq!(pred, Pred::new("e1"));
        assert_eq!(tuple, vec![Constant::new("?X"), Constant::new("?u#3")]);
        assert_eq!(parse_fact("t()").unwrap().1, vec![]);
    }

    #[test]
    fn a_forged_counterexample_is_rejected() {
        let request = server::json::parse(
            r#"{"id":"c0","op":"containment","program":"p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).","goal":"p","query":"q(X, Y) :- e(X, Y)."}"#,
        )
        .unwrap();
        let good = r#"{"id":"c0","ok":true,"verb":"containment","result":{"contained":false,"counterexample":{"database":["e(?X, ?Z)","e(?Z, ?Y)"],"goal_tuple":["?X","?Y"]}}}"#;
        let forged = r#"{"id":"c0","ok":true,"verb":"containment","result":{"contained":false,"counterexample":{"database":["e(?X, ?Y)"],"goal_tuple":["?X","?Y"]}}}"#;
        let parse = |s: &str| server::json::parse(s).unwrap();
        assert_eq!(check(&request, &parse(good), Expect::NotContained), Ok(()));
        assert!(matches!(
            check(&request, &parse(forged), Expect::NotContained),
            Err(Failure::Wrong(_))
        ));
        let busy = r#"{"id":"c0","ok":false,"error":{"code":"busy","message":"full"}}"#;
        assert_eq!(
            check(&request, &parse(busy), Expect::NotContained),
            Err(Failure::Error("busy".into()))
        );
    }
}
