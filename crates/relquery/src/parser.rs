//! Text syntax for queries.
//!
//! Two forms are supported, dispatched on the rule operator:
//!
//! * **Datalog-style CQ/UCQ** — `Q(x, y) :- R(x, z), S(z, y), z != 'a'`.
//!   Several rules separated by `;` form a UCQ.
//! * **First-order** — `Q(x) := exists y. (R(x, y) & !S(y)) | forall z. (T(z) -> z < x)`.
//!   Classified as `∃FO⁺` or `FO` from its shape.
//!
//! Lexical conventions: bare identifiers are variables, numbers are integer
//! constants, single- or double-quoted text is a string constant.
//! Comparison operators: `=`, `!=`, `<`, `<=`, `>`, `>=`. Implication `->`
//! desugars to `!p | q`.

use crate::query::{CmpOp, Comparison, ConjunctiveQuery, FoQuery, Formula, Query, Term, UnionQuery, Var};
use crate::value::Value;
use crate::{Error, Result};

/// Parses a query in either syntax (see module docs).
pub fn parse_query(input: &str) -> Result<Query> {
    let trimmed = input.trim();
    if trimmed.contains(":=") {
        let q = parse_fo_query(trimmed)?;
        Ok(Query::Fo(q))
    } else if trimmed.contains(":-") {
        let rules: Vec<&str> = trimmed
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if rules.len() == 1 {
            let cq = parse_cq(rules[0])?;
            cq.validate()?;
            Ok(Query::Cq(cq))
        } else {
            let mut disjuncts = Vec::with_capacity(rules.len());
            for r in rules {
                disjuncts.push(parse_cq(r)?);
            }
            let u = UnionQuery::new(disjuncts);
            u.validate()?;
            Ok(Query::Ucq(u))
        }
    } else {
        Err(Error::Parse(
            "expected `:-` (CQ/UCQ) or `:=` (FO) in query".into(),
        ))
    }
}

/// Parses a single conjunctive query rule.
fn parse_cq(input: &str) -> Result<ConjunctiveQuery> {
    let toks = lex(input)?;
    let mut p = Parser::new(toks);
    let cq = p.cq_rule()?;
    p.expect_end()?;
    Ok(cq)
}

/// Parses a first-order query `Q(x̄) := φ`.
pub fn parse_fo_query(input: &str) -> Result<FoQuery> {
    let toks = lex(input)?;
    let mut p = Parser::new(toks);
    let q = p.fo_rule()?;
    p.expect_end()?;
    q.validate()?;
    Ok(q)
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Amp,
    Pipe,
    Bang,
    Arrow,
    Turnstile, // :-
    Define,    // :=
    Cmp(CmpOp),
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '&' => {
                toks.push(Tok::Amp);
                i += 1;
            }
            '|' => {
                toks.push(Tok::Pipe);
                i += 1;
            }
            ':' => {
                match chars.get(i + 1) {
                    Some('-') => toks.push(Tok::Turnstile),
                    Some('=') => toks.push(Tok::Define),
                    _ => return Err(Error::Parse("expected `:-` or `:=` after `:`".into())),
                }
                i += 2;
            }
            '-' => {
                if chars.get(i + 1) == Some(&'>') {
                    toks.push(Tok::Arrow);
                    i += 2;
                } else if chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                    let (n, ni) = lex_int(&chars, i + 1)?;
                    toks.push(Tok::Int(-n));
                    i = ni;
                } else {
                    return Err(Error::Parse("stray `-`".into()));
                }
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Cmp(CmpOp::Ne));
                    i += 2;
                } else {
                    toks.push(Tok::Bang);
                    i += 1;
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Cmp(CmpOp::Le));
                    i += 2;
                } else {
                    toks.push(Tok::Cmp(CmpOp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Cmp(CmpOp::Ge));
                    i += 2;
                } else {
                    toks.push(Tok::Cmp(CmpOp::Gt));
                    i += 1;
                }
            }
            '=' => {
                toks.push(Tok::Cmp(CmpOp::Eq));
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != quote {
                    j += 1;
                }
                if j == chars.len() {
                    return Err(Error::Parse("unterminated string literal".into()));
                }
                toks.push(Tok::Str(chars[start..j].iter().collect()));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let (n, ni) = lex_int(&chars, i)?;
                toks.push(Tok::Int(n));
                i = ni;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                toks.push(Tok::Ident(chars[start..j].iter().collect()));
                i = j;
            }
            other => return Err(Error::Parse(format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

fn lex_int(chars: &[char], start: usize) -> Result<(i64, usize)> {
    let mut j = start;
    while j < chars.len() && chars[j].is_ascii_digit() {
        j += 1;
    }
    let text: String = chars[start..j].iter().collect();
    let n = text
        .parse::<i64>()
        .map_err(|_| Error::Parse(format!("integer literal `{text}` out of range")))?;
    Ok((n, j))
}

/// Deepest formula nesting the parser accepts, counted in open
/// `formula` / `unary` productions (a parenthesis costs two, a `!`, a
/// quantifier or an `->` one). Every cycle of the recursive descent
/// passes through one of the two, and a stack
/// overflow is an abort rather than an error, so the depth a query
/// text can demand must be bounded; the bound also caps every
/// recursive pass over the parsed [`Formula`] (normalize, evaluate,
/// drop).
pub const MAX_FORMULA_DEPTH: usize = 128;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Open `formula` / `unary` calls.
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<Tok>) -> Self {
        Parser {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs one nesting level of the descent, refusing to go past
    /// [`MAX_FORMULA_DEPTH`].
    fn nested(&mut self, level: fn(&mut Self) -> Result<Formula>) -> Result<Formula> {
        if self.depth == MAX_FORMULA_DEPTH {
            return Err(Error::Parse(format!(
                "formula nests deeper than the limit of {MAX_FORMULA_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let parsed = level(self);
        self.depth -= 1;
        parsed
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        match self.next() {
            Some(ref got) if got == t => Ok(()),
            got => Err(Error::Parse(format!("expected {t:?}, found {got:?}"))),
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "trailing tokens starting at {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(Error::Parse(format!("expected identifier, found {got:?}"))),
        }
    }

    /// `term := ident | int | string`
    fn term(&mut self) -> Result<Term> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(Term::Var(Var::new(s))),
            Some(Tok::Int(n)) => Ok(Term::Const(Value::int(n))),
            Some(Tok::Str(s)) => Ok(Term::Const(Value::str(s))),
            got => Err(Error::Parse(format!("expected term, found {got:?}"))),
        }
    }

    /// `terms := '(' term (',' term)* ')'` — possibly empty `()`.
    fn term_list(&mut self) -> Result<Vec<Term>> {
        self.expect(&Tok::LParen)?;
        let mut out = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.next();
            return Ok(out);
        }
        loop {
            out.push(self.term()?);
            match self.next() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                got => return Err(Error::Parse(format!("expected `,` or `)`, found {got:?}"))),
            }
        }
        Ok(out)
    }

    /// `cq_rule := ident terms ':-' body_item (',' body_item)*`
    fn cq_rule(&mut self) -> Result<ConjunctiveQuery> {
        let _head_name = self.ident()?;
        let head = self.term_list()?;
        self.expect(&Tok::Turnstile)?;
        let mut atoms = Vec::new();
        let mut cmps = Vec::new();
        loop {
            self.body_item(&mut atoms, &mut cmps)?;
            if self.peek() == Some(&Tok::Comma) {
                self.next();
            } else {
                break;
            }
        }
        Ok(ConjunctiveQuery::new(head, atoms, cmps))
    }

    /// A body item is an atom `Name(...)` or a comparison `term op term`.
    fn body_item(
        &mut self,
        atoms: &mut Vec<crate::query::Atom>,
        cmps: &mut Vec<Comparison>,
    ) -> Result<()> {
        // Lookahead: Ident '(' → atom.
        if let (Some(Tok::Ident(_)), Some(Tok::LParen)) =
            (self.peek(), self.toks.get(self.pos + 1))
        {
            let name = self.ident()?;
            let terms = self.term_list()?;
            atoms.push(crate::query::Atom::new(name, terms));
            return Ok(());
        }
        let lhs = self.term()?;
        let op = match self.next() {
            Some(Tok::Cmp(op)) => op,
            got => {
                return Err(Error::Parse(format!(
                    "expected comparison operator, found {got:?}"
                )))
            }
        };
        let rhs = self.term()?;
        cmps.push(Comparison::new(lhs, op, rhs));
        Ok(())
    }

    /// `fo_rule := ident '(' vars ')' ':=' formula`
    fn fo_rule(&mut self) -> Result<FoQuery> {
        let _head_name = self.ident()?;
        let head_terms = self.term_list()?;
        let mut head = Vec::with_capacity(head_terms.len());
        for t in head_terms {
            match t {
                Term::Var(v) => head.push(v),
                Term::Const(c) => {
                    return Err(Error::Parse(format!(
                        "FO query heads take variables only, found constant {c}"
                    )))
                }
            }
        }
        self.expect(&Tok::Define)?;
        let body = self.formula()?;
        Ok(FoQuery::new(head, body))
    }

    /// `formula := or_expr ('->' formula)?` — implication, right-assoc.
    fn formula(&mut self) -> Result<Formula> {
        self.nested(Self::formula_level)
    }

    fn formula_level(&mut self) -> Result<Formula> {
        let lhs = self.or_expr()?;
        if self.peek() == Some(&Tok::Arrow) {
            self.next();
            let rhs = self.formula()?;
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn or_expr(&mut self) -> Result<Formula> {
        let mut parts = vec![self.and_expr()?];
        while self.peek() == Some(&Tok::Pipe) {
            self.next();
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::or(parts)
        })
    }

    fn and_expr(&mut self) -> Result<Formula> {
        let mut parts = vec![self.unary()?];
        while self.peek() == Some(&Tok::Amp) {
            self.next();
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::and(parts)
        })
    }

    fn unary(&mut self) -> Result<Formula> {
        self.nested(Self::unary_level)
    }

    fn unary_level(&mut self) -> Result<Formula> {
        match self.peek() {
            Some(Tok::Bang) => {
                self.next();
                Ok(Formula::not(self.unary()?))
            }
            Some(Tok::Ident(kw)) if kw == "exists" || kw == "forall" => {
                let is_exists = kw == "exists";
                self.next();
                let mut vars = vec![Var::new(self.ident()?)];
                while self.peek() == Some(&Tok::Comma) {
                    self.next();
                    vars.push(Var::new(self.ident()?));
                }
                self.expect(&Tok::Dot)?;
                let body = self.unary()?;
                Ok(if is_exists {
                    Formula::exists(vars, body)
                } else {
                    Formula::forall(vars, body)
                })
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Formula> {
        // `( formula )`
        if self.peek() == Some(&Tok::LParen) {
            self.next();
            let f = self.formula()?;
            self.expect(&Tok::RParen)?;
            return Ok(f);
        }
        // Atom: Ident '('
        if let (Some(Tok::Ident(_)), Some(Tok::LParen)) =
            (self.peek(), self.toks.get(self.pos + 1))
        {
            let name = self.ident()?;
            let terms = self.term_list()?;
            return Ok(Formula::atom(name, terms));
        }
        // Comparison.
        let lhs = self.term()?;
        let op = match self.next() {
            Some(Tok::Cmp(op)) => op,
            got => {
                return Err(Error::Parse(format!(
                    "expected comparison operator, found {got:?}"
                )))
            }
        };
        let rhs = self.term()?;
        Ok(Formula::cmp(lhs, op, rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryLanguage;
    use crate::{Database, Tuple};

    fn parse_formula(input: &str) -> Result<Formula> {
        let mut p = Parser::new(lex(input)?);
        let f = p.formula()?;
        p.expect_end()?;
        Ok(f)
    }

    #[test]
    fn parse_simple_cq() {
        let q = parse_query("Q(x, y) :- R(x, z), S(z, y)").unwrap();
        assert_eq!(q.language(), QueryLanguage::Cq);
    }

    #[test]
    fn parse_cq_with_comparisons_and_constants() {
        let q = parse_query("Q(x) :- R(x, y), y >= 20, y <= 30, x != 'sold'").unwrap();
        if let Query::Cq(cq) = &q {
            assert_eq!(cq.atoms().len(), 1);
            assert_eq!(cq.comparisons().len(), 3);
        } else {
            panic!("expected CQ");
        }
    }

    #[test]
    fn parse_negative_integer() {
        let q = parse_query("Q(x) :- R(x), x > -5").unwrap();
        assert_eq!(q.constants(), vec![Value::int(-5)]);
    }

    #[test]
    fn parse_ucq() {
        let q = parse_query("Q(x) :- R(x); Q(x) :- S(x)").unwrap();
        assert_eq!(q.language(), QueryLanguage::Ucq);
    }

    #[test]
    fn parse_efo_plus() {
        let q = parse_query("Q(x) := exists y. (R(x, y) | S(x, y))").unwrap();
        assert_eq!(q.language(), QueryLanguage::ExistsFoPlus);
    }

    #[test]
    fn parse_full_fo() {
        let q =
            parse_query("Q(x) := R(x) & forall y. (S(y) -> y >= x)").unwrap();
        assert_eq!(q.language(), QueryLanguage::Fo);
    }

    #[test]
    fn parse_negation_makes_fo() {
        let q = parse_query("Q(x) := R(x) & !S(x)").unwrap();
        assert_eq!(q.language(), QueryLanguage::Fo);
    }

    #[test]
    fn multi_var_quantifier() {
        let f = parse_formula("exists x, y. E(x, y)").unwrap();
        if let Formula::Exists(vs, _) = &f {
            assert_eq!(vs.len(), 2);
        } else {
            panic!("expected Exists");
        }
    }

    #[test]
    fn implication_is_right_associative() {
        // a -> b -> c ≡ a -> (b -> c) ≡ !a | !b | c (Or flattens).
        let f = parse_formula("R(x) -> S(x) -> T(x)").unwrap();
        assert_eq!(f.to_string(), "(!(R(x)) | !(S(x)) | T(x))");
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let f = parse_formula("R(x) | S(x) & T(x)").unwrap();
        if let Formula::Or(parts) = &f {
            assert_eq!(parts.len(), 2);
            assert!(matches!(parts[1], Formula::And(_)));
        } else {
            panic!("expected Or at top");
        }
    }

    #[test]
    fn double_quoted_strings() {
        let q = parse_query(r#"Q(x) :- R(x, "two words")"#).unwrap();
        assert_eq!(q.constants(), vec![Value::str("two words")]);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_query("not a query").is_err());
        assert!(parse_query("Q(x) :- R(x) @").is_err());
        assert!(parse_query("Q(x) :-").is_err());
        assert!(parse_query("Q(x) := R(x").is_err());
        assert!(parse_query("Q(x) :- R(x, 'unterminated)").is_err());
    }

    #[test]
    fn formula_nesting_is_bounded() {
        // One `!` is one level; a parenthesis is two.
        let bangs = |n: usize| format!("Q(x) := R(x) & {}S(x)", "!".repeat(n));
        let parens = |n: usize| format!("Q(x) := {}R(x){}", "(".repeat(n), ")".repeat(n));
        let arrows = |n: usize| format!("Q(x) := {}R(x)", "R(x) -> ".repeat(n));
        // `formula` + the first `unary` are open when the chain starts.
        // At the limit the query parses, and the passes downstream of
        // the parser (validate, evaluate, display, drop) recurse no
        // deeper than it did.
        let mut db = Database::new();
        db.create_relation("R", &["x"]).unwrap();
        db.create_relation("S", &["x"]).unwrap();
        db.insert("R", vec![Value::int(1)]).unwrap();
        db.insert("S", vec![Value::int(1)]).unwrap();
        for at_limit in [
            bangs(MAX_FORMULA_DEPTH - 2),
            parens(MAX_FORMULA_DEPTH / 2 - 1),
            arrows(MAX_FORMULA_DEPTH - 2),
        ] {
            let q = parse_query(&at_limit).unwrap();
            assert_eq!(q.eval(&db).unwrap().sorted_tuples(), vec![Tuple::ints([1])]);
            assert!(!q.to_string().is_empty());
        }
        for past in [
            bangs(MAX_FORMULA_DEPTH - 1),
            parens(MAX_FORMULA_DEPTH / 2),
            arrows(MAX_FORMULA_DEPTH - 1),
        ] {
            match parse_query(&past) {
                Err(Error::Parse(why)) => {
                    assert!(why.contains(&MAX_FORMULA_DEPTH.to_string()), "{why}")
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        // What used to overflow the stack and abort the process.
        for deep in [bangs(200_000), parens(200_000), arrows(200_000)] {
            assert!(matches!(parse_query(&deep), Err(Error::Parse(_))));
        }
        assert!(matches!(
            parse_formula(&format!("{}R(x)", "exists y. ".repeat(200_000))),
            Err(Error::Parse(_))
        ));
        // Depth, not length: a long flat conjunction is fine.
        let flat = format!("Q(x) := R(x){}", " & R(x)".repeat(5_000));
        assert!(parse_query(&flat).is_ok());
    }

    #[test]
    fn unsafe_parsed_query_rejected() {
        assert!(parse_query("Q(z) :- R(x)").is_err());
        assert!(parse_query("Q(x) := exists y. R(y)").is_ok()); // x unconstrained is fine for FO
        assert!(parse_query("Q(x) := R(x, y)").is_err()); // free y not in head
    }

    #[test]
    fn fo_head_constant_rejected() {
        assert!(parse_query("Q(1) := R(x)").is_err());
    }

    #[test]
    fn parsed_query_end_to_end() {
        let mut db = Database::new();
        db.create_relation("R", &["x", "y"]).unwrap();
        db.insert("R", vec![Value::int(1), Value::int(25)]).unwrap();
        db.insert("R", vec![Value::int(2), Value::int(99)]).unwrap();
        let q = parse_query("Q(x) :- R(x, p), p >= 20, p <= 30").unwrap();
        let out = q.eval(&db).unwrap();
        assert_eq!(out.sorted_tuples(), vec![Tuple::ints([1])]);
    }

    #[test]
    fn parse_example_1_1_gift_query() {
        // The paper's Q0 (Example 3.1) in our FO syntax.
        let text = "Q(n) := exists t, p, s. (catalog(n, t, p, s) & p <= 30 & p >= 20 \
                    & forall n2, b, r, g, a, x, e, y. (!(history(n2, b, r, g, a, x, e, y) \
                    & b = 'peter' & r = 'grace' & n = n2)))";
        let q = parse_query(text).unwrap();
        assert_eq!(q.language(), QueryLanguage::Fo);
    }
}
