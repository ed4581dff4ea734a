//! No-panic properties for the whole SQL path a registration takes:
//! `parse_select`, then `Planner::plan`, then
//! `QueryRegistry::register` (which also builds the executor and
//! checks the window). Arbitrary text and keyword skeletons must each
//! come back `Ok` or as a structured `DtError`, never as a panic.

use dt_obs::MetricsRegistry;
use dt_query::{parse_select, Catalog, Planner};
use dt_registry::{QueryRegistry, QuerySpec, RegistryConfig};
use dt_triage::ShedMode;
use dt_types::{DataType, DtResult, Schema, VDuration, WindowSpec};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    c.add_stream(
        "S",
        Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
    );
    c.add_stream(
        "T",
        Schema::from_pairs(&[("d", DataType::Int), ("e", DataType::Str)]),
    );
    c
}

const MODES: [ShedMode; 3] = [
    ShedMode::DropOnly,
    ShedMode::SummarizeOnly,
    ShedMode::DataTriage,
];

/// How far one input got. Every stage either succeeds or returns a
/// structured error; a panic fails the test before this is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reached {
    ParseError,
    PlanError,
    Planned { registered: bool },
}

/// Run `sql` through the parser and planner, then register it with a
/// fresh registry (1 s windows) under `mode`, with or without the
/// server's window override.
fn run(sql: &str, mode: ShedMode, override_windows: bool) -> Reached {
    fn structured<T>(r: &DtResult<T>) {
        if let Err(e) = r {
            assert!(!e.to_string().is_empty(), "an error must explain itself");
        }
    }
    let registry = QueryRegistry::new(
        RegistryConfig {
            catalog: catalog(),
            mode,
            spec: WindowSpec::new(VDuration::from_secs(1)).expect("valid spec"),
            override_windows,
        },
        MetricsRegistry::disabled(),
    )
    .expect("registry over a non-empty catalog");
    let registered = registry.register(QuerySpec::new(sql));
    structured(&registered);
    let parsed = parse_select(sql);
    structured(&parsed);
    let Ok(stmt) = parsed else {
        assert!(registered.is_err(), "unparsable SQL registered: {sql}");
        return Reached::ParseError;
    };
    let planned = Planner::new(&catalog()).plan(&stmt);
    structured(&planned);
    match planned {
        Err(_) => {
            assert!(registered.is_err(), "unplannable SQL registered: {sql}");
            Reached::PlanError
        }
        Ok(_) => Reached::Planned {
            registered: registered.is_ok(),
        },
    }
}

/// Pick one entry of `items`.
fn one_of(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// `n` entries of `items` (repeats allowed) joined by `sep`.
fn list_of(
    items: &'static [&'static str],
    n: std::ops::RangeInclusive<usize>,
    sep: &'static str,
) -> impl Strategy<Value = String> {
    prop::collection::vec(one_of(items), n).prop_map(move |v| v.join(sep))
}

const SELECT_ITEMS: &[&str] = &[
    "a",
    "b",
    "S.c",
    "R.a",
    "x.a",
    "e",
    "z",
    "*",
    "DISTINCT a",
    "COUNT(*)",
    "COUNT(b) AS n",
    "SUM(c)",
    "SUM(e)",
    "AVG(S.c)",
    "MIN(d)",
    "MAX(a) AS m",
    "SUM(*)",
    "COUNT(",
    "1",
];
const FROM_ITEMS: &[&str] = &["R", "S", "T", "R AS x", "S y", "U", "R"];
const PREDICATES: &[&str] = &[
    "R.a = S.b",
    "S.c = T.d",
    "x.a = S.b",
    "a > 5",
    "c <= 50",
    "b <> 3",
    "R.a = R.a",
    "S.c < T.d",
    "e = 'k'",
    "a = 'k'",
    "d >= 1.5",
    "q = 1",
    "a = ",
];
const GROUP_COLS: &[&str] = &["a", "b", "S.c", "d", "e", "z"];
const HAVING: &[&str] = &["COUNT(*) >= 2", "SUM(c) > 10", "a > 1", "MAX(z) < 3"];
const WINDOWS: &[&str] = &[
    "R['1 second']",
    "S['1 second']",
    "T['1 second']",
    "R['1000 milliseconds']",
    "S['2 seconds', '1 second']",
    "T['1 second', '2 seconds']",
    "R['250 milliseconds']",
    "T['1 minute']",
    "U['1 second']",
    "R['0 seconds']",
    "S['1 fortnight']",
    "R['99999999999999999999 seconds']",
    "R['-1 second']",
    "S[]",
];

/// A query assembled from clause fragments: right often enough to
/// plan and register, wrong in enough ways (unknown names, type and
/// window mismatches, hopping and zero-width windows, truncated
/// clauses) to reach the planner's and registry's error paths.
fn skeleton() -> impl Strategy<Value = String> {
    (
        (
            list_of(SELECT_ITEMS, 1..=3, ", "),
            list_of(FROM_ITEMS, 1..=3, ", "),
            prop::option::of(list_of(PREDICATES, 1..=3, " AND ")),
        ),
        (
            prop::option::of(list_of(GROUP_COLS, 1..=2, ", ")),
            prop::option::of(one_of(HAVING)),
            prop::option::of(list_of(WINDOWS, 1..=3, ", ")),
            "[a-z0-9;,.()'\\[\\] ]{0,3}",
        ),
    )
        .prop_map(|((items, from, pred), (group, having, window, tail))| {
            let mut sql = format!("SELECT {items} FROM {from}");
            if let Some(p) = pred {
                sql += &format!(" WHERE {p}");
            }
            if let Some(g) = group {
                sql += &format!(" GROUP BY {g}");
            }
            if let Some(h) = having {
                sql += &format!(" HAVING {h}");
            }
            if let Some(w) = window {
                sql += &format!(" WINDOW {w}");
            }
            sql + &tail
        })
}

/// Queries that register against the catalog. The 250 ms and hopping
/// windows differ from the registry's 1 s tumbling spec, so they fail
/// registration unless the registry overrides windows.
const VALID: &[&str] = &[
    "SELECT a, COUNT(*) FROM R GROUP BY a",
    "SELECT a, COUNT(*) AS n FROM R GROUP BY a WINDOW R['1 second']",
    "SELECT a, SUM(c) FROM R, S WHERE R.a = S.b GROUP BY a WINDOW R['1 second'], S['1 second']",
    "SELECT a, COUNT(*) FROM R, S, T WHERE R.a = S.b AND S.c = T.d GROUP BY a \
     WINDOW R['250 milliseconds'], S['250 milliseconds'], T['250 milliseconds']",
    "SELECT b, AVG(c) FROM S WHERE c > 5 GROUP BY b HAVING COUNT(*) >= 2 \
     WINDOW S['2 seconds', '1 second']",
    "SELECT DISTINCT d FROM T WHERE e = 'k'",
    "SELECT MIN(d), MAX(d) FROM T AS t",
];

/// Words a mutation splices in: keywords, names the catalog does and
/// does not know, literals and punctuation.
const VOCAB: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "GROUP",
    "BY",
    "HAVING",
    "WINDOW",
    "AS",
    "DISTINCT",
    "COUNT(*)",
    "SUM(c)",
    "AVG(e)",
    "a",
    "b",
    "S.c",
    "x.a",
    "z",
    "U",
    "R",
    "T",
    "*",
    ",",
    "=",
    "<>",
    "(",
    ")",
    "'1 second'",
    "['0 seconds']",
    "1.5",
    "'k'",
    "-1",
    "99999999999999999999",
    ";",
];

/// A [`VALID`] query with up to three word edits (delete, insert or
/// replace a space-separated word). With no edits it stays valid; one
/// edit usually breaks it at the parser or the planner.
fn mutated_valid() -> impl Strategy<Value = String> {
    (
        one_of(VALID),
        prop::collection::vec((0usize..3, any::<usize>(), one_of(VOCAB)), 0..=3),
    )
        .prop_map(|(base, edits)| {
            let mut words: Vec<&str> = base.split_whitespace().collect();
            for (op, at, word) in edits {
                let i = at % words.len().max(1);
                match op {
                    0 if !words.is_empty() => {
                        words.remove(i);
                    }
                    1 => words.insert(i.min(words.len()), word),
                    _ if !words.is_empty() => words[i] = word,
                    _ => words.push(word),
                }
            }
            words.join(" ")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable text never panics anywhere on the path.
    #[test]
    fn arbitrary_sql_never_panics(
        sql in "\\PC{0,120}",
        mode in 0usize..3,
        override_windows in any::<bool>(),
    ) {
        run(&sql, MODES[mode], override_windows);
    }

    /// Keyword skeletons reach the planner and the registry, and never
    /// panic there either.
    #[test]
    fn keyword_skeletons_never_panic(
        sql in skeleton(),
        mode in 0usize..3,
        override_windows in any::<bool>(),
    ) {
        run(&sql, MODES[mode], override_windows);
    }

    /// Near-valid queries reach registration's own checks (executor
    /// build, window match) as well as every earlier stage.
    #[test]
    fn mutated_queries_never_panic(
        sql in mutated_valid(),
        mode in 0usize..3,
        override_windows in any::<bool>(),
    ) {
        run(&sql, MODES[mode], override_windows);
    }
}

/// The generators are only worth their cases if they get past the
/// parser: over a fixed sample, some inputs must stop at each stage,
/// and some must register.
#[test]
fn generated_sql_reaches_every_stage() {
    let mut rng = proptest::test_rng("generated_sql_reaches_every_stage");
    let (skeletons, mutants) = (skeleton(), mutated_valid());
    let mut seen = Vec::new();
    for i in 0..512 {
        let sql = if i % 2 == 0 {
            skeletons.generate(&mut rng)
        } else {
            mutants.generate(&mut rng)
        };
        let reached = run(&sql, MODES[i % 3], i % 4 < 2);
        if !seen.contains(&reached) {
            seen.push(reached);
        }
    }
    for stage in [
        Reached::ParseError,
        Reached::PlanError,
        Reached::Planned { registered: false },
        Reached::Planned { registered: true },
    ] {
        assert!(
            seen.contains(&stage),
            "no generated query reached {stage:?}"
        );
    }
}
