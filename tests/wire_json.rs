//! The JSON layer of the wire: strings round-trip through the writer and
//! the parser, malformed input keeps its exact messages and byte
//! offsets, and every kind of response line the wire writes is already
//! in the canonical form the `Json` printer gives it — so writing lines
//! in place prints exactly what building a `Json` tree and printing it
//! printed.

use nka_quantum::api::json::Json;
use nka_quantum::api::{answer_line, wire, Session, SessionOptions};
use nka_quantum::wfa::decide::DecideOptions;
use proptest::prelude::*;

/// Characters that stress the string escaper: quotes, backslashes,
/// every control character, DEL, and one-to-four-byte UTF-8.
fn tricky_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x20).prop_map(|c| char::from_u32(c).expect("a control character")),
        Just('"'),
        Just('\\'),
        Just('/'),
        Just('\u{7f}'),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("printable ASCII")),
        Just('é'),
        Just('∞'),
        Just('\u{2028}'),
        Just('😀'),
        (0x80u32..0xd800).prop_map(|c| char::from_u32(c).expect("a scalar value")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_string_round_trips(chars in proptest::collection::vec(tricky_char(), 0..48)) {
        let s: String = chars.into_iter().collect();
        let printed = Json::Str(s.clone()).to_string();
        prop_assert_eq!(Json::parse(&printed), Ok(Json::Str(s.clone())));
        // Inside an object, as a key and as a value.
        let obj = Json::Obj(vec![(s.clone(), Json::Str(s))]);
        prop_assert_eq!(Json::parse(&obj.to_string()), Ok(obj));
    }
}

#[test]
fn malformed_input_keeps_its_messages_and_offsets() {
    let cases: [(&str, &str); 14] = [
        ("\"a\u{1}b\"", "unescaped control byte 0x01 in string"),
        ("{\"k\":\"\n\"}", "unescaped control byte 0x0a in string"),
        (r#""\u12""#, "truncated \\u escape"),
        (r#""\u00""#, "truncated \\u escape"),
        (r#""\uzzzz""#, "bad \\uzzzz"),
        (r#""\u00g1""#, "bad \\u00g1"),
        ("\"\\uab∞\"", "bad \\u escape"),
        (r#""\q""#, "bad escape at byte 2"),
        ("\"abc\\", "bad escape at byte 5"),
        ("\"unterminated", "unterminated string"),
        ("{} junk", "trailing content at byte 3"),
        (r#"{"a":1} {"#, "trailing content at byte 8"),
        (r#"["∞",]"#, "unexpected character ']' at byte 7"),
        (
            "1.5",
            "non-integer number at byte 0 (the protocol is integer-only)",
        ),
    ];
    for (src, want) in cases {
        assert_eq!(Json::parse(src), Err(want.to_owned()), "{src:?}");
    }
    // Escapes decode, a lone surrogate to U+FFFD.
    assert_eq!(
        Json::parse(r#""\u00e9\ud800\/\b\f""#),
        Ok(Json::Str("é\u{fffd}/\u{8}\u{c}".to_owned()))
    );
}

/// Answers `line` on `session` and returns the JSON response line.
fn answer(session: &mut Session, line: &str) -> String {
    answer_line(session, line, true)
        .expect("a request line")
        .line
}

/// One response line per verdict kind, plus error and shed lines.
fn response_lines() -> Vec<String> {
    let mut session = Session::new();
    let mut lines: Vec<String> = [
        "(p q)* p = p (q p)*",
        "p + p = p",
        r#"{"op":"prove","lhs":"m1 (m0 p + m1)","rhs":"m1","hyps":["m1 m1 = m1","m1 m0 = 0"]}"#,
        r#"{"op":"series","expr":"1* a + \"","max_len":2}"#,
        r#"{"op":"series","expr":"1* a + b","max_len":2}"#,
        r#"{"op":"prog_eq","p":"qubits 2; h q0; cnot q0 q1","q":"qubits 2; h q0; cnot q0 q1; skip"}"#,
        r#"{"op":"prog_eq","p":"qubits 1; h q0","q":"qubits 1; x q0"}"#,
        r#"{"op":"hoare","pre":"ket(1)","prog":"qubits 1; x q0","post":"ket(0)"}"#,
        r#"{"op":"analyze","prog":"qubits 2; abort; h q0","passes":[]}"#,
        r#"{"op":"analyze","prog":"qubits 2; init q0; if q0 { x q0; abort } else { h q0 }; h q1"}"#,
        r#"{"op":"optimize","prog":"qubits 2; abort; h q0; x q1"}"#,
        r#"{"op":"optimize","prog":"qubits 2; while q0 { h q1 }","rules":["loop-peeling"],"max_steps":3}"#,
        r#"{"op":"nka_eq","lhs":"a + ?","rhs":"a"}"#,
        r#"{"op":"prog_eq","p":"qubits 1; h q7","q":"qubits 1"}"#,
        r#"{"op":"nope"}"#,
        "no equality here \"quoted\"",
    ]
    .iter()
    .map(|line| answer(&mut session, line))
    .collect();

    let mut no_search = Session::with_options(
        SessionOptions::builder()
            .prove_max_expansions(0)
            .build()
            .unwrap(),
    );
    lines.push(answer(
        &mut no_search,
        r#"{"op":"prove","lhs":"(p q)* p","rhs":"p (q p)*"}"#,
    ));
    lines.push(answer(
        &mut no_search,
        r#"{"op":"prove","lhs":"a","rhs":"b","hyps":["a = b"]}"#,
    ));
    let mut no_states = Session::with_options(
        SessionOptions::builder()
            .decide(DecideOptions {
                max_dfa_states: 0,
                starfree_max_words: 0,
            })
            .build()
            .unwrap(),
    );
    lines.push(answer(&mut no_states, "1 = 1"));
    lines.push(wire::encode_shed(
        "overloaded: \"1024\"\trequests pending\u{1}".to_owned(),
        true,
    ));
    lines
}

#[test]
fn every_response_line_is_in_canonical_form() {
    let lines = response_lines();
    let mut verdicts: Vec<String> = Vec::new();
    for line in &lines {
        let value = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&value.to_string(), line, "not canonical");
        let verdict = value.get("verdict").and_then(Json::as_str).unwrap();
        if !verdicts.iter().any(|v| v == verdict) {
            verdicts.push(verdict.to_owned());
        }
    }
    verdicts.sort();
    assert_eq!(
        verdicts,
        [
            "analysis",
            "budget_exhausted",
            "error",
            "exhausted",
            "holds",
            "optimized",
            "proved",
            "refuted",
            "series"
        ],
        "one line per verdict kind"
    );
    // The lines exercise every payload the writer has.
    let all = lines.concat();
    for key in [
        "\"proof_size\":",
        "\"holds_by_decision\":true",
        "\"holds_by_decision\":null",
        "\"coeff\":\"∞\"",
        "\"enc_p\":",
        "\"encoded\":",
        "\"certificate\":{",
        "\"rule\":null",
        "\"citation\":",
        "\"note\":",
        "\"detail\":",
        "\"field\":\"p\",\"span\":[",
        "\\u0001",
        "\\\"",
        "\\t",
    ] {
        assert!(all.contains(key), "no line carries {key}");
    }
}
