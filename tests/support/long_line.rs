//! The longest request line a socket server reads by default.

/// `a = a` as a JSON request padded to exactly `bytes` bytes with an
/// ignored `"expect"` annotation of escapes (`\n`, `\"`, `\\`, `\u00e9`)
/// and multibyte characters.
pub fn huge_annotation_line(bytes: usize) -> String {
    const HEAD: &str = r#"{"op":"nka_eq","lhs":"a","rhs":"a","expect":""#;
    const TAIL: &str = r#""}"#;
    const CHUNK: &str = r#"holds\n \"∞\" ε·ψ \\ \u00e9 ⟨0|"#;
    let mut line = String::with_capacity(bytes);
    line.push_str(HEAD);
    while line.len() + CHUNK.len() + TAIL.len() <= bytes {
        line.push_str(CHUNK);
    }
    while line.len() + TAIL.len() < bytes {
        line.push('x');
    }
    line.push_str(TAIL);
    line
}
