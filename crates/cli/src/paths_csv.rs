//! The `paths.csv` format: routing information for identification.
//!
//! Two columns, `flow` and `links`; `links` is a `;`-separated list of
//! 0-based link indices (the columns of `links.csv`, in order):
//!
//! ```csv
//! flow,links
//! 0,3
//! 1,0;4;7
//! ```
//!
//! Flows must appear in order `0..n` so flow ids in reports match row
//! numbers.

/// Parse `paths.csv` content into per-flow link index lists.
pub fn parse(content: &str) -> Result<Vec<Vec<usize>>, String> {
    let mut lines = content.lines().enumerate();
    let (_, header) = lines.next().ok_or("paths csv is empty")?;
    let header_fields: Vec<&str> = header.split(',').map(str::trim).collect();
    if header_fields != ["flow", "links"] {
        return Err(format!(
            "paths csv header must be \"flow,links\", got {header:?}"
        ));
    }
    let mut paths = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let line_no = idx + 1;
        let (flow_s, links_s) = line
            .split_once(',')
            .ok_or_else(|| format!("line {line_no}: expected two comma-separated fields"))?;
        let flow: usize = flow_s
            .trim()
            .parse()
            .map_err(|_| format!("line {line_no}: bad flow id {flow_s:?}"))?;
        if flow != paths.len() {
            return Err(format!(
                "line {line_no}: flow ids must be consecutive from 0 (expected {}, got {flow})",
                paths.len()
            ));
        }
        let mut links = Vec::new();
        for part in links_s.split(';') {
            let l: usize = part
                .trim()
                .parse()
                .map_err(|_| format!("line {line_no}: bad link index {part:?}"))?;
            links.push(l);
        }
        if links.is_empty() {
            return Err(format!("line {line_no}: flow {flow} has no links"));
        }
        paths.push(links);
    }
    if paths.is_empty() {
        return Err("paths csv has no flows".into());
    }
    Ok(paths)
}

/// Serialize per-flow link paths to the `paths.csv` format.
pub fn serialize(paths: &[Vec<usize>]) -> String {
    let mut out = String::from("flow,links\n");
    for (f, links) in paths.iter().enumerate() {
        let joined = links
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(";");
        out.push_str(&format!("{f},{joined}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let paths = vec![vec![3], vec![0, 4, 7], vec![1, 2]];
        let csv = serialize(&paths);
        assert_eq!(parse(&csv).unwrap(), paths);
    }

    #[test]
    fn header_validated() {
        assert!(parse("a,b\n0,1\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn flow_ids_must_be_consecutive() {
        assert!(parse("flow,links\n0,1\n2,3\n").is_err());
    }

    #[test]
    fn bad_indices_reported_with_line() {
        let err = parse("flow,links\n0,1\n1,x\n").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn empty_path_rejected() {
        assert!(parse("flow,links\n0,\n").is_err());
    }

    #[test]
    fn blank_lines_ok() {
        let parsed = parse("flow,links\n0,1\n\n1,2;3\n").unwrap();
        assert_eq!(parsed.len(), 2);
    }

    /// Non-empty path lists of non-empty paths, link indices from small
    /// to near `usize::MAX`.
    fn path_lists() -> impl Strategy<Value = Vec<Vec<usize>>> {
        let link = (0usize..4, 0usize..=usize::MAX).prop_map(|(scale, x)| match scale {
            0 => x % 10,
            1 => x % 1000,
            2 => x % 1_000_000,
            _ => x,
        });
        collection::vec(collection::vec(link, 1..8), 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn serialize_then_parse_is_the_identity(paths in path_lists()) {
            prop_assert_eq!(parse(&serialize(&paths)), Ok(paths));
        }

        /// Any one byte of a valid file replaced by any value: a parse
        /// or an error, never a panic (a mutant that is not UTF-8 never
        /// reaches `parse`, which takes `&str`).
        #[test]
        fn any_single_byte_mutation_parses_or_errs(
            paths in path_lists(),
            at in 0usize..=usize::MAX,
            byte in 0u8..=255,
        ) {
            let mut bytes = serialize(&paths).into_bytes();
            let at = at % bytes.len();
            bytes[at] = byte;
            if let Ok(text) = String::from_utf8(bytes) {
                let _ = parse(&text);
            }
        }
    }
}
