//! Link-group lists: `paths.csv` (routing information for
//! identification) and `--partition explicit`'s partition file.
//!
//! Two columns, an id (`flow`, or `shard` in a partition file) and
//! `links`, a `;`-separated list of 0-based link indices (the columns of
//! `links.csv`, in order):
//!
//! ```csv
//! flow,links
//! 0,3
//! 1,0;4;7
//! ```
//!
//! Ids run `0..n` in order, so a flow id is its row number and every
//! process reads a partition file alike. Blank lines are skipped.

/// Parse a group list whose header is `<id>,links` (`id` is `flow` for
/// `paths.csv`, `shard` for a partition file) into per-id link index
/// lists. Errors name the 1-based file line.
pub fn parse(content: &str, id: &str) -> Result<Vec<Vec<usize>>, String> {
    let mut lines = content
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty());
    let header = lines.next().map_or("", |(_, line)| line);
    if !header.split(',').map(str::trim).eq([id, "links"]) {
        return Err(format!("header must be \"{id},links\", got {header:?}"));
    }
    let mut groups = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let (id_s, links_s) = line
            .split_once(',')
            .ok_or_else(|| format!("line {line_no}: expected two comma-separated fields"))?;
        let got: usize = id_s
            .trim()
            .parse()
            .map_err(|_| format!("line {line_no}: bad {id} id {id_s:?}"))?;
        if got != groups.len() {
            return Err(format!(
                "line {line_no}: {id} ids must be consecutive from 0 (expected {}, got {got})",
                groups.len()
            ));
        }
        let links = links_s
            .split(';')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| format!("line {line_no}: bad link index {part:?}"))
            })
            .collect::<Result<_, _>>()?;
        groups.push(links);
    }
    if groups.is_empty() {
        return Err(format!("no {id} follows the header"));
    }
    Ok(groups)
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
        assert_eq!(parse(&csv, "flow").unwrap(), paths);
    }

    #[test]
    fn header_validated() {
        assert!(parse("a,b\n0,1\n", "flow").is_err());
        assert!(parse("", "flow").is_err());
    }

    #[test]
    fn flow_ids_must_be_consecutive() {
        assert!(parse("flow,links\n0,1\n2,3\n", "flow").is_err());
    }

    #[test]
    fn bad_indices_reported_with_line() {
        let err = parse("flow,links\n0,1\n1,x\n", "flow").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn empty_path_rejected() {
        assert!(parse("flow,links\n0,\n", "flow").is_err());
    }

    #[test]
    fn blank_lines_ok() {
        let parsed = parse("flow,links\n0,1\n\n1,2;3\n", "flow").unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn partition_csv_roundtrip_and_errors() {
        let groups = parse("\n shard , links\n0,0;2\n1, 1 ;3\n", "shard").unwrap();
        assert_eq!(groups, vec![vec![0, 2], vec![1, 3]]);
        let err = |text| parse(text, "shard").unwrap_err();
        assert_eq!(
            err("flow,links\n0,1"),
            r#"header must be "shard,links", got "flow,links""#
        );
        assert_eq!(
            err("shard,links\n\n1,0"),
            "line 3: shard ids must be consecutive from 0 (expected 0, got 1)"
        );
        assert_eq!(err("shard,links\nx,0"), r#"line 2: bad shard id "x""#);
        assert_eq!(err("shard,links\n"), "no shard follows the header");
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
            prop_assert_eq!(parse(&serialize(&paths), "flow"), Ok(paths));
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
                let _ = parse(&text, "flow");
            }
        }
    }
}
