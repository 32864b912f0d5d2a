//! One path for the `BENCH_*.json` records.
//!
//! Every record is hand-rolled JSON (the workspace is offline and carries no
//! serde).  The throughput and recovery records carry a
//! `trajectory` array with one dated entry per recording: a run carries the
//! recorded entries forward verbatim ([`carry_forward`]) and appends its own,
//! and [`write()`] refuses a record whose trajectory is not a verbatim, in-order
//! extension of the one on disk ([`assert_append_only`]).  Only a full-scale
//! run defaults to the committed repo-root file; `--quick` defaults to the
//! system temp directory, so a smoke run cannot replace recorded results with
//! reduced-scale numbers ([`default_out`]).

use crate::{cli, Scale};

/// Today's date as `YYYY-MM-DD` (UTC), from the system clock — no external crate.
/// Uses the standard civil-from-days algorithm.
pub fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Makes free text safe for the hand-rolled writer and the bracket-scanning
/// [`trajectory_inner`] parser: quotes, backslashes, square brackets and
/// control characters become `_`, so a label like `PR 5 "batch" [wip]` cannot
/// corrupt a committed record.
pub fn sanitize(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            '"' | '\\' | '[' | ']' => '_',
            c if c.is_control() => '_',
            c => c,
        })
        .collect()
}

/// Where `BENCH_<experiment>.json` goes without `--out`: the committed
/// repo-root file at full scale, `BENCH_<experiment>.quick.json` in the system
/// temp directory under `--quick`.
pub fn default_out(experiment: &str, scale: Scale) -> String {
    match scale {
        Scale::Full => format!(
            "{}/../../BENCH_{experiment}.json",
            env!("CARGO_MANIFEST_DIR")
        ),
        Scale::Quick => std::env::temp_dir()
            .join(format!("BENCH_{experiment}.quick.json"))
            .to_string_lossy()
            .into_owned(),
    }
}

/// Parses the flags of a binary that runs its checks and writes one
/// trajectory record: `--quick`, `--label <text>` and `--out <path>`
/// (default [`default_out`]).  Returns the scale, the label and the path.
pub fn flags_from_env(experiment: &str) -> (Scale, String, String) {
    cli::from_env(&["--quick", "--label <text>", "--out <path>"], |args| {
        let scale = args.scale();
        let label = args.value("--label")?;
        let out = args.value("--out")?;
        Ok((
            scale,
            label.unwrap_or_else(|| "unlabelled recording".to_string()),
            out.unwrap_or_else(|| default_out(experiment, scale)),
        ))
    })
}

/// The trajectory to write at `path`: the entries recorded there, verbatim
/// and in order, followed by `entry`.
pub fn carry_forward(path: &str, entry: String) -> Vec<String> {
    let old = std::fs::read_to_string(path).unwrap_or_default();
    let mut entries = trajectory_inner(&old).unwrap_or_default();
    entries.push(entry);
    entries
}

/// Renders `"trajectory": [...]` at record indentation, one entry per line,
/// without a trailing comma or newline.
pub fn trajectory_json(entries: &[String]) -> String {
    let mut out = String::from("  \"trajectory\": [\n");
    for (i, entry) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            entry.trim(),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    out
}

/// Extracts the raw inner text of a record's `"trajectory": [...]` array
/// (verbatim entry objects, one per line).  `None` when the record has no
/// trajectory.
pub fn trajectory_inner(json: &str) -> Option<Vec<String>> {
    let start = json.find("\"trajectory\": [")?;
    let open = json[start..].find('[')? + start;
    let mut depth = 0usize;
    let mut end = None;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let inner = &json[open + 1..end?];
    Some(
        inner
            .lines()
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .filter(|l| !l.is_empty())
            .collect(),
    )
}

/// Fails unless the previously recorded trajectory entries are a verbatim,
/// in-order prefix of the new entry list — i.e. a recording may only *append*
/// history, never rewrite or drop it.
pub fn assert_append_only(old_entries: &[String], new_entries: &[String]) -> Result<(), String> {
    if new_entries.len() < old_entries.len() {
        return Err(format!(
            "trajectory shrank from {} to {} entries; recordings must append, never drop",
            old_entries.len(),
            new_entries.len()
        ));
    }
    for (i, (old, new)) in old_entries.iter().zip(new_entries).enumerate() {
        if old != new {
            return Err(format!(
                "trajectory entry {i} was rewritten:\n  recorded: {old}\n  new:      {new}\n\
                 recordings must carry prior entries forward verbatim"
            ));
        }
    }
    Ok(())
}

/// Fails naming the first of `keys` that `json` does not contain.  Each
/// experiment keeps its own key list; a malformed record fails its run
/// instead of silently rotting.
pub fn check_keys<K: AsRef<str>>(json: &str, keys: &[K]) -> Result<(), String> {
    match keys.iter().find(|key| !json.contains(key.as_ref())) {
        Some(key) => Err(format!("record is missing {}", key.as_ref())),
        None => Ok(()),
    }
}

/// What [`write()`] checks before replacing `path` with `json`: every key is
/// present, and the trajectory recorded at `path`, if any, is a verbatim
/// prefix of the one in `json`.
pub fn check<K: AsRef<str>>(path: &str, json: &str, keys: &[K]) -> Result<(), String> {
    check_keys(json, keys).map_err(|e| format!("{path}: {e}"))?;
    let old = std::fs::read_to_string(path).unwrap_or_default();
    if let Some(recorded) = trajectory_inner(&old) {
        assert_append_only(&recorded, &trajectory_inner(json).unwrap_or_default())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// The one write step of every record: [`check`], write the file, and print
/// the trajectory length and `wrote <path>`.  Exits 1 when the check or the
/// write fails.
pub fn write<K: AsRef<str>>(path: &str, json: &str, keys: &[K]) {
    if let Err(err) = check(path, json, keys)
        .and_then(|()| std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}")))
    {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    if let Some(entries) = trajectory_inner(json) {
        println!("trajectory: {} entr(y/ies) recorded", entries.len());
    }
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record holding just `entries` as its trajectory.
    fn record(entries: &[String]) -> String {
        format!("{{\n{}\n}}\n", trajectory_json(entries))
    }

    #[test]
    fn committed_records_carry_forward_as_a_verbatim_prefix() {
        for experiment in ["throughput", "recovery"] {
            let path = default_out(experiment, Scale::Full);
            let committed = std::fs::read_to_string(&path).expect("committed record");
            let recorded = trajectory_inner(&committed).expect("committed trajectory");
            assert!(!recorded.is_empty(), "{experiment}");

            let entry = "{\"date\": \"2026-01-01\", \"label\": \"test\"}".to_string();
            let carried = carry_forward(&path, entry.clone());
            let json = record(&carried);
            check(&path, &json, &["\"date\":"]).expect("a carried-forward record passes");
            let written = trajectory_inner(&json).unwrap();
            assert_eq!(written[..recorded.len()], recorded[..], "{experiment}");
            assert_eq!(written[recorded.len()..], [entry], "{experiment}");

            let mut rewritten = carried;
            rewritten[0] = rewritten[0].replacen("\"date\": \"", "\"date\": \"x", 1);
            let err = check(&path, &record(&rewritten), &["\"date\":"])
                .expect_err("a rewritten entry must fail");
            assert!(err.contains("entry 0 was rewritten"), "{experiment}: {err}");
        }
    }

    #[test]
    fn append_only_guard_rejects_rewrites_and_drops() {
        let old = vec!["{\"a\": 1}".to_string(), "{\"b\": 2}".to_string()];
        let appended = vec![old[0].clone(), old[1].clone(), "{\"c\": 3}".to_string()];
        assert!(assert_append_only(&old, &appended).is_ok());
        assert!(
            assert_append_only(&old, &old).is_ok(),
            "no-op carry-forward"
        );
        assert!(assert_append_only(&[], &appended).is_ok(), "fresh record");

        let dropped = vec![old[0].clone()];
        assert!(
            assert_append_only(&old, &dropped).is_err(),
            "shrunk history"
        );
        let rewritten = vec![old[0].clone(), "{\"b\": 99}".to_string()];
        assert!(
            assert_append_only(&old, &rewritten).is_err(),
            "rewritten entry"
        );
        let reordered = vec![old[1].clone(), old[0].clone()];
        assert!(assert_append_only(&old, &reordered).is_err(), "reordered");
    }

    #[test]
    fn sanitized_labels_survive_the_round_trip() {
        let label = sanitize("PR 5 \"batch\" [wip]\\x\n");
        assert_eq!(label, "PR 5 _batch_ _wip__x_");
        let entry = format!("{{\"label\": \"{label}\"}}");
        assert_eq!(
            trajectory_inner(&record(std::slice::from_ref(&entry))),
            Some(vec![entry])
        );
        assert_eq!(trajectory_inner("{}"), None, "no trajectory");
    }

    #[test]
    fn keys_and_default_paths() {
        assert!(check_keys("{\"a\": 1}", &["\"a\":"]).is_ok());
        let err = check_keys("{}", &["\"a\":"]).unwrap_err();
        assert!(err.contains("\"a\":"), "{err}");
        assert!(default_out("recovery", Scale::Full).ends_with("/../../BENCH_recovery.json"));
        assert!(default_out("recovery", Scale::Quick).ends_with("BENCH_recovery.quick.json"));
        let date = today();
        assert_eq!(date.len(), 10, "{date}");
        assert_eq!(&date[4..5], "-");
    }
}
