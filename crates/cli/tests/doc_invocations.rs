//! Every `regmutex-cli <verb> …` invocation written in the README,
//! EXPERIMENTS.md, the CI workflow and the verify notes must parse under
//! the current grammar, so the docs cannot drift from the flag tables.

use std::path::Path;

/// The documents to scan, relative to the workspace root, and whether the
/// invocations live only inside ``` fences (markdown) or anywhere (YAML).
const DOCS: [(&str, bool); 4] = [
    ("README.md", true),
    ("EXPERIMENTS.md", true),
    (".github/workflows/ci.yml", false),
    (".claude/skills/verify/SKILL.md", true),
];

/// Shell words that end a command: redirections, pipes, background and
/// comment markers.
fn ends_command(word: &str) -> bool {
    ["&", "&&", "|", "||", ";", "#"].contains(&word)
        || word.starts_with('>')
        || word.starts_with("2>")
        || word.ends_with(';')
}

/// The argument vectors of each `regmutex-cli` invocation in `text`, with
/// `\` continuation lines joined.
fn invocations(text: &str, fenced_only: bool) -> Vec<Vec<String>> {
    let mut joined = Vec::new();
    let mut fenced = false;
    let mut pending = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced_only && !fenced {
            continue;
        }
        match line.trim_end().strip_suffix('\\') {
            Some(head) => pending.push_str(head),
            None => joined.push(std::mem::take(&mut pending) + line),
        }
    }
    let mut found = Vec::new();
    for line in joined {
        if line.trim_start().starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        for (i, w) in words.iter().enumerate() {
            let rest = &words[i + 1..];
            // A binary path, CI's `$cli` alias, or `cargo run -p
            // regmutex-cli -- <verb>`; other mentions (`cargo test -p
            // regmutex-cli`, the crate tree) are not invocations.
            let rest = match (*w, rest.first()) {
                (_, None) => continue,
                ("regmutex-cli", Some(&"--")) => &rest[1..],
                ("$cli", _) => rest,
                (w, _) if w.ends_with("/regmutex-cli") => rest,
                _ => continue,
            };
            let argv: Vec<String> = rest
                .iter()
                .take_while(|w| !ends_command(w))
                .map(|w| w.trim_matches(|c| c == '"' || c == '\'').to_string())
                .collect();
            if !argv.is_empty() {
                found.push(argv);
            }
        }
    }
    found
}

#[test]
fn every_documented_invocation_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut total = 0;
    let mut verbs = std::collections::BTreeSet::new();
    for (doc, fenced_only) in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        let found = invocations(&text, fenced_only);
        assert!(
            !found.is_empty(),
            "{doc}: no regmutex-cli invocations found"
        );
        for argv in found {
            if let Err(e) = regmutex_cli::parse(&argv) {
                panic!(
                    "{doc}: `regmutex-cli {}` does not parse: {e}",
                    argv.join(" ")
                );
            }
            verbs.insert(argv[0].clone());
            total += 1;
        }
    }
    // Guard against an extractor that silently finds nothing.
    assert!(total >= 40, "only {total} invocations found");
    for verb in "serve loadgen coordinator chaos figures fuzz sweep run".split(' ') {
        assert!(verbs.contains(verb), "no documented `{verb}` invocation");
    }
}

#[test]
fn extractor_joins_continuations_and_stops_at_shell_syntax() {
    let text = "\
```sh
cargo run --release -p regmutex-cli -- list --json   # registry
./target/release/regmutex-cli fuzz --seed 0xc1 \\
  --jobs 2 --replay \"$f\" > /tmp/out.txt &
cargo test -p regmutex-cli --test durable_e2e
  cli/        regmutex-cli        command-line front end
```
regmutex-cli run BFS outside a fence
";
    let found = invocations(text, true);
    let want: Vec<Vec<String>> = [
        &["list", "--json"][..],
        &["fuzz", "--seed", "0xc1", "--jobs", "2", "--replay", "$f"],
    ]
    .iter()
    .map(|a| a.iter().map(|s| s.to_string()).collect())
    .collect();
    assert_eq!(found, want);
}
