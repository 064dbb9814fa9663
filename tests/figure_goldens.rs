//! Integration: the figure table and the checked-in goldens in `results/`
//! match one to one, and the five figures that simulate nothing render
//! their goldens byte for byte. (The 14 that simulate are diffed by CI's
//! `regmutex-cli figures --out` step.)

use regmutex_bench::{figures, JobSource};

fn golden(file: &str) -> String {
    let path = format!("{}/results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("read golden")
}

#[test]
fn the_table_matches_the_goldens_one_to_one() {
    let dir = std::fs::read_dir(format!("{}/results", env!("CARGO_MANIFEST_DIR")));
    let mut goldens: Vec<String> = dir
        .expect("read results/")
        .map(|e| e.expect("entry").file_name().into_string().expect("UTF-8"))
        .filter(|f| f != "server_smoke.txt")
        .collect();
    goldens.sort();
    let names: Vec<&str> = figures::all().iter().map(|f| f.name()).collect();
    let files: Vec<String> = names.iter().map(|n| format!("{n}.txt")).collect();
    assert_eq!(files, goldens, "one figure per golden, in file-name order");
    assert!(names
        .iter()
        .all(|n| figures::by_name(n).is_some_and(|f| f.name() == *n)));
    let err = figures::select(&["table_storage".into(), "Nope".into()], false).unwrap_err();
    assert!(
        err.starts_with("unknown figure 'Nope'; available: abl"),
        "{err}"
    );
}

#[test]
fn figures_without_jobs_render_their_goldens() {
    let jobless: Vec<_> = figures::all()
        .iter()
        .filter(|f| f.jobs().is_empty())
        .collect();
    assert_eq!(jobless.len(), 5, "Figs 1-3, Table I and the storage table");
    for f in jobless {
        let golden = golden(&format!("{}.txt", f.name()));
        assert_eq!(f.render(&[], &[]), (golden, 0), "{}", f.name());
    }
    let fig01 = figures::select(&["fig01_liveness".into()], true).unwrap();
    let (csv, _) = fig01[0].render(&[], &[]);
    let series = csv.strip_prefix(&golden("fig01_liveness.txt"));
    assert!(
        series.is_some_and(|s| s.starts_with("# CUTCP\n0,")),
        "{csv}"
    );
}
