// The torn-write property every journal over `rbcast_core::jsonl` must
// hold, shared by its two users with `include!` (the supervisor's
// `Journal::open` test in this crate, run with sweep and attack lines,
// and the net journal's in `rbcast-net`) so the kill-mid-write case is
// stated once.
//
// `full` is a valid journal of `expected.len() - 1` lines and
// `expected[k]` is what `load` must return once exactly `k` of them are
// complete. For every byte offset `n` in `0..=full.len()`:
//
// * the file cut at `n` loads `Ok(expected[k])`, `k` being the number
//   of newlines below `n` — never `Err`, never a panic;
// * `append_one` (the journal's open-for-append plus one record) then
//   leaves the same bytes it leaves on the cleanly cut file — the
//   complete prefix, untouched, plus whole new lines — and that loads
//   as `grow(expected[k])`.
//
// Finally, overwriting any single byte of `full` must load `Ok` or the
// journal's structured error, never panic.
fn check_torn_writes<L: PartialEq + std::fmt::Debug>(
    tag: &str,
    full: &[u8],
    expected: &[L],
    load: impl Fn(&std::path::Path) -> Result<L, String>,
    append_one: impl Fn(&std::path::Path),
    grow: impl Fn(&L) -> L,
) {
    let dir = std::env::temp_dir().join(format!("rbcast-torn-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (torn, clean) = (dir.join("torn.jsonl"), dir.join("clean.jsonl"));
    assert_eq!(full.last(), Some(&b'\n'), "{tag}: the sample must be valid");
    assert_eq!(
        full.iter().filter(|&&b| b == b'\n').count() + 1,
        expected.len(),
        "{tag}: one expectation per count of complete lines"
    );

    for n in 0..=full.len() {
        let k = full[..n].iter().filter(|&&b| b == b'\n').count();
        let keep = full[..n]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        std::fs::write(&torn, &full[..n]).expect("write torn");
        std::fs::write(&clean, &full[..keep]).expect("write clean");
        let got = load(&torn).unwrap_or_else(|e| panic!("{tag}: cut at {n}: load failed: {e}"));
        assert_eq!(got, expected[k], "{tag}: cut at {n}");

        append_one(&torn);
        append_one(&clean);
        let healed = std::fs::read(&torn).expect("read torn");
        assert_eq!(
            healed,
            std::fs::read(&clean).expect("read clean"),
            "{tag}: cut at {n}: append after heal"
        );
        assert_eq!(&healed[..keep], &full[..keep], "{tag}: cut at {n}: prefix");
        assert!(healed.len() > keep, "{tag}: cut at {n}: nothing appended");
        assert_eq!(healed.last(), Some(&b'\n'), "{tag}: cut at {n}: tail");
        let got =
            load(&torn).unwrap_or_else(|e| panic!("{tag}: cut at {n}: reload failed: {e}"));
        assert_eq!(got, grow(&expected[k]), "{tag}: cut at {n}: after append");
    }

    for at in 0..full.len() {
        for byte in [0x00, b'"', b'}', b',', b'x', 0xff] {
            let mut rotten = full.to_vec();
            rotten[at] = byte;
            std::fs::write(&torn, &rotten).expect("write rotten");
            // Ok or a structured error; the assertion is "no panic".
            let _ = load(&torn);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
