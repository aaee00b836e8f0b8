//! Process memory from `/proc/self`: resident set, its high-water mark,
//! and the reset that opens a new peak window.

/// The `/proc/self/status` field `key` (e.g. `VmHWM:`), in kB.
///
/// # Panics
/// Panics when the field is missing: every memory figure depends on it.
#[must_use]
pub fn status_kb(key: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} field"))
}

/// Peak resident set since the last [`reset_peak`], in kB.
#[must_use]
pub fn peak_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Resets the peak to the current resident set and returns it, in kB.
///
/// # Panics
/// Panics when the kernel refuses the reset, since every peak read
/// after it would silently include earlier work.
#[must_use]
pub fn reset_peak() -> u64 {
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs accepts a reset");
    status_kb("VmRSS:")
}

/// Kibibytes to mebibytes.
#[must_use]
pub fn mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}
